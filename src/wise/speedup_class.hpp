#pragma once
// Speedup classes C0..C6 (paper §4.3).
//
// Each performance model predicts a *class* of relative execution time
// r = t_config / t_bestCSR rather than a raw number:
//   C0: r > 1.05          (slowdown)
//   C1: 0.95 < r <= 1.05  (parity)
//   C2: 0.85 < r <= 0.95
//   C3: 0.75 < r <= 0.85
//   C4: 0.65 < r <= 0.75
//   C5: 0.55 < r <= 0.65
//   C6: r <= 0.55         (more than ~2x speedup)
// Higher class index means faster execution.

#include <string>

namespace wise {

inline constexpr int kNumSpeedupClasses = 7;

/// Maps a relative execution time to its class. r must be positive.
int classify_relative_time(double rel_time);

/// Inclusive upper bound of the class's relative-time range (C0 returns
/// +infinity's stand-in of 8.0 for plotting purposes via midpoint below).
double class_upper_rel(int cls);

/// Exclusive lower bound of the class's relative-time range (C6 returns 0).
double class_lower_rel(int cls);

/// Representative relative time of a class: midpoint of its range; C0 and
/// C6 use 1.10 and 0.50 respectively. Used when a scalar estimate is needed
/// (e.g. ranking classes by expected speedup).
double class_midpoint_rel(int cls);

/// "C0".."C6".
std::string class_name(int cls);

// Preparation-cost classes P0..P5 (a bank's prep head): layout-conversion
// time in units of one best-CSR SpMV iteration.
inline constexpr int kNumPrepClasses = 6;

/// Buckets a preprocessing cost (in best-CSR iterations) into classes
/// P0=[0,1) P1=[1,3) P2=[3,8) P3=[8,20) P4=[20,50) P5=[50,inf).
/// Throws std::invalid_argument on a negative or NaN cost.
int classify_prep_cost(double prep_csr_iters);

/// Representative cost of a class (geometric-ish midpoints; P5 uses 80).
double prep_class_midpoint(int cls);

}  // namespace wise
