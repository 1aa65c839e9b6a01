#include "wise/speedup_class.hpp"

#include <stdexcept>

namespace wise {

namespace {
// Class k (for k in 1..6) covers (kBounds[k], kBounds[k-1]].
constexpr double kBounds[] = {1.05, 0.95, 0.85, 0.75, 0.65, 0.55};
// Upper bounds of prep classes P0..P4 (P5 is open-ended).
constexpr double kPrepBounds[] = {1, 3, 8, 20, 50};
constexpr double kPrepMidpoints[] = {0.5, 2, 5, 13, 33, 80};
}  // namespace

int classify_relative_time(double rel_time) {
  if (!(rel_time > 0)) {
    throw std::invalid_argument("classify_relative_time: non-positive time");
  }
  if (rel_time > kBounds[0]) return 0;
  for (int k = 1; k <= 5; ++k) {
    if (rel_time > kBounds[k]) return k;
  }
  return 6;
}

double class_upper_rel(int cls) {
  if (cls < 0 || cls >= kNumSpeedupClasses) {
    throw std::out_of_range("class_upper_rel");
  }
  if (cls == 0) return 8.0;  // open-ended slowdown range, capped for plots
  return kBounds[cls - 1];
}

double class_lower_rel(int cls) {
  if (cls < 0 || cls >= kNumSpeedupClasses) {
    throw std::out_of_range("class_lower_rel");
  }
  if (cls == 6) return 0.0;
  return kBounds[cls];
}

double class_midpoint_rel(int cls) {
  if (cls == 0) return 1.10;
  if (cls == 6) return 0.50;
  return (class_lower_rel(cls) + class_upper_rel(cls)) / 2;
}

std::string class_name(int cls) {
  if (cls < 0 || cls >= kNumSpeedupClasses) {
    throw std::out_of_range("class_name");
  }
  return "C" + std::to_string(cls);
}

int classify_prep_cost(double prep_csr_iters) {
  if (!(prep_csr_iters >= 0)) {
    throw std::invalid_argument("classify_prep_cost: negative cost");
  }
  for (int k = 0; k < kNumPrepClasses - 1; ++k) {
    if (prep_csr_iters < kPrepBounds[k]) return k;
  }
  return kNumPrepClasses - 1;
}

double prep_class_midpoint(int cls) {
  if (cls < 0 || cls >= kNumPrepClasses) {
    throw std::out_of_range("prep_class_midpoint");
  }
  return kPrepMidpoints[cls];
}

}  // namespace wise
