#pragma once
// Row-to-thread scheduling policies for parallel SpMV (paper §2.1).

#include <string>

namespace wise {

/// How rows (or SRVPack chunks) are assigned to OpenMP threads (paper
/// §2.1). The kernels run over nnz-balanced plans (spmv/plan.hpp), which
/// realize these as:
///   kDyn    — work stealing over threads x 4 plan blocks
///   kSt     — static: one contiguous run of plan blocks per thread (the
///             paper's round-robin K-rows-at-a-time St is not reproduced;
///             St and StCont execute identically)
///   kStCont — static contiguous: one contiguous run of blocks per thread
enum class Schedule { kDyn, kSt, kStCont };

inline const char* schedule_name(Schedule s) {
  switch (s) {
    case Schedule::kDyn: return "Dyn";
    case Schedule::kSt: return "St";
    case Schedule::kStCont: return "StCont";
  }
  return "?";
}

/// Grain size K for row loops that schedule dynamically without a plan
/// (the semiring SpMV, graph/semiring.hpp; §2.1 "assign K rows at a
/// time"). Chosen so a grain is a few thousand nonzeros on typical
/// matrices — big enough to amortize dequeue cost, small enough to
/// load-balance skewed rows.
inline constexpr int kScheduleGrainRows = 256;

}  // namespace wise
