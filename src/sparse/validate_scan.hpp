#pragma once
// Branch-free "is anything bad?" scans for the layout validators.
//
// A validator's serial loop stops at the first defect so it can name it,
// and that early exit keeps it from vectorizing or splitting across
// threads. These scans answer only whether a defect exists: one OpenMP
// pass with an `|` reduction and no early exit. The validators run them
// first and fall back to their serial loop only when one reports a
// defect, so valid input — the common case — pays for the fast pass
// alone, and an error keeps the category and message the serial loop
// gives it. SrvPackMatrix::validate uses the scans below; CsrMatrix's
// checks share one parallel region of their own (csr.cpp) and only the
// threshold from here.

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>

#include "util/types.hpp"

namespace wise::detail {

/// Below this many elements a scan stays on the calling thread: opening a
/// parallel region costs more than the scan.
inline constexpr std::int64_t kParallelScanMin = 1 << 15;

/// True when some value is NaN or +-Inf.
inline bool any_non_finite(std::span<const value_t> vals) {
  const value_t* v = vals.data();
  const auto n = static_cast<std::int64_t>(vals.size());
  int bad = 0;
  // |v| <= max is false exactly for NaN and the infinities.
#pragma omp parallel for simd schedule(static) reduction(| : bad) \
    if (n >= kParallelScanMin)
  for (std::int64_t k = 0; k < n; ++k) {
    bad |= !(std::fabs(v[k]) <= std::numeric_limits<value_t>::max());
  }
  return bad != 0;
}

/// True when some id lies outside [lo, hi).
inline bool any_outside(std::span<const index_t> ids, index_t lo,
                        index_t hi) {
  const index_t* c = ids.data();
  const auto n = static_cast<std::int64_t>(ids.size());
  int bad = 0;
#pragma omp parallel for simd schedule(static) reduction(| : bad) \
    if (n >= kParallelScanMin)
  for (std::int64_t k = 0; k < n; ++k) {
    bad |= (c[k] < lo) | (c[k] >= hi);
  }
  return bad != 0;
}

}  // namespace wise::detail
