#pragma once
// Vectorized SpMV over the SRVPack unified format.
//
// One kernel serves SELLPACK, Sell-c-σ, Sell-c-R, LAV-1Seg and LAV — the
// format build options decide which method executes (paper Appendix A).
// Each SRVPack chunk is processed with c-wide SIMD across its lanes; chunks
// run block-by-block over a precomputed nnz-balanced plan; segments
// run one after another so the input-vector working set of each segment
// stays LLC-resident (LAV's goal).
//
// The slot loop has three bodies, picked at compile time:
//   c = 4, AVX2 + FMA   four lane sums in one ymm register: one 4-lane
//                       gather and one FMA per slot
//   c = 8, AVX-512F     eight lane sums in one zmm register: one 8-lane
//                       gather and one FMA per slot, with both planes
//                       (values and column ids) prefetched a fixed distance
//                       ahead, since a 1-thread run is bound by the latency
//                       of streaming them rather than by bandwidth
//   any other case      a portable `omp simd` loop over the lanes: other
//                       widths, and builds without those ISA macros (c = 8
//                       on AVX2-only hosts, sanitizer builds)
// Each body adds a lane's products in slot order, so they all give the
// same bits.

#include <span>

#include "sparse/srvpack.hpp"
#include "spmv/plan.hpp"
#include "spmv/schedule.hpp"
#include "util/aligned.hpp"

namespace wise {

/// Scratch buffers reused across SpMV iterations. With CFS the input vector
/// is gathered into permuted order once per call; the buffer persists here
/// so iterative solvers pay one allocation total.
struct SrvWorkspace {
  aligned_vector<value_t> permuted_x;
};

/// y = A*x. y is fully overwritten, whatever it held. When segment 0's row
/// order covers every row (every SELLPACK and Sell-c-σ layout), segment 0
/// stores each row's sum and y is written once; otherwise (RFS layouts
/// that dropped empty rows) y is zeroed first and segment 0 adds too. Later
/// segments always add. Both give the same bits. `plan` holds one chunk
/// partition per segment (build_srv_plan), so the balancing is decided at
/// prepare() time instead of per multiplication by the OpenMP runtime.
/// Every chunk runs exactly once with an unchanged accumulation, so the
/// result is bit-identical at any thread count and plan shape. Without CFS
/// it equals spmv_reference bit for bit; with CFS (LAV-1Seg, LAV) each row
/// sums in permuted column order, and across segments, so it equals the
/// reference only to rounding. Throws std::invalid_argument on dimension
/// mismatch or a plan whose segment count differs from the matrix's.
///
/// Padding is stored as (pad_col, 0.0), one padding column per segment
/// (SrvSegment::pad_col). A segment whose padding column holds a non-finite
/// x runs a guarded reduction that skips padding, so padded rows stay
/// finite where spmv_reference's do. The guard cannot tell an explicitly
/// stored zero at that column from padding: such an entry adds nothing
/// there, where spmv_reference adds 0 * Inf = NaN.
void spmv_srvpack(const SrvPackMatrix& a, std::span<const value_t> x,
                  std::span<value_t> y, Schedule sched, SrvWorkspace& ws,
                  const SrvPlan& plan);

}  // namespace wise
