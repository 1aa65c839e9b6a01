#include "spmv/csr_kernels.hpp"

#include <algorithm>
#include <stdexcept>

#include <omp.h>

namespace wise {

namespace {

void check_dims(const CsrMatrix& a, std::span<const value_t> x,
                std::span<value_t> y) {
  if (x.size() != static_cast<std::size_t>(a.ncols()) ||
      y.size() != static_cast<std::size_t>(a.nrows())) {
    throw std::invalid_argument("spmv_csr: dimension mismatch");
  }
}

/// The one reduction loop every variant shares. Bit-identity across the
/// specialized paths rests on this: any row with 3+ nonzeros — where the
/// simd reduction's association order is compiler-chosen — always runs
/// this exact loop, so specialization can never change the bits.
inline value_t range_dot(const index_t* col_idx, const value_t* vals,
                         const value_t* x, nnz_t lo, nnz_t hi) {
  value_t acc = 0;
#pragma omp simd reduction(+ : acc)
  for (nnz_t k = lo; k < hi; ++k) {
    acc += vals[k] * x[col_idx[k]];
  }
  return acc;
}

inline value_t row_dot(const nnz_t* row_ptr, const index_t* col_idx,
                       const value_t* vals, const value_t* x, index_t i) {
  return range_dot(col_idx, vals, x, row_ptr[i], row_ptr[i + 1]);
}

/// Rows with <= 2 nonzeros evaluate as scalar expressions: zero or one FP
/// addition, where every association order is the same order, so this is
/// bit-identical to range_dot on any compiler. Longer rows fall through to
/// the shared loop. This is the kMerge workhorse — on power-law matrices
/// most rows take the scalar exit and skip all vector-loop setup.
inline value_t short_row_dot(const nnz_t* row_ptr, const index_t* col_idx,
                             const value_t* vals, const value_t* x,
                             index_t i) {
  const nnz_t lo = row_ptr[i];
  const nnz_t len = row_ptr[i + 1] - lo;
  if (len > 2) return range_dot(col_idx, vals, x, lo, lo + len);
  // Written as the generic loop's exact += chain (not bare products) so
  // even signed-zero edge cases (0 + -0.0 == +0.0) match bit-for-bit.
  value_t acc = 0;
  if (len >= 1) acc += vals[lo] * x[col_idx[lo]];
  if (len == 2) acc += vals[lo + 1] * x[col_idx[lo + 1]];
  return acc;
}

// --- per-block loops, one per KernelVariant -------------------------------

inline void run_block_generic(const nnz_t* rp, const index_t* ci,
                              const value_t* va, const value_t* x,
                              value_t* y, index_t lo, index_t hi) {
  for (index_t i = lo; i < hi; ++i) y[i] = row_dot(rp, ci, va, x, i);
}

/// kUniform: every row in the block has the same length, so the trip count
/// hoists out of the row loop and row starts become arithmetic instead of
/// row_ptr loads; four rows per iteration give the compiler independent
/// reduction chains to interleave.
inline void run_block_uniform(const nnz_t* rp, const index_t* ci,
                              const value_t* va, const value_t* x,
                              value_t* y, index_t lo, index_t hi) {
  const nnz_t len = rp[lo + 1] - rp[lo];
  nnz_t k = rp[lo];
  index_t i = lo;
  for (; i + 4 <= hi; i += 4, k += 4 * len) {
    y[i] = range_dot(ci, va, x, k, k + len);
    y[i + 1] = range_dot(ci, va, x, k + len, k + 2 * len);
    y[i + 2] = range_dot(ci, va, x, k + 2 * len, k + 3 * len);
    y[i + 3] = range_dot(ci, va, x, k + 3 * len, k + 4 * len);
  }
  for (; i < hi; ++i, k += len) y[i] = range_dot(ci, va, x, k, k + len);
}

/// kWide: long/dense rows — two rows in flight so two independent
/// multi-lane accumulator chains overlap their gather latencies.
inline void run_block_wide(const nnz_t* rp, const index_t* ci,
                           const value_t* va, const value_t* x, value_t* y,
                           index_t lo, index_t hi) {
  index_t i = lo;
  for (; i + 2 <= hi; i += 2) {
    y[i] = row_dot(rp, ci, va, x, i);
    y[i + 1] = row_dot(rp, ci, va, x, i + 1);
  }
  if (i < hi) y[i] = row_dot(rp, ci, va, x, i);
}

/// kMerge: pathological skew — mostly-tiny rows take the scalar exit in
/// short_row_dot, four rows per iteration keep the loads flowing, and the
/// occasional hub row falls back to the shared reduction loop.
inline void run_block_merge(const nnz_t* rp, const index_t* ci,
                            const value_t* va, const value_t* x, value_t* y,
                            index_t lo, index_t hi) {
  index_t i = lo;
  for (; i + 4 <= hi; i += 4) {
    y[i] = short_row_dot(rp, ci, va, x, i);
    y[i + 1] = short_row_dot(rp, ci, va, x, i + 1);
    y[i + 2] = short_row_dot(rp, ci, va, x, i + 2);
    y[i + 3] = short_row_dot(rp, ci, va, x, i + 3);
  }
  for (; i < hi; ++i) y[i] = short_row_dot(rp, ci, va, x, i);
}

}  // namespace

void spmv_csr(const CsrMatrix& a, std::span<const value_t> x,
              std::span<value_t> y, Schedule sched, const SpmvPlan& plan) {
  check_dims(a, x, y);
  const index_t n = a.nrows();
  if (!plan.covers(n)) {
    throw std::invalid_argument("spmv_csr: plan does not cover the matrix");
  }
  const nnz_t* rp = a.row_ptr().data();
  const index_t* ci = a.col_idx().data();
  const value_t* va = a.vals().data();
  const value_t* xp = x.data();
  value_t* yp = y.data();
  for_each_plan_block(plan, sched, [=](index_t lo, index_t hi,
                                       KernelVariant v) {
    switch (v) {
      case KernelVariant::kUniform:
        run_block_uniform(rp, ci, va, xp, yp, lo, hi);
        break;
      case KernelVariant::kWide:
        run_block_wide(rp, ci, va, xp, yp, lo, hi);
        break;
      case KernelVariant::kMerge:
        run_block_merge(rp, ci, va, xp, yp, lo, hi);
        break;
      case KernelVariant::kGeneric:
      default:
        run_block_generic(rp, ci, va, xp, yp, lo, hi);
        break;
    }
  });
}

void spmv_csr_mkl_like(const CsrMatrix& a, std::span<const value_t> x,
                       std::span<value_t> y) {
  check_dims(a, x, y);
  const index_t n = a.nrows();
  const nnz_t* rp = a.row_ptr().data();
  const index_t* ci = a.col_idx().data();
  const value_t* va = a.vals().data();
  const value_t* xp = x.data();
  value_t* yp = y.data();
  const nnz_t total = a.nnz();

#pragma omp parallel
  {
    const int nt = omp_get_num_threads();
    const int tid = omp_get_thread_num();
    // Each thread takes the contiguous row range covering its equal share
    // of nonzeros: binary-search row_ptr for the split points.
    const nnz_t lo_target = total * tid / nt;
    const nnz_t hi_target = total * (tid + 1) / nt;
    const auto* begin = rp;
    const auto* end = rp + n + 1;
    // Thread boundaries are computed identically by adjacent threads
    // (thread t's hi_target equals thread t+1's lo_target), so the row
    // ranges tile [0, n) exactly; the first and last threads pin their
    // outer edge so runs of empty rows at either end are still covered.
    const index_t row_lo =
        tid == 0 ? 0
                 : static_cast<index_t>(
                       std::upper_bound(begin, end, lo_target) - begin - 1);
    const index_t row_hi =
        tid == nt - 1
            ? n
            : static_cast<index_t>(
                  std::upper_bound(begin, end, hi_target) - begin - 1);
    for (index_t i = row_lo; i < row_hi; ++i) {
      yp[i] = row_dot(rp, ci, va, xp, i);
    }
  }
}

}  // namespace wise
