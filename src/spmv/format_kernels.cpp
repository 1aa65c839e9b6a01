#include "spmv/format_kernels.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace wise {

namespace {

template <typename Matrix>
void check_dims(const Matrix& a, std::span<const value_t> x,
                std::span<value_t> y, const char* who) {
  if (x.size() != static_cast<std::size_t>(a.ncols()) ||
      y.size() != static_cast<std::size_t>(a.nrows())) {
    throw std::invalid_argument(std::string(who) + ": dimension mismatch");
  }
}

/// Runs `block(lo, hi)` over the plan's blocks, which must be a disjoint
/// cover of [0, n) (static, one contiguous run per thread — every format
/// config registers with kStCont). Rows are computed independently, so the
/// partition never affects the bits.
template <typename Block>
void run_blocked(const SpmvPlan& plan, index_t n, const char* who,
                 Block&& block) {
  if (!plan.covers(n)) {
    throw std::invalid_argument(std::string(who) +
                                ": plan does not cover the matrix");
  }
  for_each_plan_block(plan, Schedule::kStCont,
                      [&](index_t lo, index_t hi, KernelVariant) {
                        block(lo, hi);
                      });
}

/// The shared ELL-part loop (used by both ELL and HYB): slot-outer over
/// the rows [lo, hi), accumulating into y. The length guard means padding
/// cells are never read, so each y[i] receives exactly its row's first
/// `len[i]` CSR entries in column order — the reference chain.
void ell_part_block(const index_t* len, const index_t* cols,
                    const value_t* vals, std::size_t n, index_t slots,
                    const value_t* x, value_t* y, index_t lo, index_t hi) {
  for (index_t i = lo; i < hi; ++i) y[i] = 0.0;
  for (index_t s = 0; s < slots; ++s) {
    const index_t* cs = cols + static_cast<std::size_t>(s) * n;
    const value_t* vs = vals + static_cast<std::size_t>(s) * n;
    for (index_t i = lo; i < hi; ++i) {
      if (s < len[i]) y[i] += vs[i] * x[cs[i]];
    }
  }
}

}  // namespace

void spmv_ell(const EllMatrix& a, std::span<const value_t> x,
              std::span<value_t> y, const SpmvPlan& plan) {
  check_dims(a, x, y, "spmv_ell");
  const index_t* len = a.row_lens().data();
  const index_t* cols = a.cols().data();
  const value_t* vals = a.vals().data();
  const std::size_t n = static_cast<std::size_t>(a.nrows());
  const index_t slots = a.slots();
  const value_t* xp = x.data();
  value_t* yp = y.data();
  run_blocked(plan, a.nrows(), "spmv_ell", [=](index_t lo, index_t hi) {
    ell_part_block(len, cols, vals, n, slots, xp, yp, lo, hi);
  });
}

void spmv_hyb(const HybMatrix& a, std::span<const value_t> x,
              std::span<value_t> y, const SpmvPlan& plan) {
  check_dims(a, x, y, "spmv_hyb");
  const index_t* len = a.ell_lens().data();
  const index_t* cols = a.ell_cols().data();
  const value_t* vals = a.ell_vals().data();
  const nnz_t* trp = a.tail_row_ptr().data();
  const index_t* tc = a.tail_cols().data();
  const value_t* tv = a.tail_vals().data();
  const std::size_t n = static_cast<std::size_t>(a.nrows());
  const index_t slots = a.ell_slots();
  const value_t* xp = x.data();
  value_t* yp = y.data();
  run_blocked(plan, a.nrows(), "spmv_hyb", [=](index_t lo, index_t hi) {
    ell_part_block(len, cols, vals, n, slots, xp, yp, lo, hi);
    for (index_t i = lo; i < hi; ++i) {
      value_t acc = yp[i];
      for (nnz_t k = trp[i]; k < trp[i + 1]; ++k) {
        acc += tv[static_cast<std::size_t>(k)] *
               xp[tc[static_cast<std::size_t>(k)]];
      }
      yp[i] = acc;
    }
  });
}

void spmv_dia(const DiaMatrix& a, std::span<const value_t> x,
              std::span<value_t> y, const SpmvPlan& plan) {
  check_dims(a, x, y, "spmv_dia");
  const std::int64_t* off = a.offsets().data();
  const char* dense = a.lane_dense().data();
  const value_t* vals = a.vals().data();
  const std::size_t n = static_cast<std::size_t>(a.nrows());
  const index_t nd = a.num_diagonals();
  const index_t ncols = a.ncols();
  const value_t* xp = x.data();
  value_t* yp = y.data();
  run_blocked(plan, a.nrows(), "spmv_dia", [=](index_t lo, index_t hi) {
    for (index_t i = lo; i < hi; ++i) yp[i] = 0.0;
    for (index_t d = 0; d < nd; ++d) {
      const std::int64_t o = off[d];
      const value_t* lane = vals + static_cast<std::size_t>(d) * n;
      const index_t ilo = static_cast<index_t>(
          std::max<std::int64_t>(lo, -o));
      const index_t ihi = static_cast<index_t>(std::min<std::int64_t>(
          hi, static_cast<std::int64_t>(ncols) - o));
      if (dense[d]) {
        // No fill: every lane cell in [ilo, ihi) is a real entry, so the
        // unguarded triad is exact — and fully vectorizable, since it has
        // no branch, no index load, and no gather.
#pragma omp simd
        for (index_t i = ilo; i < ihi; ++i) {
          yp[i] += lane[i] * xp[i + o];
        }
      } else {
        for (index_t i = ilo; i < ihi; ++i) {
          const value_t v = lane[i];
          if (v != 0.0) yp[i] += v * xp[i + o];
        }
      }
    }
  });
}

}  // namespace wise
