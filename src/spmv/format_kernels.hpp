#pragma once
// Parallel SpMV kernels for the extension formats ELL, HYB, and DIA.
//
// All three kernels parallelize over the disjoint row blocks of a
// precomputed nnz-balanced SpmvPlan (built over the *source* CSR row_ptr at
// prepare() time, see executor.cpp). Every row is computed by exactly one
// block and each row's accumulation replays the source CSR entry order, so
// the result is bit-identical to the serial spmv_reference oracle at any
// thread count and plan shape (pinned by tests/formats_test.cpp at
// OMP_NUM_THREADS in {1, 2, 8}):
//
//   ELL  slot-outer over the block's rows, a per-row length guard skips
//        padding cells entirely; slot order == column order.
//   HYB  the ELL loop for the capped part, then a row-compressed tail
//        pass — first-k-then-rest is exactly the CSR entry order.
//   DIA  diagonal-outer; ascending offsets == ascending columns. Dense
//        lanes (no fill) run an unguarded unit-stride triad loop — the
//        pure streaming form that beats CSR on banded matrices — while
//        lanes with fill take a guarded loop that skips 0.0 cells
//        exactly like the reference never saw them.

#include <span>

#include "sparse/dia.hpp"
#include "sparse/ell.hpp"
#include "sparse/hyb.hpp"
#include "spmv/plan.hpp"
#include "util/types.hpp"

namespace wise {

/// y = A*x; y is fully overwritten. `plan` must cover the matrix's rows.
/// Throws std::invalid_argument on dimension mismatch or a non-covering
/// plan.
void spmv_ell(const EllMatrix& a, std::span<const value_t> x,
              std::span<value_t> y, const SpmvPlan& plan);
void spmv_hyb(const HybMatrix& a, std::span<const value_t> x,
              std::span<value_t> y, const SpmvPlan& plan);
void spmv_dia(const DiaMatrix& a, std::span<const value_t> x,
              std::span<value_t> y, const SpmvPlan& plan);

}  // namespace wise
