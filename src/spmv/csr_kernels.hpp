#pragma once
// Parallel CSR SpMV kernels (paper §2.1) and the MKL stand-in baseline.

#include <span>

#include "sparse/csr.hpp"
#include "spmv/plan.hpp"
#include "spmv/schedule.hpp"

namespace wise {

/// y = A*x over a precomputed nnz-balanced plan (see spmv/plan.hpp); y is
/// fully overwritten. Blocks run one contiguous run per thread for the
/// static policies (St and StCont execute identically) and work-stolen for
/// Dyn. A specialized plan dispatches each block to its recorded
/// KernelVariant (uniform / wide / merge loops); an unspecialized plan runs
/// every block through the generic loop. The result is bit-identical at any
/// thread count, plan shape and variant table; rows reduce with `omp simd`,
/// so it equals spmv_reference only to rounding. Throws
/// std::invalid_argument on dimension mismatch or a plan that does not
/// cover the matrix's rows.
void spmv_csr(const CsrMatrix& a, std::span<const value_t> x,
              std::span<value_t> y, Schedule sched, const SpmvPlan& plan);

/// MKL baseline stand-in: CSR SpMV with a static row partition balanced by
/// nonzero count per thread (what a well-tuned vendor CSR kernel does).
/// The paper's MKL baseline also operates on CSR (§3, Fig 3).
void spmv_csr_mkl_like(const CsrMatrix& a, std::span<const value_t> x,
                       std::span<value_t> y);

}  // namespace wise
