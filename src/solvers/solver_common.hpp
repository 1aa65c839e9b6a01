#pragma once
// Common scaffolding for the iterative solvers built on WISE-accelerated
// SpMV. The paper motivates WISE with iterative workloads that "execute
// SpMV many times with the same sparse input matrix" (§1); this library is
// that workload: Jacobi, Conjugate Gradient, BiCGSTAB, and power iteration,
// each parameterized over an SpMV operator so callers can plug in a plain
// CSR kernel or a WISE-prepared matrix interchangeably.

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include <omp.h>

#include "sparse/csr.hpp"

namespace wise {

/// y = A x. Both plain kernels and PreparedMatrix::run bind to this.
using SpmvOperator =
    std::function<void(std::span<const value_t>, std::span<value_t>)>;

/// Wraps a CSR matrix with the reference-quality parallel kernel.
SpmvOperator make_csr_operator(const CsrMatrix& m);

struct SolverOptions {
  int max_iterations = 1000;
  double tolerance = 1e-10;  ///< on the 2-norm of the residual
};

struct SolverResult {
  std::vector<value_t> x;       ///< solution (or eigenvector)
  int iterations = 0;
  double residual_norm = 0;     ///< final ||b - Ax||_2 (or eigen-residual)
  bool converged = false;
  double eigenvalue = 0;        ///< power iteration only
};

/// Dense-vector helpers shared by the solvers (all OpenMP-parallel).
namespace blas {

/// Sum of term(i) over [0, n) with a fixed combine order: each thread sums
/// its schedule(static) range, then the per-thread partials are added in
/// thread order. An OpenMP `reduction(+ : ...)` leaves the combine order
/// unspecified, so with more than two threads two runs on the same input
/// could differ in the last bits; this cannot. At one or two threads the
/// result equals the reduction's.
template <typename Term>
double ordered_sum(std::int64_t n, Term&& term) {
  std::vector<double> partial(static_cast<std::size_t>(omp_get_max_threads()),
                              0.0);
#pragma omp parallel
  {
    double sum = 0;
#pragma omp for schedule(static) nowait
    for (std::int64_t i = 0; i < n; ++i) sum += term(i);
    partial[static_cast<std::size_t>(omp_get_thread_num())] = sum;
  }
  double sum = 0;
  for (const double p : partial) sum += p;
  return sum;
}

double dot(std::span<const value_t> a, std::span<const value_t> b);
double norm2(std::span<const value_t> a);
/// y += alpha * x
void axpy(value_t alpha, std::span<const value_t> x, std::span<value_t> y);
/// y = x + beta * y
void xpby(std::span<const value_t> x, value_t beta, std::span<value_t> y);
void scale(std::span<value_t> x, value_t alpha);
void copy(std::span<const value_t> src, std::span<value_t> dst);

}  // namespace blas

}  // namespace wise
