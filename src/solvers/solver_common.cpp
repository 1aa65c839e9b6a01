#include "solvers/solver_common.hpp"

#include <cmath>
#include <stdexcept>

#include <omp.h>

#include "spmv/csr_kernels.hpp"

namespace wise {

SpmvOperator make_csr_operator(const CsrMatrix& m) {
  // Built once per operator. Unspecialized, so every row runs the generic
  // row loop, one contiguous nnz-balanced block per thread.
  return [&m, plan = build_csr_plan(m, Schedule::kStCont, omp_get_max_threads(),
                                    /*specialize=*/false)](
             std::span<const value_t> x, std::span<value_t> y) {
    spmv_csr(m, x, y, Schedule::kStCont, plan);
  };
}

namespace blas {

double dot(std::span<const value_t> a, std::span<const value_t> b) {
  if (a.size() != b.size()) throw std::invalid_argument("dot: size mismatch");
  const auto n = static_cast<std::int64_t>(a.size());
  return ordered_sum(n, [&](std::int64_t i) {
    return static_cast<double>(a[static_cast<std::size_t>(i)]) *
           static_cast<double>(b[static_cast<std::size_t>(i)]);
  });
}

double norm2(std::span<const value_t> a) { return std::sqrt(dot(a, a)); }

void axpy(value_t alpha, std::span<const value_t> x, std::span<value_t> y) {
  if (x.size() != y.size()) throw std::invalid_argument("axpy: size mismatch");
  const auto n = static_cast<std::int64_t>(x.size());
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < n; ++i) {
    y[static_cast<std::size_t>(i)] += alpha * x[static_cast<std::size_t>(i)];
  }
}

void xpby(std::span<const value_t> x, value_t beta, std::span<value_t> y) {
  if (x.size() != y.size()) throw std::invalid_argument("xpby: size mismatch");
  const auto n = static_cast<std::int64_t>(x.size());
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < n; ++i) {
    y[static_cast<std::size_t>(i)] =
        x[static_cast<std::size_t>(i)] + beta * y[static_cast<std::size_t>(i)];
  }
}

void scale(std::span<value_t> x, value_t alpha) {
  const auto n = static_cast<std::int64_t>(x.size());
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < n; ++i) {
    x[static_cast<std::size_t>(i)] *= alpha;
  }
}

void copy(std::span<const value_t> src, std::span<value_t> dst) {
  if (src.size() != dst.size()) {
    throw std::invalid_argument("copy: size mismatch");
  }
  const auto n = static_cast<std::int64_t>(src.size());
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < n; ++i) {
    dst[static_cast<std::size_t>(i)] = src[static_cast<std::size_t>(i)];
  }
}

}  // namespace blas
}  // namespace wise
