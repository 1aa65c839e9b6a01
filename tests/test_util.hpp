#pragma once
// Shared helpers for the WISE test suite.

#include <gtest/gtest.h>

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "gen/generators.hpp"
#include "sparse/csr.hpp"
#include "spmv/csr_kernels.hpp"
#include "spmv/plan.hpp"
#include "spmv/srvpack_kernels.hpp"
#include "util/prng.hpp"

namespace wise::testing {

/// Random general sparse matrix (uniform structure) for property tests.
inline CsrMatrix random_csr(index_t nrows, index_t ncols, double avg_degree,
                            std::uint64_t seed) {
  Xoshiro256 rng(seed);
  CooMatrix coo(nrows, ncols);
  const auto nnz = static_cast<nnz_t>(static_cast<double>(nrows) * avg_degree);
  for (nnz_t k = 0; k < nnz; ++k) {
    coo.add(static_cast<index_t>(rng.next_below(static_cast<std::uint64_t>(nrows))),
            static_cast<index_t>(rng.next_below(static_cast<std::uint64_t>(ncols))),
            static_cast<value_t>(0.5 + rng.next_double()));
  }
  coo.canonicalize();
  return CsrMatrix::from_coo(coo);
}

/// Random dense vector in [0,1).
inline std::vector<value_t> random_vector(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<value_t> v(n);
  for (auto& x : v) x = static_cast<value_t>(rng.next_double());
  return v;
}

/// Element-wise comparison with a relative tolerance that accounts for
/// different floating-point summation orders across kernels.
inline void expect_vectors_near(std::span<const value_t> expected,
                                std::span<const value_t> actual,
                                double rel_tol = 1e-9) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const double scale = std::max({1.0, std::abs(expected[i])});
    EXPECT_NEAR(expected[i], actual[i], rel_tol * scale)
        << "at element " << i;
  }
}

/// y = A*x through a single-block generic (unspecialized) CSR plan: one
/// thread runs every row with the generic loop. Every CSR plan result must
/// equal it bit for bit, whatever the schedule, thread count or variants.
inline std::vector<value_t> spmv_csr_one_block(const CsrMatrix& m,
                                               std::span<const value_t> x) {
  std::vector<value_t> y(static_cast<std::size_t>(m.nrows()));
  spmv_csr(m, x, y, Schedule::kStCont, build_balanced_plan(m.row_ptr(), 1));
  return y;
}

/// The SRVPack counterpart: one generic block per segment, run whole by
/// one thread.
inline std::vector<value_t> spmv_srvpack_one_block(
    const SrvPackMatrix& p, std::span<const value_t> x) {
  std::vector<value_t> y(static_cast<std::size_t>(p.nrows()));
  SrvWorkspace ws;
  spmv_srvpack(p, x, y, Schedule::kStCont, ws,
               build_srv_plan(p, Schedule::kStCont, 1, false));
  return y;
}

/// y = A*x through the schedule's SRVPack plan at the ambient thread count,
/// checked bit for bit against spmv_srvpack_one_block.
inline void run_srvpack_plan(const SrvPackMatrix& p,
                             std::span<const value_t> x, std::span<value_t> y,
                             Schedule sched) {
  SrvWorkspace ws;
  spmv_srvpack(p, x, y, sched, ws,
               build_srv_plan(p, sched, omp_get_max_threads()));
  const std::vector<value_t> y_one = spmv_srvpack_one_block(p, x);
  EXPECT_TRUE(std::equal(y.begin(), y.end(), y_one.begin()))
      << schedule_name(sched) << ": plan result differs from 1-block run";
}

/// The paper's running example matrix (Fig 1a): 8x8, entries named a..u.
/// Used to pin the SRVPack layouts against the paper's figures.
inline CsrMatrix paper_example_matrix() {
  // row: (col, value) — values encode their letter (a=1, b=2, ...).
  CooMatrix coo(8, 8);
  auto add = [&coo](index_t r, index_t c, char letter) {
    coo.add(r, c, static_cast<value_t>(letter - 'a' + 1));
  };
  add(0, 0, 'a'); add(0, 2, 'b'); add(0, 3, 'c'); add(0, 5, 'd');
  add(1, 3, 'e');
  add(2, 1, 'f'); add(2, 2, 'g');
  add(3, 0, 'j'); add(3, 3, 'k');
  add(4, 0, 'l');
  add(5, 1, 'm'); add(5, 2, 'n');
  add(6, 0, 'p'); add(6, 3, 'q'); add(6, 6, 'r');
  add(7, 2, 'y'); add(7, 7, 'u');
  return CsrMatrix::from_coo(coo);
}

}  // namespace wise::testing
