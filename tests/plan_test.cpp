// Tests for the precomputed nnz-balanced SpMV execution plans
// (src/spmv/plan.hpp): partition invariants on degenerate inputs, balance
// quality on skewed matrices, and bit-identity of plan execution across
// schedules, plan shapes and OMP_NUM_THREADS in {1, 2, 8}.

#include <gtest/gtest.h>

#include <omp.h>

#include <numeric>
#include <vector>

#include "gen/generators.hpp"
#include "spmv/csr_kernels.hpp"
#include "spmv/executor.hpp"
#include "spmv/method.hpp"
#include "spmv/plan.hpp"
#include "spmv/srvpack_kernels.hpp"
#include "test_util.hpp"

namespace wise {
namespace {

using testing::random_csr;
using testing::random_vector;

/// Every plan invariant in one place: bounds tile [0, n) exactly once
/// (first 0, last n, strictly ascending), so each row runs exactly once.
void expect_covers_exactly_once(const SpmvPlan& plan, index_t n) {
  EXPECT_TRUE(plan.covers(n));
  ASSERT_GE(plan.bounds.size(), 2u);
  EXPECT_EQ(plan.bounds.front(), 0);
  EXPECT_EQ(plan.bounds.back(), n);
  std::vector<int> seen(static_cast<std::size_t>(n), 0);
  for (index_t b = 0; b < plan.num_blocks(); ++b) {
    for (index_t i = plan.bounds[static_cast<std::size_t>(b)];
         i < plan.bounds[static_cast<std::size_t>(b) + 1]; ++i) {
      ASSERT_GE(i, 0);
      ASSERT_LT(i, n);
      ++seen[static_cast<std::size_t>(i)];
    }
  }
  for (index_t i = 0; i < n; ++i) {
    EXPECT_EQ(seen[static_cast<std::size_t>(i)], 1) << "row " << i;
  }
}

// ------------------------------------------------- degenerate inputs ----

TEST(PlanBuild, EmptyMatrix) {
  const CsrMatrix m = CsrMatrix::from_coo(CooMatrix(0, 0));
  const SpmvPlan plan = build_csr_plan(m, Schedule::kStCont, 8);
  expect_covers_exactly_once(plan, 0);
  EXPECT_EQ(plan.num_blocks(), 1);
}

TEST(PlanBuild, AllRowsEmpty) {
  // nnz == 0 but rows exist: a single block must still cover every row so
  // the kernel zeroes y.
  const CsrMatrix m = CsrMatrix::from_coo(CooMatrix(100, 100));
  const SpmvPlan plan = build_csr_plan(m, Schedule::kDyn, 4);
  expect_covers_exactly_once(plan, 100);
  EXPECT_EQ(plan.num_blocks(), 1);
}

TEST(PlanBuild, SingleDenseRowDominates) {
  // Row 0 holds >50% of all nonzeros. Split targets landing inside it must
  // collapse into one block — the row can never be split or duplicated.
  CooMatrix coo(64, 200);
  for (index_t j = 0; j < 200; ++j) coo.add(0, j, 1.0);
  for (index_t i = 1; i < 64; ++i) coo.add(i, static_cast<index_t>(i), 1.0);
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  ASSERT_GT(m.row_nnz(0) * 2, m.nnz());
  for (const int threads : {1, 2, 8, 64}) {
    // Pin specialize=false: the block budget (one per thread) is the
    // balanced partition's contract; specialized plans subdivide it.
    const SpmvPlan plan =
        build_csr_plan(m, Schedule::kStCont, threads, /*specialize=*/false);
    expect_covers_exactly_once(plan, 64);
    EXPECT_LE(plan.num_blocks(), threads);
  }
}

TEST(PlanBuild, FewerNonzerosThanThreads) {
  // 3 nonzeros, 16 threads: split targets collapse onto the 3 distinct
  // prefix-sum values, so at most nnz+1 blocks survive (the +1 is a
  // leading run of empty rows) and coverage stays exact.
  CooMatrix coo(10, 10);
  coo.add(1, 1, 1.0);
  coo.add(5, 2, 1.0);
  coo.add(9, 9, 1.0);
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  const SpmvPlan plan = build_csr_plan(m, Schedule::kStCont, 16);
  expect_covers_exactly_once(plan, 10);
  EXPECT_LE(plan.num_blocks(), m.nnz() + 1);
}

TEST(PlanBuild, SingleRowSingleThread) {
  CooMatrix coo(1, 4);
  coo.add(0, 2, 3.0);
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  const SpmvPlan plan = build_csr_plan(m, Schedule::kStCont, 1);
  expect_covers_exactly_once(plan, 1);
}

TEST(PlanBuild, BalancesSkewedMatrixWithinOneRow) {
  // On a skewed matrix no block may exceed ceil(total/B) by more than the
  // heaviest single row (rows are atomic).
  const CsrMatrix m =
      CsrMatrix::from_coo(generate_rmat({.n = 1024, .avg_degree = 8.0}, 11));
  const index_t blocks = 8;
  const SpmvPlan plan = build_balanced_plan(m.row_ptr(), blocks);
  expect_covers_exactly_once(plan, m.nrows());
  nnz_t heaviest_row = 0;
  for (index_t i = 0; i < m.nrows(); ++i) {
    heaviest_row = std::max(heaviest_row, m.row_nnz(i));
  }
  const nnz_t target = (m.nnz() + blocks - 1) / blocks;
  const auto& rp = m.row_ptr();
  for (index_t b = 0; b < plan.num_blocks(); ++b) {
    const nnz_t block_nnz =
        rp[static_cast<std::size_t>(plan.bounds[static_cast<std::size_t>(b) + 1])] -
        rp[static_cast<std::size_t>(plan.bounds[static_cast<std::size_t>(b)])];
    EXPECT_LE(block_nnz, target + heaviest_row) << "block " << b;
  }
}

TEST(PlanBuild, DynOversubscribesBlocks) {
  const CsrMatrix m = random_csr(4096, 4096, 8.0, 21);
  const SpmvPlan st =
      build_csr_plan(m, Schedule::kStCont, 4, /*specialize=*/false);
  const SpmvPlan dyn =
      build_csr_plan(m, Schedule::kDyn, 4, /*specialize=*/false);
  EXPECT_EQ(st.num_blocks(), 4);
  EXPECT_GT(dyn.num_blocks(), st.num_blocks());
}

TEST(PlanBuild, SrvPlanCoversEverySegment) {
  const CsrMatrix m = random_csr(500, 500, 8.0, 3);
  const SrvPackMatrix p = SrvPackMatrix::build(
      m, {.c = 4, .sigma = kSigmaAll, .cfs = true, .segment_fractions = {0.7}});
  const SrvPlan plan = build_srv_plan(p, Schedule::kDyn, 4);
  ASSERT_EQ(plan.segments.size(), p.segments().size());
  for (std::size_t s = 0; s < plan.segments.size(); ++s) {
    expect_covers_exactly_once(plan.segments[s],
                               p.segments()[s].num_chunks());
  }
  EXPECT_GT(plan.memory_bytes(), 0u);
}

// -------------------------------- bit-identity across thread counts ----

/// Plan execution must not depend on the thread count or the plan's shape:
/// each row/chunk runs the same serial inner loop exactly once, regardless
/// of which thread owns it. Every schedule's plan at 1, 2 and 8 threads is
/// bit-equal to the single-block generic plan run on one thread, which in
/// turn is near the serial reference.
TEST(PlanBitIdentity, CsrAllSchedulesAllThreadCounts) {
  const int ambient = omp_get_max_threads();
  const CsrMatrix skewed =
      CsrMatrix::from_coo(generate_rmat({.n = 512, .avg_degree = 8.0}, 5));
  const CsrMatrix uniform = random_csr(300, 257, 6.0, 6);
  for (const CsrMatrix* m : {&skewed, &uniform}) {
    const auto x = random_vector(static_cast<std::size_t>(m->ncols()), 17);
    std::vector<value_t> y_ref(static_cast<std::size_t>(m->nrows()));
    std::vector<value_t> y_plan(y_ref.size(), -1.0);
    spmv_reference(*m, x, y_ref);
    const auto y_serial = testing::spmv_csr_one_block(*m, x);
    testing::expect_vectors_near(y_ref, y_serial);
    for (const Schedule sched :
         {Schedule::kDyn, Schedule::kSt, Schedule::kStCont}) {
      for (const int threads : {1, 2, 8}) {
        omp_set_num_threads(threads);
        const SpmvPlan plan = build_csr_plan(*m, sched, threads);
        spmv_csr(*m, x, y_plan, sched, plan);
        EXPECT_EQ(y_serial, y_plan)
            << schedule_name(sched) << " @ " << threads << " threads";
      }
    }
  }
  omp_set_num_threads(ambient);
}

TEST(PlanBitIdentity, SrvPackAcrossThreadCounts) {
  const int ambient = omp_get_max_threads();
  const CsrMatrix m =
      CsrMatrix::from_coo(generate_rmat({.n = 512, .avg_degree = 8.0}, 9));
  const auto x = random_vector(static_cast<std::size_t>(m.ncols()), 23);
  std::vector<value_t> y_ref(static_cast<std::size_t>(m.nrows()));
  spmv_reference(m, x, y_ref);
  // One cheap and one maximal configuration (CFS + segmentation).
  const std::vector<SrvBuildOptions> options = {
      {.c = 4, .sigma = 64},
      {.c = 8, .sigma = kSigmaAll, .cfs = true, .segment_fractions = {0.8}}};
  for (const auto& opt : options) {
    const SrvPackMatrix p = SrvPackMatrix::build(m, opt);
    std::vector<value_t> y_plan(y_ref.size(), -1.0);
    SrvWorkspace ws_plan;
    const auto y_serial = testing::spmv_srvpack_one_block(p, x);
    testing::expect_vectors_near(y_ref, y_serial);
    for (const Schedule sched :
         {Schedule::kDyn, Schedule::kSt, Schedule::kStCont}) {
      for (const int threads : {1, 2, 8}) {
        omp_set_num_threads(threads);
        const SrvPlan plan = build_srv_plan(p, sched, threads);
        spmv_srvpack(p, x, y_plan, sched, ws_plan, plan);
        EXPECT_EQ(y_serial, y_plan)
            << schedule_name(sched) << " @ " << threads << " threads";
      }
    }
  }
  omp_set_num_threads(ambient);
}

/// A plan built for one thread count stays correct when executed under a
/// different one (serve caches plans; clients resize thread pools).
TEST(PlanBitIdentity, PlanSurvivesThreadCountChange) {
  const int ambient = omp_get_max_threads();
  const CsrMatrix m = random_csr(400, 400, 7.0, 31);
  const auto x = random_vector(400, 32);
  std::vector<value_t> y_ref(400), y(400);
  spmv_reference(m, x, y_ref);
  const SpmvPlan plan = build_csr_plan(m, Schedule::kStCont, 8);
  for (const int threads : {1, 2, 8}) {
    omp_set_num_threads(threads);
    spmv_csr(m, x, y, Schedule::kStCont, plan);
    testing::expect_vectors_near(y_ref, y);
  }
  omp_set_num_threads(ambient);
}

// --------------------------------------------------- executor wiring ----

TEST(PlanExecutor, PreparedMatrixBuildsAndChargesPlan) {
  const CsrMatrix m = random_csr(256, 256, 6.0, 41);
  PreparedMatrix csr = PreparedMatrix::prepare(
      m, {.kind = MethodKind::kCsr, .sched = Schedule::kStCont});
  EXPECT_GT(csr.plan_bytes(), 0u);
  EXPECT_EQ(csr.memory_bytes(), m.memory_bytes())
      << "plan bytes are reported separately from the layout";

  PreparedMatrix packed = PreparedMatrix::prepare(
      m, {.kind = MethodKind::kSellpack, .sched = Schedule::kDyn, .c = 4});
  EXPECT_GT(packed.plan_bytes(), 0u);

  const auto x = random_vector(256, 42);
  std::vector<value_t> y_ref(256), y(256);
  spmv_reference(m, x, y_ref);
  csr.run(x, y);
  testing::expect_vectors_near(y_ref, y);
  packed.run(x, y);
  testing::expect_vectors_near(y_ref, y);
}

TEST(PlanExecutor, RejectsForeignPlan) {
  const CsrMatrix big = random_csr(100, 100, 4.0, 1);
  const CsrMatrix small = random_csr(50, 50, 4.0, 2);
  const SpmvPlan plan = build_csr_plan(small, Schedule::kStCont, 2);
  const auto x = random_vector(100, 3);
  std::vector<value_t> y(100);
  EXPECT_THROW(spmv_csr(big, x, y, Schedule::kStCont, plan),
               std::invalid_argument);
}

}  // namespace
}  // namespace wise
