// Tests for plan-time kernel specialization (src/spmv/plan.hpp):
// classifier pins on hand-built row-length distributions, specialized-plan
// structure invariants, the WISE_PLAN_SPECIALIZE switch, and bit-identity
// between specialized and generic plan execution across the variant matrix
// (uniform, dense-row, skewed, empty blocks) at OMP_NUM_THREADS in
// {1, 2, 8} for both kernel families.

#include <gtest/gtest.h>

#include <omp.h>

#include <cstdlib>
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

/// Prefix sum over a list of item lengths (a synthetic row_ptr).
std::vector<nnz_t> offsets_from_lens(const std::vector<nnz_t>& lens) {
  std::vector<nnz_t> off(lens.size() + 1, 0);
  std::partial_sum(lens.begin(), lens.end(), off.begin() + 1);
  return off;
}

KernelVariant classify_lens(const std::vector<nnz_t>& lens) {
  const auto off = offsets_from_lens(lens);
  return classify_block(off, 0, static_cast<index_t>(lens.size()));
}

// ------------------------------------------------------- classifier ----

TEST(VariantClassifier, PinsHandBuiltDistributions) {
  // All-tiny (incl. all-empty) blocks take the scalar merge path.
  EXPECT_EQ(classify_lens({0, 0, 0, 0}), KernelVariant::kMerge);
  EXPECT_EQ(classify_lens({1, 2, 1, 0}), KernelVariant::kMerge);
  // Tiny beats uniform: rule order matters and is part of the contract.
  EXPECT_EQ(classify_lens({2, 2, 2}), KernelVariant::kMerge);
  // Same length everywhere (3+): hoisted-trip-count unrolled loop.
  EXPECT_EQ(classify_lens({17, 17, 17, 17}), KernelVariant::kUniform);
  // Uniform beats wide even for long rows.
  EXPECT_EQ(classify_lens({70, 70}), KernelVariant::kUniform);
  // Long mixed rows: mean >= kWideMeanLen picks the wide interleave.
  EXPECT_EQ(classify_lens({100, 80, 120, 90}), KernelVariant::kWide);
  // Skew: a hub row among tiny rows, mean below the wide bar.
  EXPECT_EQ(classify_lens({1, 1, 1, 1, 1, 1, 1, 40}), KernelVariant::kMerge);
  // Merge beats wide: a tiny tail dominates even when a hub pulls the
  // mean past the wide bar.
  EXPECT_EQ(classify_lens({500, 1, 1, 1}), KernelVariant::kMerge);
  // Moderate non-uniform rows with no tiny tail stay generic.
  EXPECT_EQ(classify_lens({10, 20, 30}), KernelVariant::kGeneric);
  // Degenerate empty range.
  const auto off = offsets_from_lens({5, 5});
  EXPECT_EQ(classify_block(off, 1, 1), KernelVariant::kGeneric);
}

TEST(VariantClassifier, ThresholdBoundaries) {
  // Exactly at the wide mean -> wide; just below -> generic.
  const auto wide_mean = static_cast<nnz_t>(kWideMeanLen);
  EXPECT_EQ(classify_lens({wide_mean, wide_mean + 10, wide_mean - 10}),
            KernelVariant::kWide);
  EXPECT_EQ(classify_lens({wide_mean - 2, wide_mean - 10, wide_mean + 2}),
            KernelVariant::kGeneric);
  // Tiny fraction exactly at kMergeTinyFrac (1/10 >= 0.1) -> merge.
  EXPECT_EQ(classify_lens({1, 10, 10, 10, 10, 10, 10, 10, 10, 10}),
            KernelVariant::kMerge);
  // 1/11 < 0.1 -> generic.
  EXPECT_EQ(classify_lens({1, 10, 10, 10, 10, 10, 10, 10, 10, 10, 11}),
            KernelVariant::kGeneric);
}

// --------------------------------------------- specialized plan shape ----

TEST(SpecializedPlan, SubdividesAndRecordsVariants) {
  const CsrMatrix m = CsrMatrix::from_coo(
      generate_rmat(rmat_class_params(RmatClass::kHighSkew, 2048, 8.0), 7));
  const SpmvPlan generic = build_balanced_plan(m.row_ptr(), 4);
  const SpmvPlan spec = build_specialized_plan(m.row_ptr(), 4);
  EXPECT_TRUE(spec.covers(m.nrows()));
  EXPECT_TRUE(spec.specialized());
  EXPECT_FALSE(generic.specialized());
  EXPECT_GT(spec.num_blocks(), generic.num_blocks())
      << "specialization subdivides the balanced partition";
  ASSERT_EQ(spec.variants.size(),
            static_cast<std::size_t>(spec.num_blocks()));

  const auto hist = spec.variant_histogram();
  std::uint32_t total = 0;
  for (const auto count : hist) total += count;
  EXPECT_EQ(total, static_cast<std::uint32_t>(spec.num_blocks()));
  // A high-skew RMAT matrix is dominated by tiny rows: the merge variant
  // must fire (this is the whole point of the menu).
  EXPECT_GT(hist[static_cast<std::size_t>(KernelVariant::kMerge)], 0u);

  // An unspecialized plan reports all blocks generic.
  const auto ghist = generic.variant_histogram();
  EXPECT_EQ(ghist[static_cast<std::size_t>(KernelVariant::kGeneric)],
            static_cast<std::uint32_t>(generic.num_blocks()));

  // The variant table is charged into plan memory (serve::PreparedCache
  // budgets depend on this).
  EXPECT_GE(spec.memory_bytes(),
            spec.bounds.capacity() * sizeof(index_t) + spec.variants.size());
}

TEST(SpecializedPlan, UniformBandedClassifiesUniform) {
  // density=1.0 banded: interior rows all have exactly 2*hb+1 nonzeros.
  const CsrMatrix m =
      CsrMatrix::from_coo(generate_banded(512, 8, 1.0, 3));
  const SpmvPlan spec = build_specialized_plan(m.row_ptr(), 2);
  EXPECT_TRUE(spec.covers(m.nrows()));
  const auto hist = spec.variant_histogram();
  EXPECT_GT(hist[static_cast<std::size_t>(KernelVariant::kUniform)], 0u);
}

TEST(SpecializedPlan, CoversDegenerateInputs) {
  // Empty matrix and all-empty-rows matrix still produce covering plans.
  const CsrMatrix empty = CsrMatrix::from_coo(CooMatrix(0, 0));
  EXPECT_TRUE(build_specialized_plan(empty.row_ptr(), 8).covers(0));
  const CsrMatrix hollow = CsrMatrix::from_coo(CooMatrix(64, 64));
  const SpmvPlan plan = build_specialized_plan(hollow.row_ptr(), 8);
  EXPECT_TRUE(plan.covers(64));
}

TEST(SpecializedPlan, EnvSwitchControlsDefaultBuilders) {
  const CsrMatrix m = random_csr(256, 256, 6.0, 11);
  ASSERT_EQ(::unsetenv("WISE_PLAN_SPECIALIZE"), 0);
  EXPECT_TRUE(plan_specialization_enabled()) << "default is on";
  EXPECT_TRUE(build_csr_plan(m, Schedule::kStCont, 4).specialized());
  ASSERT_EQ(::setenv("WISE_PLAN_SPECIALIZE", "0", 1), 0);
  EXPECT_FALSE(plan_specialization_enabled());
  EXPECT_FALSE(build_csr_plan(m, Schedule::kStCont, 4).specialized());
  ASSERT_EQ(::unsetenv("WISE_PLAN_SPECIALIZE"), 0);
}

TEST(SpecializedPlan, CoversRejectsMismatchedVariantTable) {
  SpmvPlan plan = build_specialized_plan(
      random_csr(128, 128, 4.0, 13).row_ptr(), 4);
  ASSERT_TRUE(plan.covers(128));
  plan.variants.push_back(0);  // one entry too many
  EXPECT_FALSE(plan.covers(128));
}

// ---------------------------------- bit-identity across variant matrix ----

/// The variant matrix: each fixture is built to steer the classifier into
/// a different specialized loop (plus mixtures). Specialized and generic
/// plan execution must be bit-identical to the single-block generic plan
/// run on one thread, at every thread count and schedule.
std::vector<std::pair<const char*, CsrMatrix>> variant_fixtures() {
  std::vector<std::pair<const char*, CsrMatrix>> fixtures;
  // Uniform short rows (banded, full density).
  fixtures.emplace_back(
      "uniform", CsrMatrix::from_coo(generate_banded(512, 8, 1.0, 3)));
  // Long dense rows: every row holds ~200 of 512 columns.
  fixtures.emplace_back("dense-row", random_csr(96, 512, 200.0, 5));
  // Pathological skew (hub rows + a tail of empties/singletons).
  fixtures.emplace_back(
      "skewed", CsrMatrix::from_coo(generate_rmat(
                    rmat_class_params(RmatClass::kHighSkew, 2048, 8.0), 9)));
  // Empty blocks: sparse diagonal with long runs of empty rows.
  {
    CooMatrix coo(512, 512);
    for (index_t i = 0; i < 512; i += 64) {
      coo.add(i, i, static_cast<value_t>(i + 1));
      coo.add(i, (i + 7) % 512, 2.0);
      coo.add(i, (i + 13) % 512, 3.0);
      coo.add(i, (i + 21) % 512, 4.0);
    }
    fixtures.emplace_back("empty-blocks", CsrMatrix::from_coo(coo));
  }
  return fixtures;
}

TEST(SpecializeBitIdentity, CsrAcrossVariantMatrixAndThreadCounts) {
  const int ambient = omp_get_max_threads();
  for (const auto& [label, m] : variant_fixtures()) {
    const auto x = random_vector(static_cast<std::size_t>(m.ncols()), 17);
    std::vector<value_t> y_ref(static_cast<std::size_t>(m.nrows()));
    std::vector<value_t> y_generic(y_ref.size(), -1.0);
    std::vector<value_t> y_spec(y_ref.size(), -2.0);
    spmv_reference(m, x, y_ref);
    const auto y_serial = testing::spmv_csr_one_block(m, x);
    testing::expect_vectors_near(y_ref, y_serial);
    for (const Schedule sched :
         {Schedule::kDyn, Schedule::kSt, Schedule::kStCont}) {
      for (const int threads : {1, 2, 8}) {
        omp_set_num_threads(threads);
        const SpmvPlan generic =
            build_csr_plan(m, sched, threads, /*specialize=*/false);
        const SpmvPlan spec =
            build_csr_plan(m, sched, threads, /*specialize=*/true);
        spmv_csr(m, x, y_generic, sched, generic);
        spmv_csr(m, x, y_spec, sched, spec);
        EXPECT_EQ(y_serial, y_generic)
            << label << " generic plan, " << schedule_name(sched) << " @ "
            << threads << " threads";
        EXPECT_EQ(y_serial, y_spec)
            << label << " specialized plan, " << schedule_name(sched)
            << " @ " << threads << " threads";
      }
    }
  }
  omp_set_num_threads(ambient);
}

TEST(SpecializeBitIdentity, SrvPackAcrossThreadCounts) {
  const int ambient = omp_get_max_threads();
  const CsrMatrix m = CsrMatrix::from_coo(
      generate_rmat(rmat_class_params(RmatClass::kHighSkew, 1024, 8.0), 21));
  const auto x = random_vector(static_cast<std::size_t>(m.ncols()), 23);
  // Cover both compile-time lane widths and the runtime-width fallback.
  const std::vector<SrvBuildOptions> options = {
      {.c = 4, .sigma = 64},
      {.c = 8, .sigma = kSigmaAll, .cfs = true, .segment_fractions = {0.8}},
      {.c = 16, .sigma = 128}};
  std::vector<value_t> y_ref(static_cast<std::size_t>(m.nrows()));
  spmv_reference(m, x, y_ref);
  for (const auto& opt : options) {
    const SrvPackMatrix p = SrvPackMatrix::build(m, opt);
    std::vector<value_t> y_generic(y_ref.size(), -1.0);
    std::vector<value_t> y_spec(y_ref.size(), -2.0);
    SrvWorkspace ws_generic, ws_spec;
    const auto y_serial = testing::spmv_srvpack_one_block(p, x);
    testing::expect_vectors_near(y_ref, y_serial);
    for (const Schedule sched : {Schedule::kDyn, Schedule::kStCont}) {
      for (const int threads : {1, 2, 8}) {
        omp_set_num_threads(threads);
        const SrvPlan generic =
            build_srv_plan(p, sched, threads, /*specialize=*/false);
        const SrvPlan spec =
            build_srv_plan(p, sched, threads, /*specialize=*/true);
        spmv_srvpack(p, x, y_generic, sched, ws_generic, generic);
        spmv_srvpack(p, x, y_spec, sched, ws_spec, spec);
        EXPECT_EQ(y_serial, y_generic)
            << "c=" << opt.c << " generic plan, " << schedule_name(sched)
            << " @ " << threads << " threads";
        EXPECT_EQ(y_serial, y_spec)
            << "c=" << opt.c << " specialized plan, " << schedule_name(sched)
            << " @ " << threads << " threads";
      }
    }
  }
  omp_set_num_threads(ambient);
}

/// Signed-zero edge case: a negative value times an exactly-zero x entry
/// produces -0.0; the generic loop's `acc = 0; acc += ...` chain turns it
/// into +0.0, and the scalar fast paths must do exactly the same.
TEST(SpecializeBitIdentity, SignedZeroRowsMatchGenericBits) {
  CooMatrix coo(8, 8);
  coo.add(0, 0, -1.0);  // len-1 row, product -0.0
  coo.add(1, 1, -2.0);  // len-2 row, both products -0.0
  coo.add(1, 2, -3.0);
  coo.add(4, 3, -4.0);  // len-1 row against nonzero x
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  std::vector<value_t> x(8, 0.0);
  x[3] = 5.0;
  std::vector<value_t> y_spec(8, -1.0);
  const SpmvPlan spec = build_specialized_plan(m.row_ptr(), 1);
  ASSERT_TRUE(spec.specialized());
  const auto y_generic = testing::spmv_csr_one_block(m, x);
  spmv_csr(m, x, y_spec, Schedule::kStCont, spec);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(std::signbit(y_generic[i]), std::signbit(y_spec[i]))
        << "row " << i;
    EXPECT_EQ(y_generic[i], y_spec[i]) << "row " << i;
  }
}

// --------------------------------------------------- executor wiring ----

TEST(SpecializeExecutor, PreparedMatrixCarriesVariantTable) {
  const CsrMatrix m = CsrMatrix::from_coo(
      generate_rmat(rmat_class_params(RmatClass::kHighSkew, 1024, 8.0), 31));
  PreparedMatrix csr = PreparedMatrix::prepare(
      m, {.kind = MethodKind::kCsr, .sched = Schedule::kStCont});
  ASSERT_GT(csr.plan_bytes(), 0u);

  const auto x = random_vector(static_cast<std::size_t>(m.ncols()), 33);
  const auto y_generic = testing::spmv_csr_one_block(m, x);
  std::vector<value_t> y(y_generic.size(), -1.0);
  csr.run(x, y);
  EXPECT_EQ(y_generic, y) << "prepared specialized run is bit-identical";

  PreparedMatrix packed = PreparedMatrix::prepare(
      m, {.kind = MethodKind::kSellpack, .sched = Schedule::kDyn, .c = 4});
  ASSERT_GT(packed.plan_bytes(), 0u);
  std::vector<value_t> y_ref(y_generic.size());
  spmv_reference(m, x, y_ref);
  packed.run(x, y);
  testing::expect_vectors_near(y_ref, y);
}

}  // namespace
}  // namespace wise
