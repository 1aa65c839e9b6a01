// Correctness tests for every SpMV kernel against the serial reference,
// parameterized over the full 35-configuration method space (the paper's
// 29 plus the BSR/ELL/HYB/DIA extensions) and several matrix shapes.

#include <gtest/gtest.h>

#include <omp.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>

#include "spmv/applicability.hpp"
#include "spmv/bsr.hpp"
#include "spmv/csr_kernels.hpp"
#include "spmv/executor.hpp"
#include "spmv/method.hpp"
#include "spmv/srvpack_kernels.hpp"
#include "test_util.hpp"

namespace wise {
namespace {

using testing::expect_vectors_near;
using testing::random_csr;
using testing::random_vector;
using testing::run_srvpack_plan;

// -------------------------------------------------------- CSR kernels ----

class CsrScheduleTest : public ::testing::TestWithParam<Schedule> {};

/// y = A*x through the schedule's plan at the ambient thread count.
void run_csr_plan(const CsrMatrix& m, std::span<const value_t> x,
                  std::span<value_t> y, Schedule sched) {
  spmv_csr(m, x, y, sched,
           build_csr_plan(m, sched, omp_get_max_threads()));
}

TEST_P(CsrScheduleTest, MatchesReferenceOnRandomMatrices) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const CsrMatrix m = random_csr(200, 150, 6.0, seed);
    const auto x = random_vector(150, seed + 100);
    std::vector<value_t> y_ref(200), y(200, -1.0);
    spmv_reference(m, x, y_ref);
    const auto y_generic = testing::spmv_csr_one_block(m, x);
    run_csr_plan(m, x, y, GetParam());
    expect_vectors_near(y_ref, y);
    EXPECT_EQ(y_generic, y) << "the plan's shape must not change the bits";
  }
}

TEST_P(CsrScheduleTest, WritesZerosForEmptyRows) {
  CooMatrix coo(6, 6);
  coo.add(2, 3, 5.0);
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  const auto x = random_vector(6, 1);
  std::vector<value_t> y(6, -99.0);
  run_csr_plan(m, x, y, GetParam());
  for (index_t i = 0; i < 6; ++i) {
    if (i != 2) {
      EXPECT_EQ(y[static_cast<std::size_t>(i)], 0.0);
    }
  }
}

TEST_P(CsrScheduleTest, RejectsDimensionMismatch) {
  const CsrMatrix m = random_csr(4, 5, 2.0, 1);
  std::vector<value_t> x(5), y_small(3);
  EXPECT_THROW(run_csr_plan(m, x, y_small, GetParam()),
               std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(AllSchedules, CsrScheduleTest,
                         ::testing::Values(Schedule::kDyn, Schedule::kSt,
                                           Schedule::kStCont),
                         [](const auto& info) {
                           return schedule_name(info.param);
                         });

TEST(MklLike, MatchesReference) {
  for (std::uint64_t seed : {4u, 5u}) {
    const CsrMatrix m = random_csr(300, 300, 8.0, seed);
    const auto x = random_vector(300, seed);
    std::vector<value_t> y_ref(300), y(300, -1.0);
    spmv_reference(m, x, y_ref);
    spmv_csr_mkl_like(m, x, y);
    expect_vectors_near(y_ref, y);
  }
}

TEST(MklLike, CoversLeadingAndTrailingEmptyRows) {
  CooMatrix coo(10, 10);
  coo.add(4, 4, 2.0);  // rows 0-3 and 5-9 empty
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  const auto x = random_vector(10, 2);
  std::vector<value_t> y(10, -7.0);
  spmv_csr_mkl_like(m, x, y);
  for (index_t i = 0; i < 10; ++i) {
    if (i != 4) {
      EXPECT_EQ(y[static_cast<std::size_t>(i)], 0.0) << "row " << i;
    }
  }
  EXPECT_NEAR(y[4], 2.0 * x[4], 1e-12);
}

TEST(MklLike, HandlesHighlySkewedRowLengths) {
  // One giant row plus many tiny ones exercises the nnz-balanced split.
  CooMatrix coo(100, 100);
  for (index_t j = 0; j < 100; ++j) coo.add(0, j, 1.0);
  for (index_t i = 1; i < 100; ++i) coo.add(i, i, 1.0);
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  const auto x = random_vector(100, 3);
  std::vector<value_t> y_ref(100), y(100);
  spmv_reference(m, x, y_ref);
  spmv_csr_mkl_like(m, x, y);
  expect_vectors_near(y_ref, y);
}

// ------------------------------------------------- full method space ----

struct ConfigCase {
  MethodConfig cfg;
  std::string name;
};

std::vector<ConfigCase> all_cases() {
  std::vector<ConfigCase> cases;
  for (const auto& cfg : extended_method_configs()) {
    std::string name = cfg.name();
    for (char& ch : name) {
      if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
    }
    cases.push_back({cfg, std::move(name)});
  }
  return cases;
}

/// `m` when `cfg` can be prepared for it, else a banded matrix every
/// configuration accepts (DIA rejects scattered structure).
const CsrMatrix& applicable_or_banded(const MethodConfig& cfg,
                                      const CsrMatrix& m) {
  static const CsrMatrix banded =
      CsrMatrix::from_coo(generate_banded(257, 5, 0.9, 14));
  return config_applicable(cfg, m) ? m : banded;
}

/// Layouts whose rows accumulate in column order, so they equal the serial
/// reference bit for bit. CSR reduces with `omp simd`, CFS permutes each
/// row's columns and BSR adds block padding: those match to rounding.
bool equals_reference_exactly(MethodKind kind) {
  switch (kind) {
    case MethodKind::kSellpack:
    case MethodKind::kSellCSigma:
    case MethodKind::kSellCR:
    case MethodKind::kEll:
    case MethodKind::kHyb:
    case MethodKind::kDia:
      return true;
    default:
      return false;
  }
}

class MethodSpaceTest : public ::testing::TestWithParam<ConfigCase> {};

TEST_P(MethodSpaceTest, PreparedRunMatchesReference) {
  const auto& cfg = GetParam().cfg;
  for (std::uint64_t seed : {10u, 20u}) {
    const CsrMatrix scattered =
        random_csr(257, 193, 7.0, seed);  // odd, non-square
    const CsrMatrix& m = applicable_or_banded(cfg, scattered);
    const auto x = random_vector(static_cast<std::size_t>(m.ncols()), seed + 1);
    std::vector<value_t> y_ref(static_cast<std::size_t>(m.nrows()));
    std::vector<value_t> y(y_ref.size(), -1.0);
    spmv_reference(m, x, y_ref);
    PreparedMatrix pm = PreparedMatrix::prepare(m, cfg);
    pm.run(x, y);
    expect_vectors_near(y_ref, y);
    if (equals_reference_exactly(cfg.kind)) {
      EXPECT_EQ(y_ref, y);
    }
  }
}

TEST_P(MethodSpaceTest, SecondRunIsIdentical) {
  // Workspace reuse across iterations must not corrupt results.
  const auto& cfg = GetParam().cfg;
  const CsrMatrix scattered = random_csr(100, 100, 5.0, 42);
  const CsrMatrix& m = applicable_or_banded(cfg, scattered);
  const auto x = random_vector(static_cast<std::size_t>(m.ncols()), 43);
  std::vector<value_t> y1(static_cast<std::size_t>(m.nrows())), y2(y1.size());
  PreparedMatrix pm = PreparedMatrix::prepare(m, cfg);
  pm.run(x, y1);
  pm.run(x, y2);
  EXPECT_EQ(y1, y2);
}

TEST_P(MethodSpaceTest, HandlesSkewedPowerLawMatrix) {
  const auto& cfg = GetParam().cfg;
  const RmatParams params{.n = 256, .avg_degree = 8.0};
  const CsrMatrix skewed = CsrMatrix::from_coo(generate_rmat(params, 7));
  const CsrMatrix& m = applicable_or_banded(cfg, skewed);
  const auto x = random_vector(static_cast<std::size_t>(m.ncols()), 8);
  std::vector<value_t> y_ref(static_cast<std::size_t>(m.nrows()));
  std::vector<value_t> y(y_ref.size());
  spmv_reference(m, x, y_ref);
  PreparedMatrix pm = PreparedMatrix::prepare(m, cfg);
  pm.run(x, y);
  expect_vectors_near(y_ref, y);
  if (equals_reference_exactly(cfg.kind)) {
    EXPECT_EQ(y_ref, y);
  }
}

/// Prepared and run at the ambient thread count (so the plan's block count
/// follows it), every configuration reproduces its own 1-thread result bit
/// for bit, on a skewed and a banded matrix. The test only ever narrows the
/// OpenMP team; ctest reruns the binary at OMP_NUM_THREADS 1, 2 and 8 to
/// cover the wider teams.
TEST_P(MethodSpaceTest, BitIdenticalAcrossThreadCounts) {
  const auto& cfg = GetParam().cfg;
  const int ambient = omp_get_max_threads();
  const CsrMatrix skewed = CsrMatrix::from_coo(generate_rmat(
      rmat_class_params(RmatClass::kHighSkew, 1024, 8.0), 61));
  const CsrMatrix banded =
      CsrMatrix::from_coo(generate_banded(515, 7, 0.8, 62));
  for (const CsrMatrix* m : {&skewed, &banded}) {
    if (!config_applicable(cfg, *m)) continue;
    const auto x = random_vector(static_cast<std::size_t>(m->ncols()), 63);
    std::vector<value_t> y(static_cast<std::size_t>(m->nrows()), -1.0);
    std::vector<value_t> y_serial(y.size());
    PreparedMatrix::prepare(*m, cfg).run(x, y);
    omp_set_num_threads(1);
    PreparedMatrix::prepare(*m, cfg).run(x, y_serial);
    omp_set_num_threads(ambient);
    EXPECT_EQ(y_serial, y) << "@ " << ambient << " threads";
  }
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, MethodSpaceTest,
                         ::testing::ValuesIn(all_cases()),
                         [](const auto& info) { return info.param.name; });

// --------------------------------------------------- SRVPack kernels ----

TEST(SrvPackKernel, GenericWidthFallbackWorks) {
  // c=3 is not an instantiated SIMD width; exercises run_chunks_generic.
  const CsrMatrix m = random_csr(50, 50, 4.0, 9);
  const SrvPackMatrix p = SrvPackMatrix::build(m, {.c = 3, .sigma = 8});
  const auto x = random_vector(50, 10);
  std::vector<value_t> y_ref(50), y(50);
  spmv_reference(m, x, y_ref);
  run_srvpack_plan(p, x, y, Schedule::kDyn);
  expect_vectors_near(y_ref, y);
}

TEST(SrvPackKernel, RejectsDimensionMismatch) {
  const CsrMatrix m = random_csr(10, 10, 2.0, 1);
  const SrvPackMatrix p = SrvPackMatrix::build(m, {.c = 4});
  std::vector<value_t> x(10), y(5);
  SrvWorkspace ws;
  EXPECT_THROW(spmv_srvpack(p, x, y, Schedule::kDyn, ws,
                            build_srv_plan(p, Schedule::kDyn, 2)),
               std::invalid_argument);
}

TEST(SrvPackKernel, RejectsPlanWithWrongSegmentCount) {
  const CsrMatrix m = random_csr(40, 40, 4.0, 3);
  const SrvPackMatrix one = SrvPackMatrix::build(m, {.c = 4});
  const SrvPackMatrix two = SrvPackMatrix::build(
      m, {.c = 4, .sigma = kSigmaAll, .cfs = true, .segment_fractions = {0.7}});
  ASSERT_NE(one.segments().size(), two.segments().size());
  const auto x = random_vector(40, 4);
  std::vector<value_t> y(40);
  SrvWorkspace ws;
  EXPECT_THROW(spmv_srvpack(two, x, y, Schedule::kStCont, ws,
                            build_srv_plan(one, Schedule::kStCont, 2)),
               std::invalid_argument);
}

TEST(SrvPackKernel, EmptyMatrixProducesZeroVector) {
  const CsrMatrix m = CsrMatrix::from_coo(CooMatrix(5, 5));
  const SrvPackMatrix p = SrvPackMatrix::build(m, {.c = 4});
  const auto x = random_vector(5, 2);
  std::vector<value_t> y(5, 1.0);
  run_srvpack_plan(p, x, y, Schedule::kStCont);
  for (value_t v : y) EXPECT_EQ(v, 0.0);
}

TEST(SrvPackKernel, SingleColumnMatrix) {
  CooMatrix coo(8, 1);
  for (index_t i = 0; i < 8; ++i) coo.add(i, 0, static_cast<value_t>(i + 1));
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  const SrvPackMatrix p =
      SrvPackMatrix::build(m, {.c = 4, .sigma = kSigmaAll, .cfs = true});
  const std::vector<value_t> x = {2.0};
  std::vector<value_t> y(8);
  run_srvpack_plan(p, x, y, Schedule::kDyn);
  for (index_t i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(y[static_cast<std::size_t>(i)], 2.0 * (i + 1));
  }
}

/// 40x40 with interior empty rows (5, 6, 17) and trailing ones (34..39),
/// which RFS drops from a segment's row order; row lengths 1..5.
CsrMatrix matrix_with_empty_rows() {
  CooMatrix coo(40, 40);
  for (index_t i = 0; i < 34; ++i) {
    if (i == 5 || i == 6 || i == 17) continue;
    for (index_t t = 0; t <= i % 5; ++t) {
      coo.add(i, (i + 3 * t) % 40, static_cast<value_t>(1 + i + 2 * t));
    }
  }
  coo.canonicalize();
  return CsrMatrix::from_coo(coo);
}

/// 64x64 in which rows 0..47 touch only four hot columns and rows 48..63
/// only a rare column each, so LAV puts rows 48..63 in its sparse segment
/// alone and leaves them out of the dense segment's row order.
CsrMatrix matrix_with_sparse_segment_rows() {
  CooMatrix coo(64, 64);
  for (index_t i = 0; i < 48; ++i) {
    for (index_t col = 0; col < 4; ++col) {
      coo.add(i, col, static_cast<value_t>(1 + (i + col) % 7));
    }
  }
  for (index_t i = 48; i < 64; ++i) coo.add(i, i, 0.5 * i);
  coo.canonicalize();
  return CsrMatrix::from_coo(coo);
}

/// Every SRVPack configuration in the registry (c = 4 and 8), and the
/// runtime-width path at c = 3 in its natural, RFS and segmented CFS forms.
std::vector<std::pair<SrvBuildOptions, Schedule>> srvpack_layouts() {
  std::vector<std::pair<SrvBuildOptions, Schedule>> layouts;
  for (const auto& cfg : all_method_configs()) {
    if (cfg.kind == MethodKind::kCsr) continue;
    layouts.emplace_back(cfg.srv_options(), cfg.sched);
  }
  for (Schedule sched : {Schedule::kStCont, Schedule::kDyn}) {
    layouts.push_back({{.c = 3, .sigma = 1}, sched});
    layouts.push_back({{.c = 3, .sigma = kSigmaAll}, sched});
    layouts.push_back({{.c = 3, .sigma = kSigmaAll, .cfs = true,
                        .segment_fractions = {0.7}},
                       sched});
  }
  return layouts;
}

/// Whatever y holds before the call, the SRVPack kernel overwrites every
/// row: a run into a y filled with NaN or 1e300 equals, bit for bit, a run
/// into a zeroed y. Covers srvpack_layouts(), on layouts whose first
/// segment covers every row (the kernel stores) and on layouts that leave
/// rows out of it (the kernel zeroes y and adds).
TEST(SrvPackKernel, OverwritesEveryRowOfY) {
  const auto layouts = srvpack_layouts();
  const std::vector<std::pair<const char*, CsrMatrix>> fixtures = {
      {"empty rows", matrix_with_empty_rows()},
      {"all empty", CsrMatrix::from_coo(CooMatrix(9, 7))},
      {"no rows", CsrMatrix::from_coo(CooMatrix(0, 5))},
      {"sparse-segment rows", matrix_with_sparse_segment_rows()},
  };
  const value_t fills[] = {std::numeric_limits<value_t>::quiet_NaN(), 1e300};

  int rows_left_out = 0;  // layouts whose first segment misses a row
  for (const auto& [name, m] : fixtures) {
    const auto x = random_vector(static_cast<std::size_t>(m.ncols()), 17);
    std::vector<value_t> y_ref(static_cast<std::size_t>(m.nrows()));
    spmv_reference(m, x, y_ref);
    for (const auto& [opts, sched] : layouts) {
      const SrvPackMatrix p = SrvPackMatrix::build(m, opts);
      SCOPED_TRACE(::testing::Message()
                   << name << ", c " << opts.c << ", sigma " << opts.sigma
                   << ", segments " << p.segments().size() << ", "
                   << schedule_name(sched));
      if (!p.segments().empty() &&
          p.segments().front().num_rows() < m.nrows()) {
        ++rows_left_out;
      }
      const SrvPlan plan = build_srv_plan(p, sched, omp_get_max_threads());
      SrvWorkspace ws;
      std::vector<value_t> y_zero(y_ref.size(), 0.0);
      spmv_srvpack(p, x, y_zero, sched, ws, plan);
      expect_vectors_near(y_ref, y_zero);
      for (value_t fill : fills) {
        std::vector<value_t> y(y_ref.size(), fill);
        spmv_srvpack(p, x, y, sched, ws, plan);
        EXPECT_TRUE(std::equal(y.begin(), y.end(), y_zero.begin(),
                               [](value_t a, value_t b) {
                                 return std::bit_cast<std::uint64_t>(a) ==
                                        std::bit_cast<std::uint64_t>(b);
                               }))
            << "y pre-filled with " << fill;
      }
    }
  }
  // The fixtures must reach the zero-and-add path, not only the store one.
  EXPECT_GT(rows_left_out, 0);
}

bool same_bits(value_t a, value_t b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// y against spmv_reference's y_ref, where x may hold Inf or NaN: a NaN
/// row must be NaN and an infinite row the same infinity. A finite row
/// must match bit for bit when `exact`, else to rounding.
void expect_matches_reference(std::span<const value_t> y_ref,
                              std::span<const value_t> y, bool exact) {
  ASSERT_EQ(y_ref.size(), y.size());
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (std::isnan(y_ref[i])) {
      EXPECT_TRUE(std::isnan(y[i])) << "row " << i << ": " << y[i];
    } else if (exact || std::isinf(y_ref[i])) {
      EXPECT_TRUE(same_bits(y_ref[i], y[i]))
          << "row " << i << ": " << y_ref[i] << " vs " << y[i];
    } else {
      EXPECT_NEAR(y_ref[i], y[i], 1e-9 * std::max(1.0, std::abs(y_ref[i])))
          << "row " << i;
    }
  }
}

/// y = A*x through an SRVPack plan built for each of 1, 2 and 8 threads
/// (ctest reruns the binary at OMP_NUM_THREADS 1, 2 and 8 for the team
/// width), each checked against spmv_reference. Every plan must also give
/// the 1-thread plan's bits.
void expect_srvpack_matches_reference(const CsrMatrix& m,
                                      const SrvPackMatrix& p,
                                      std::span<const value_t> x,
                                      Schedule sched, bool exact) {
  std::vector<value_t> y_ref(static_cast<std::size_t>(m.nrows()));
  spmv_reference(m, x, y_ref);
  std::vector<value_t> y_first;
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE(::testing::Message() << "plan for " << threads << " threads");
    std::vector<value_t> y(y_ref.size(), -1.0);
    SrvWorkspace ws;
    spmv_srvpack(p, x, y, sched, ws, build_srv_plan(p, sched, threads));
    expect_matches_reference(y_ref, y, exact);
    if (y_first.empty()) {
      y_first = y;
    } else {
      EXPECT_TRUE(std::equal(y.begin(), y.end(), y_first.begin(), same_bits));
    }
  }
}

/// 4x3: row 0 holds columns 0..2, rows 1..3 only column 2 (values 2, 3
/// and 4). Rows 1..3 pad with column 0, so with x = {Inf, 1, 1} they must
/// read 2, 3 and 4, not NaN.
CsrMatrix matrix_padded_onto_column_zero() {
  CooMatrix coo(4, 3);
  coo.add(0, 0, 1.0);
  coo.add(0, 1, 1.0);
  coo.add(0, 2, 1.0);
  for (index_t i = 1; i < 4; ++i) coo.add(i, 2, static_cast<value_t>(i + 1));
  return CsrMatrix::from_coo(coo);
}

/// Padding is (pad_col, 0.0), so a non-finite x at a segment's padding
/// column must not leak into the rows that only pad there: every layout of
/// srvpack_layouts() equals spmv_reference with +Inf, -Inf or NaN at each
/// segment's padding column in turn (the permuted column under CFS).
TEST(SrvPackKernel, PaddingNeverReadsNonFiniteX) {
  const auto layouts = srvpack_layouts();
  const std::vector<std::pair<const char*, CsrMatrix>> fixtures = {
      {"padded onto column 0", matrix_padded_onto_column_zero()},
      {"empty rows", matrix_with_empty_rows()},
      {"sparse-segment rows", matrix_with_sparse_segment_rows()},
      {"random", random_csr(97, 61, 5.0, 31)},
  };
  const value_t poisons[] = {std::numeric_limits<value_t>::infinity(),
                             -std::numeric_limits<value_t>::infinity(),
                             std::numeric_limits<value_t>::quiet_NaN()};
  int padded_segments = 0;  // segments that store padding at all
  for (const auto& [name, m] : fixtures) {
    for (const auto& [opts, sched] : layouts) {
      const SrvPackMatrix p = SrvPackMatrix::build(m, opts);
      for (std::size_t s = 0; s < p.segments().size(); ++s) {
        const SrvSegment& seg = p.segments()[s];
        if (seg.chunk_offset.back() == 0) continue;
        const index_t pad = seg.pad_col(p.ncols());
        const index_t col = p.has_cfs()
                                ? p.col_order()[static_cast<std::size_t>(pad)]
                                : pad;
        nnz_t seg_nnz = 0;
        for (value_t v : seg.vals) seg_nnz += v != value_t{0};
        padded_segments += seg.stored_entries(p.c()) > seg_nnz;
        for (value_t poison : poisons) {
          SCOPED_TRACE(::testing::Message()
                       << name << ", c " << opts.c << ", sigma "
                       << opts.sigma << ", cfs " << opts.cfs << ", segment "
                       << s << ", " << schedule_name(sched) << ", x[" << col
                       << "] = " << poison);
          auto x = random_vector(static_cast<std::size_t>(m.ncols()), 5);
          x[static_cast<std::size_t>(col)] = poison;
          expect_srvpack_matches_reference(m, p, x, sched, !opts.cfs);
        }
      }
    }
  }
  EXPECT_GT(padded_segments, 0);
}

/// Copies `coo` into a matrix with `extra_rows` more (empty) rows, empties
/// about a tenth of its rows, and fills one row densely, all drawn from
/// `rng`.
CsrMatrix with_edge_rows(const CooMatrix& coo, index_t extra_rows,
                         Xoshiro256& rng) {
  const index_t n = coo.nrows() + extra_rows;
  const index_t dense_row =
      static_cast<index_t>(rng.next_below(static_cast<std::uint64_t>(n)));
  std::vector<char> emptied(static_cast<std::size_t>(n), 0);
  for (auto& e : emptied) e = rng.next_below(10) == 0;
  emptied[static_cast<std::size_t>(dense_row)] = 1;
  CooMatrix out(n, coo.ncols());
  for (const Triplet& t : coo.entries()) {
    if (!emptied[static_cast<std::size_t>(t.row)]) out.add(t.row, t.col, t.val);
  }
  for (index_t col = 0; col < coo.ncols(); ++col) {
    out.add(dense_row, col, 0.25 + rng.next_double());
  }
  out.canonicalize();
  return CsrMatrix::from_coo(out);
}

/// Randomized differential test: seeded generator matrices (each with
/// empty rows, one dense row and a row count that is no multiple of 4 or
/// 8) and tiny matrices with fewer nonzeros than threads. Every SELLPACK,
/// Sell-c-σ and Sell-c-R configuration equals spmv_reference bit for bit,
/// and LAV-1Seg and LAV match it to rounding, under plans for 1, 2 and 8
/// threads.
TEST(SrvPackKernel, RandomizedMatchesReference) {
  std::vector<std::pair<std::string, CsrMatrix>> fixtures;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Xoshiro256 rng(seed);
    const auto n = static_cast<index_t>(64 + rng.next_below(400));
    CooMatrix coo;
    std::string name;
    switch (seed % 4) {
      case 0:
        coo = generate_rmat(rmat_class_params(RmatClass::kHighSkew, n, 6.0),
                            seed);
        name = "rmat-hs";
        break;
      case 1:
        coo = generate_rgg(n, 8.0, seed);
        name = "rgg";
        break;
      case 2:
        coo = generate_banded(n, 9, 0.6, seed);
        name = "banded";
        break;
      default:
        coo = generate_road_like(n, seed);
        name = "road";
        break;
    }
    // Extra empty rows keep the row count off every multiple of 4 (and 8).
    auto extra = static_cast<index_t>(1 + rng.next_below(3));
    while ((coo.nrows() + extra) % 4 == 0) ++extra;
    fixtures.emplace_back(name + "/" + std::to_string(seed),
                          with_edge_rows(coo, extra, rng));
  }
  {
    CooMatrix one(3, 3);  // 1 nonzero
    one.add(2, 1, 1.5);
    fixtures.emplace_back("1 nonzero", CsrMatrix::from_coo(one));
    CooMatrix five(13, 11);  // 5 nonzeros in 13 rows
    for (index_t t = 0; t < 5; ++t) five.add(3 * t, (7 * t) % 11, 0.5 + t);
    five.canonicalize();
    fixtures.emplace_back("5 nonzeros", CsrMatrix::from_coo(five));
  }

  const auto configs = all_method_configs();
  for (const auto& [name, m] : fixtures) {
    ASSERT_NE(m.nrows() % 4, 0) << name;
    const auto x = random_vector(static_cast<std::size_t>(m.ncols()), 77);
    for (const auto& cfg : configs) {
      if (cfg.kind == MethodKind::kCsr) continue;
      SCOPED_TRACE(::testing::Message() << name << ", " << cfg.name());
      const SrvPackMatrix p = SrvPackMatrix::build(m, cfg.srv_options());
      expect_srvpack_matches_reference(m, p, x, cfg.sched,
                                       equals_reference_exactly(cfg.kind));
    }
  }
}

// ------------------------------------------------------------ executor ----

TEST(Executor, CsrPrepareHasZeroPreprocessingTime) {
  const CsrMatrix m = random_csr(50, 50, 3.0, 1);
  PreparedMatrix pm = PreparedMatrix::prepare(
      m, {.kind = MethodKind::kCsr, .sched = Schedule::kDyn});
  EXPECT_EQ(pm.prep_seconds(), 0.0);
  EXPECT_EQ(pm.memory_bytes(), m.memory_bytes());
}

TEST(Executor, PackedPrepareMeasuresTime) {
  const CsrMatrix m = random_csr(500, 500, 8.0, 2);
  PreparedMatrix pm = PreparedMatrix::prepare(
      m, {.kind = MethodKind::kLav,
          .sched = Schedule::kDyn,
          .c = 8,
          .sigma = kSigmaAll,
          .T = 0.8});
  EXPECT_GT(pm.prep_seconds(), 0.0);
  EXPECT_GT(pm.memory_bytes(), 0u);
}

TEST(Executor, TimeSpmvReturnsPositiveSeconds) {
  const CsrMatrix m = random_csr(100, 100, 4.0, 3);
  const auto x = random_vector(100, 4);
  std::vector<value_t> y(100);
  PreparedMatrix pm = PreparedMatrix::prepare(
      m, {.kind = MethodKind::kCsr, .sched = Schedule::kStCont});
  EXPECT_GT(time_spmv(pm, x, y, 2, 2), 0.0);
}

}  // namespace
}  // namespace wise
