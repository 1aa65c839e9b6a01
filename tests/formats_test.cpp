// Tests for the ELL / HYB / DIA extension formats: conversion round-trips,
// rejection predicates, the bit-identity contract (every format must
// reproduce the serial CSR reference exactly — ctest reruns this binary at
// OMP_NUM_THREADS in {1, 2, 8}), and the selection-time applicability mask.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "gen/generators.hpp"
#include "sparse/dia.hpp"
#include "sparse/ell.hpp"
#include "sparse/hyb.hpp"
#include "spmv/applicability.hpp"
#include "spmv/bsr.hpp"
#include "spmv/executor.hpp"
#include "util/error.hpp"
#include "util/prng.hpp"
#include "wise/pipeline.hpp"
#include "wise/selector.hpp"
#include "test_util.hpp"

namespace wise {
namespace {

using testing::random_csr;
using testing::random_vector;

/// The bit-identity check: exact equality, not a tolerance. The format
/// kernels replay the serial per-row CSR accumulation order, so any
/// difference at all is a contract violation.
void expect_bit_identical(std::span<const value_t> expected,
                          std::span<const value_t> actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i], actual[i]) << "at element " << i;
  }
}

CsrMatrix banded_csr(index_t n, index_t half_bw, std::uint64_t seed,
                     double density = 1.0) {
  return CsrMatrix::from_coo(generate_banded(n, half_bw, density, seed));
}

// ------------------------------------------------------------------ ELL ----

TEST(Ell, RoundTripsThroughCoo) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const CsrMatrix m = random_csr(60, 45, 3.0, seed);
    if (!EllMatrix::accepts(m)) continue;
    const EllMatrix ell = EllMatrix::from_csr(m);
    ell.validate();
    EXPECT_EQ(CsrMatrix::from_coo(ell.to_coo()), m) << "seed=" << seed;
  }
}

TEST(Ell, RejectsPaddingBlowup) {
  // One hub row of 100 entries in an otherwise-diagonal matrix: padded
  // storage 100*100 = 10000 for 199 nonzeros, way past the 4x bound.
  CooMatrix coo(100, 100);
  for (index_t i = 0; i < 100; ++i) coo.add(i, i, 1.0);
  for (index_t j = 0; j < 100; ++j) {
    if (j != 0) coo.add(0, j, 2.0);
  }
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  EXPECT_FALSE(EllMatrix::accepts(m));
  EXPECT_THROW(EllMatrix::from_csr(m), std::invalid_argument);
}

TEST(Ell, AcceptsUniformRowsAndReportsFill) {
  const CsrMatrix m = banded_csr(64, 2, 4);
  ASSERT_TRUE(EllMatrix::accepts(m));
  const EllMatrix ell = EllMatrix::from_csr(m);
  EXPECT_EQ(ell.nnz(), m.nnz());
  EXPECT_GE(ell.slots(), 1);
  EXPECT_GE(ell.fill_ratio(), 0.0);
  EXPECT_EQ(ell.stored_entries(),
            static_cast<nnz_t>(ell.slots()) * 64);
}

TEST(Ell, HandlesEmptyMatrixAndEmptyRows) {
  const CsrMatrix empty = CsrMatrix::from_coo(CooMatrix(5, 5));
  ASSERT_TRUE(EllMatrix::accepts(empty));
  const EllMatrix ell = EllMatrix::from_csr(empty);
  ell.validate();
  EXPECT_EQ(ell.slots(), 0);

  CooMatrix coo(10, 10);
  coo.add(4, 4, 3.0);
  coo.add(9, 1, 2.0);
  coo.add(9, 7, 5.0);  // 5 nonzeros keep 20 padded slots within the 4x cap
  coo.add(2, 0, 1.0);
  coo.add(6, 6, 7.0);
  const EllMatrix sparse_ell =
      EllMatrix::from_csr(CsrMatrix::from_coo(coo));
  sparse_ell.validate();
  EXPECT_EQ(sparse_ell.row_len(0), 0);
  EXPECT_EQ(sparse_ell.row_len(4), 1);
  EXPECT_EQ(sparse_ell.row_len(9), 2);
}

// ------------------------------------------------------------------ HYB ----

TEST(Hyb, RoundTripsThroughCoo) {
  for (std::uint64_t seed : {4u, 5u}) {
    const CsrMatrix m = random_csr(80, 60, 5.0, seed);
    for (index_t cutoff : {0, 2, 8, 1000}) {
      const HybMatrix hyb = HybMatrix::from_csr(m, cutoff);
      hyb.validate();
      EXPECT_EQ(CsrMatrix::from_coo(hyb.to_coo()), m)
          << "cutoff=" << cutoff << " seed=" << seed;
    }
  }
}

TEST(Hyb, RejectsNegativeCutoff) {
  const CsrMatrix m = random_csr(8, 8, 2.0, 6);
  EXPECT_THROW(HybMatrix::from_csr(m, -1), std::invalid_argument);
}

TEST(Hyb, CutoffAboveMaxRowLengthIsAllEll) {
  const CsrMatrix m = random_csr(50, 50, 4.0, 7);
  const HybMatrix hyb = HybMatrix::from_csr(m, 1 << 20);
  hyb.validate();
  EXPECT_EQ(hyb.tail_nnz(), 0);
  EXPECT_EQ(hyb.ell_nnz(), m.nnz());
}

TEST(Hyb, CutoffZeroIsAllTail) {
  const CsrMatrix m = random_csr(50, 50, 4.0, 8);
  const HybMatrix hyb = HybMatrix::from_csr(m, 0);
  hyb.validate();
  EXPECT_EQ(hyb.ell_nnz(), 0);
  EXPECT_EQ(hyb.ell_slots(), 0);
  EXPECT_EQ(hyb.tail_nnz(), m.nnz());
}

TEST(Hyb, SplitRuleRowSpillsIffEllPartFull) {
  // Rows of length 1, 3 and 6 at cutoff 3: only the length-6 row spills.
  CooMatrix coo(4, 10);
  coo.add(0, 5, 1.0);
  for (index_t j = 0; j < 3; ++j) coo.add(1, j, 2.0);
  for (index_t j = 0; j < 6; ++j) coo.add(2, j, 3.0);
  const HybMatrix hyb = HybMatrix::from_csr(CsrMatrix::from_coo(coo), 3);
  hyb.validate();
  EXPECT_EQ(hyb.ell_len(0), 1);
  EXPECT_EQ(hyb.ell_len(1), 3);
  EXPECT_EQ(hyb.ell_len(2), 3);
  EXPECT_EQ(hyb.ell_len(3), 0);  // empty row
  const auto trp = hyb.tail_row_ptr();
  EXPECT_EQ(trp[1] - trp[0], 0);
  EXPECT_EQ(trp[2] - trp[1], 0);
  EXPECT_EQ(trp[3] - trp[2], 3);  // the 3 spilled entries of row 2
  EXPECT_EQ(trp[4] - trp[3], 0);
}

// ------------------------------------------------------------------ DIA ----

TEST(Dia, RoundTripsThroughCooOnBanded) {
  for (std::uint64_t seed : {9u, 10u}) {
    const CsrMatrix m = banded_csr(64, 3, seed, 0.8);
    ASSERT_TRUE(DiaMatrix::accepts(m)) << DiaMatrix::analyze(m).reason;
    const DiaMatrix dia = DiaMatrix::from_csr(m);
    dia.validate();
    EXPECT_EQ(CsrMatrix::from_coo(dia.to_coo()), m) << "seed=" << seed;
  }
}

TEST(Dia, RejectsScatteredMatrix) {
  // A random 400x400 matrix touches far more than 256 diagonals.
  const CsrMatrix m = random_csr(400, 400, 4.0, 11);
  const DiaAnalysis a = DiaMatrix::analyze(m);
  EXPECT_FALSE(a.accepted);
  EXPECT_STREQ(a.reason, "too many populated diagonals");
  EXPECT_THROW(DiaMatrix::from_csr(m), std::invalid_argument);
}

TEST(Dia, RejectsLowDiagonalFill) {
  // 8 diagonals touched once each on a 200-row matrix: fill 8/~1600.
  CooMatrix coo(200, 200);
  for (index_t d = 0; d < 8; ++d) coo.add(d, d * 20, 1.0);
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  const DiaAnalysis a = DiaMatrix::analyze(m);
  EXPECT_FALSE(a.accepted);
  EXPECT_STREQ(a.reason, "diagonal fill ratio below threshold");
}

TEST(Dia, RejectsExplicitStoredZeros) {
  CooMatrix coo(10, 10);
  for (index_t i = 0; i < 10; ++i) coo.add(i, i, 1.0);
  coo.add(3, 4, 0.0);  // explicit zero, indistinguishable from fill
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  EXPECT_FALSE(DiaMatrix::accepts(m));
  EXPECT_THROW(DiaMatrix::from_csr(m), std::invalid_argument);
}

TEST(Dia, FullyBandedMatrixHasAllDenseLanes) {
  const CsrMatrix m = banded_csr(64, 4, 12);  // density 1.0: full band
  const DiaMatrix dia = DiaMatrix::from_csr(m);
  dia.validate();
  ASSERT_GT(dia.num_diagonals(), 0);
  for (char dense : dia.lane_dense()) EXPECT_NE(dense, 0);
}

TEST(Dia, PartiallyFilledBandMixesLaneKinds) {
  const CsrMatrix m = banded_csr(128, 4, 13, 0.6);
  if (!DiaMatrix::accepts(m)) GTEST_SKIP() << "fill below threshold";
  const DiaMatrix dia = DiaMatrix::from_csr(m);
  dia.validate();
  bool any_sparse = false;
  for (char dense : dia.lane_dense()) any_sparse |= (dense == 0);
  EXPECT_TRUE(any_sparse);  // density 0.6 leaves holes in most lanes
}

// -------------------------------------------------- bit-identity, SpMV ----

/// Every format configuration must reproduce the serial CSR reference
/// EXACTLY on a matrix all formats accept, both through the direct kernels
/// (via PreparedMatrix, which also exercises the nnz-balanced row plan)
/// and at whatever OMP_NUM_THREADS ctest pinned for this run.
TEST(FormatKernels, BitIdenticalToSerialCsrReference) {
  const CsrMatrix m = banded_csr(257, 5, 14, 0.9);  // odd size: ragged split
  const auto x = random_vector(257, 15);
  std::vector<value_t> y_ref(257), y(257);
  spmv_reference(m, x, y_ref);
  for (const auto& cfg : extended_method_configs()) {
    if (cfg.kind != MethodKind::kEll && cfg.kind != MethodKind::kHyb &&
        cfg.kind != MethodKind::kDia) {
      continue;
    }
    ASSERT_TRUE(config_applicable(cfg, m)) << cfg.name();
    PreparedMatrix pm = PreparedMatrix::prepare(m, cfg);
    EXPECT_GT(pm.prep_seconds(), 0.0) << cfg.name();
    EXPECT_GT(pm.memory_bytes(), 0u) << cfg.name();
    std::fill(y.begin(), y.end(), static_cast<value_t>(-1));
    pm.run(x, y);
    SCOPED_TRACE(cfg.name());
    expect_bit_identical(y_ref, y);
  }
}

TEST(FormatKernels, BitIdenticalOnScatteredMatrixWhereApplicable) {
  // Random structure: DIA is inapplicable (and skipped), ELL/HYB must
  // still be exact — irregular rows stress the guarded slot loop.
  const CsrMatrix m = random_csr(301, 301, 6.0, 16);
  const auto x = random_vector(301, 17);
  std::vector<value_t> y_ref(301), y(301);
  spmv_reference(m, x, y_ref);
  for (const auto& cfg : extended_method_configs()) {
    if (cfg.kind != MethodKind::kEll && cfg.kind != MethodKind::kHyb &&
        cfg.kind != MethodKind::kDia) {
      continue;
    }
    if (!config_applicable(cfg, m)) continue;
    PreparedMatrix pm = PreparedMatrix::prepare(m, cfg);
    std::fill(y.begin(), y.end(), static_cast<value_t>(-1));
    pm.run(x, y);
    SCOPED_TRACE(cfg.name());
    expect_bit_identical(y_ref, y);
  }
}

TEST(FormatKernels, EmptyRowsProduceExactZeros) {
  CooMatrix coo(32, 32);
  coo.add(7, 7, 2.5);
  coo.add(7, 9, -1.5);
  coo.add(20, 3, 4.0);
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  const auto x = random_vector(32, 18);
  std::vector<value_t> y_ref(32), y(32);
  spmv_reference(m, x, y_ref);
  for (MethodKind kind :
       {MethodKind::kEll, MethodKind::kHyb, MethodKind::kDia}) {
    const MethodConfig cfg{
        .kind = kind, .sched = Schedule::kStCont, .c = kind == MethodKind::kHyb ? 8 : 0};
    if (!config_applicable(cfg, m)) continue;
    PreparedMatrix pm = PreparedMatrix::prepare(m, cfg);
    std::fill(y.begin(), y.end(), static_cast<value_t>(-1));
    pm.run(x, y);
    SCOPED_TRACE(method_kind_name(kind));
    expect_bit_identical(y_ref, y);
  }
}

// ------------------------------------------------- registry and naming ----

TEST(FormatRegistry, NamesParseBack) {
  for (const auto& cfg : extended_method_configs()) {
    EXPECT_EQ(parse_method_config(cfg.name()), cfg) << cfg.name();
  }
  EXPECT_EQ(parse_method_config("ELL").kind, MethodKind::kEll);
  EXPECT_EQ(parse_method_config("HYB/k8").c, 8);
  EXPECT_EQ(parse_method_config("DIA").kind, MethodKind::kDia);
}

TEST(FormatRegistry, PaperSpaceIsUntouched) {
  // The paper's 29 configurations stay exactly as they are: extension
  // formats ride behind them in the extended registry only.
  EXPECT_EQ(all_method_configs().size(), 29u);
  const auto ext = extended_method_configs();
  EXPECT_EQ(ext.size(), 35u);
}

// -------------------------------------------------- applicability mask ----

TEST(Applicability, DiaMaskedOutForScatteredMatrix) {
  const CsrMatrix scattered = random_csr(400, 400, 4.0, 19);
  const auto configs = extended_method_configs();
  const auto mask = applicability_mask(configs, scattered);
  ASSERT_EQ(mask.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    if (configs[i].kind == MethodKind::kDia) {
      EXPECT_EQ(mask[i], 0) << configs[i].name();
    }
    if (configs[i].kind == MethodKind::kCsr ||
        configs[i].kind == MethodKind::kHyb) {
      EXPECT_NE(mask[i], 0) << configs[i].name();
    }
  }
}

TEST(Applicability, EverythingApplicableOnBanded) {
  const CsrMatrix banded = banded_csr(128, 3, 20);
  const auto configs = extended_method_configs();
  for (char ok : applicability_mask(configs, banded)) EXPECT_NE(ok, 0);
}

TEST(Applicability, MaskedSelectionSkipsInapplicableWinner) {
  const auto configs = extended_method_configs();
  // Make DIA the predicted-fastest config everywhere...
  std::vector<int> classes(configs.size(), 0);
  std::size_t dia = configs.size();
  for (std::size_t i = 0; i < configs.size(); ++i) {
    if (configs[i].kind == MethodKind::kDia) dia = i;
  }
  ASSERT_LT(dia, configs.size());
  classes[dia] = 6;
  // ...then mask it out, as choose() does for a scattered matrix: the
  // selection must fall to the best applicable config, never to DIA.
  std::vector<char> mask(configs.size(), 1);
  mask[dia] = 0;
  EXPECT_EQ(select_best_config(configs, classes), dia);
  EXPECT_NE(select_best_config(configs, classes, mask), dia);
}

TEST(Applicability, ThrowsWhenNothingApplicable) {
  const auto configs = extended_method_configs();
  const std::vector<int> classes(configs.size(), 0);
  const std::vector<char> mask(configs.size(), 0);
  EXPECT_THROW(select_best_config(configs, classes, mask),
               std::invalid_argument);
}

// ------------------------------------------ lazy selection in choose() ----

/// A bank over the extended registry whose trees are single leaves: config
/// i predicts speed class classes[i] and prep class prep[i] for any
/// feature vector, so the test controls every prediction.
ModelBank make_leaf_bank(const std::vector<MethodConfig>& configs,
                         const std::vector<int>& classes,
                         const std::vector<int>& prep) {
  std::vector<std::vector<double>> features;
  std::vector<std::vector<double>> rel_times;
  std::vector<std::vector<double>> prep_iters;
  Xoshiro256 rng(7);
  for (int s = 0; s < 4; ++s) {
    std::vector<double> f(feature_count());
    for (auto& v : f) v = rng.next_double();
    features.push_back(std::move(f));
    std::vector<double> rel, iters;
    for (std::size_t i = 0; i < configs.size(); ++i) {
      rel.push_back(class_midpoint_rel(classes[i]));
      iters.push_back(prep_class_midpoint(prep[i]));
    }
    rel_times.push_back(std::move(rel));
    prep_iters.push_back(std::move(iters));
  }
  ModelBank bank;
  bank.train(configs, features, rel_times, {.max_depth = 1});
  bank.train_prep(features, prep_iters, {.max_depth = 1});
  return bank;
}

/// Diagonal plus one dense row 0: ELL pads every row to the hub's length
/// and DIA's diagonals mostly fill, so both reject it.
CsrMatrix hub_csr(index_t n) {
  CooMatrix coo(n, n);
  for (index_t i = 0; i < n; ++i) coo.add(i, i, 1.0);
  for (index_t j = 1; j < n; ++j) coo.add(0, j, 2.0);
  return CsrMatrix::from_coo(coo);
}

/// One dense row: ELL accepts it; its 300 diagonals exceed DIA's cap.
CsrMatrix dense_row_csr(index_t ncols) {
  CooMatrix coo(1, ncols);
  for (index_t j = 0; j < ncols; ++j) coo.add(0, j, 1.0 + j);
  return CsrMatrix::from_coo(coo);
}

std::size_t first_of_kind(const std::vector<MethodConfig>& configs,
                          MethodKind kind) {
  for (std::size_t i = 0; i < configs.size(); ++i) {
    if (configs[i].kind == kind) return i;
  }
  ADD_FAILURE() << "registry lacks " << method_kind_name(kind);
  return 0;
}

TEST(LazySelection, ChoosePicksWhatTheEagerMaskPicks) {
  const auto configs = extended_method_configs();
  const std::vector<std::pair<const char*, CsrMatrix>> matrices = {
      {"rmat", CsrMatrix::from_coo(generate_rmat({.n = 1 << 10}, 3))},
      {"banded", banded_csr(512, 3, 4)},
      {"stencil", CsrMatrix::from_coo(generate_stencil2d(24, 24))},
      {"empty", CsrMatrix::from_coo(CooMatrix(64, 64))},
      {"hub", hub_csr(200)},
      {"dense row", dense_row_csr(300)},
  };
  // Rejection must actually happen: RMAT and the dense row fail DIA, the
  // hub fails ELL.
  ASSERT_FALSE(DiaMatrix::accepts(matrices[0].second));
  ASSERT_FALSE(EllMatrix::accepts(matrices[4].second));
  ASSERT_FALSE(DiaMatrix::accepts(matrices[5].second));

  const std::size_t ell = first_of_kind(configs, MethodKind::kEll);
  const std::size_t dia = first_of_kind(configs, MethodKind::kDia);
  Xoshiro256 rng(2024);
  for (int trial = 0; trial < 12; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    std::vector<int> classes(configs.size());
    std::vector<int> prep(configs.size());
    for (auto& c : classes) c = static_cast<int>(rng.next_below(6));
    for (auto& p : prep) {
      p = static_cast<int>(rng.next_below(kNumPrepClasses));
    }
    // Send the unmasked winner to DIA, to ELL, or to both (a tie the
    // selection_rank() order breaks), so the lazy path has work to do.
    if (trial % 3 != 1) classes[dia] = 6;
    if (trial % 3 != 0) classes[ell] = 6;
    const Wise wise(make_leaf_bank(configs, classes, prep));
    for (const auto& [name, m] : matrices) {
      const std::vector<char> mask = applicability_mask(configs, m);
      for (const double horizon : {kUnboundedHorizon, 20.0}) {
        SCOPED_TRACE(std::string(name) + " at horizon " +
                     std::to_string(horizon));
        const WiseChoice choice = wise.choose(m, horizon);
        EXPECT_FALSE(choice.fell_back()) << choice.fallback_reason;
        EXPECT_EQ(choice.config,
                  configs[select_config(configs, classes, mask, prep,
                                        horizon)]);
      }
    }
  }
}

TEST(LazySelection, RejectedWinnerFallsThroughToTheNextConfig) {
  const auto configs = extended_method_configs();
  const std::size_t runner_up = first_of_kind(configs, MethodKind::kSellCR);
  for (const MethodKind kind : {MethodKind::kDia, MethodKind::kEll}) {
    SCOPED_TRACE(method_kind_name(kind));
    std::vector<int> classes(configs.size(), 1);
    for (std::size_t i = 0; i < configs.size(); ++i) {
      if (configs[i].kind == kind) classes[i] = 6;
    }
    classes[runner_up] = 5;
    const Wise wise(make_leaf_bank(configs, classes,
                                   std::vector<int>(configs.size(), 0)));
    // DIA-best on a scattered RMAT, ELL-best on a hub matrix: both reject.
    const CsrMatrix m =
        kind == MethodKind::kDia
            ? CsrMatrix::from_coo(generate_rmat({.n = 1 << 10}, 5))
            : hub_csr(300);
    ASSERT_FALSE(config_applicable(configs[first_of_kind(configs, kind)], m));
    for (const double horizon : {kUnboundedHorizon, 20.0}) {
      const WiseChoice choice = wise.choose(m, horizon);
      EXPECT_EQ(choice.config, configs[runner_up]);
      EXPECT_EQ(choice.predicted_class, 5);
      EXPECT_EQ(choice.fallback_reason, "");
    }
  }
}

}  // namespace
}  // namespace wise
