// Tests for preprocessing-cost classes, a bank's prep head, and the
// horizon-aware selection rule (wise/selector.hpp) that weighs it.

#include <gtest/gtest.h>

#include "features/extractor.hpp"
#include "gen/generators.hpp"
#include "util/prng.hpp"
#include "wise/pipeline.hpp"
#include "wise/selector.hpp"

namespace wise {
namespace {

TEST(PrepClass, BucketsMatchDefinition) {
  EXPECT_EQ(classify_prep_cost(0.0), 0);
  EXPECT_EQ(classify_prep_cost(0.99), 0);
  EXPECT_EQ(classify_prep_cost(1.0), 1);
  EXPECT_EQ(classify_prep_cost(2.9), 1);
  EXPECT_EQ(classify_prep_cost(3.0), 2);
  EXPECT_EQ(classify_prep_cost(8.0), 3);
  EXPECT_EQ(classify_prep_cost(20.0), 4);
  EXPECT_EQ(classify_prep_cost(50.0), 5);
  EXPECT_EQ(classify_prep_cost(1e6), 5);
}

TEST(PrepClass, RejectsNegativeCost) {
  EXPECT_THROW(classify_prep_cost(-1.0), std::invalid_argument);
}

TEST(PrepClass, MidpointsAreInsideBuckets) {
  for (int k = 0; k < kNumPrepClasses; ++k) {
    EXPECT_EQ(classify_prep_cost(prep_class_midpoint(k)), k);
  }
  EXPECT_THROW(prep_class_midpoint(kNumPrepClasses), std::out_of_range);
}

/// Two-config synthetic problem: config 0 is fast (rel 0.5) but expensive
/// to build (~30 CSR iterations); config 1 is CSR itself (rel 1.0, free).
class HorizonFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    configs_ = {
        {.kind = MethodKind::kLav,
         .sched = Schedule::kDyn,
         .c = 8,
         .sigma = kSigmaAll,
         .T = 0.7},
        {.kind = MethodKind::kCsr, .sched = Schedule::kStCont},
    };
    Xoshiro256 rng(1);
    for (int i = 0; i < 60; ++i) {
      std::vector<double> f(feature_count());
      for (auto& v : f) v = rng.next_double();
      features_.push_back(std::move(f));
      rel_times_.push_back({0.5, 1.0});
      prep_iters_.push_back({30.0, 0.0});
    }
    bank_.train(configs_, features_, rel_times_,
                {.max_depth = 3, .ccp_alpha = 0.0});
    bank_.train_prep(features_, prep_iters_,
                     {.max_depth = 3, .ccp_alpha = 0.0});
  }

  /// The configuration select_config picks for features_[0] over
  /// `horizon` SpMVs.
  const MethodConfig& pick(double horizon) const {
    return configs_[select_config(
        configs_, bank_.predict_classes(features_[0]), {},
        bank_.predict_prep_classes(features_[0]), horizon)];
  }

  std::vector<MethodConfig> configs_;
  std::vector<std::vector<double>> features_;
  std::vector<std::vector<double>> rel_times_;
  std::vector<std::vector<double>> prep_iters_;
  ModelBank bank_;
};

TEST_F(HorizonFixture, ShortRunsPickCheapConfig) {
  // N=5: fast config costs 5*0.5 + 33 = 35.5; CSR costs 5*1 + 0.5 = 5.5.
  EXPECT_EQ(pick(5).kind, MethodKind::kCsr);
}

TEST_F(HorizonFixture, LongRunsPickFastConfig) {
  // N=1000: fast costs 500 + 33 = 533; CSR costs 1000.5.
  EXPECT_EQ(pick(1000).kind, MethodKind::kLav);
  EXPECT_EQ(bank_.predict_classes(features_[0])[0], 6);       // rel 0.5 → C6
  EXPECT_EQ(bank_.predict_prep_classes(features_[0])[0], 4);  // 30 → P4
}

TEST_F(HorizonFixture, BreakevenIsWhereCostsCross) {
  // Costs cross when N*0.5 + 33 = N*1 + 0.5 → N = 65.
  EXPECT_EQ(pick(60).kind, MethodKind::kCsr);
  EXPECT_EQ(pick(70).kind, MethodKind::kLav);
}

TEST_F(HorizonFixture, UnboundedHorizonIsThePaperHeuristic) {
  const auto classes = bank_.predict_classes(features_[0]);
  EXPECT_EQ(pick(kUnboundedHorizon), configs_[select_best_config(configs_,
                                                                 classes)]);
  // Without prep classes a finite horizon has nothing to weigh.
  EXPECT_EQ(select_config(configs_, classes, {}, {}, 5),
            select_best_config(configs_, classes));
}

TEST_F(HorizonFixture, InapplicableConfigsAreNeverPicked) {
  const auto classes = bank_.predict_classes(features_[0]);
  const auto prep = bank_.predict_prep_classes(features_[0]);
  EXPECT_EQ(select_config(configs_, classes, {1, 0}, prep, 5), 0u);
  EXPECT_THROW(select_config(configs_, classes, {0, 0}, prep, 5),
               std::invalid_argument);
}

TEST_F(HorizonFixture, RejectsBadInputs) {
  const auto classes = bank_.predict_classes(features_[0]);
  const auto prep = bank_.predict_prep_classes(features_[0]);
  EXPECT_THROW(select_config(configs_, classes, {}, prep, 0),
               std::invalid_argument);
  EXPECT_THROW(select_config(configs_, classes, {}, prep, -5),
               std::invalid_argument);
  EXPECT_THROW(select_config(configs_, classes, {}, {prep[0]}, 5),
               std::invalid_argument);
  ModelBank untrained;
  EXPECT_THROW(untrained.predict_classes(features_[0]), std::logic_error);
  EXPECT_THROW(untrained.train_prep(features_, prep_iters_), std::logic_error);
  ModelBank speed_only;
  speed_only.train(configs_, features_, rel_times_);
  EXPECT_FALSE(speed_only.has_prep_head());
  EXPECT_THROW(speed_only.predict_prep_classes(features_[0]),
               std::logic_error);
  ModelBank bad;
  EXPECT_THROW(bad.train({}, features_, rel_times_), std::invalid_argument);
  bad.train(configs_, features_, rel_times_);
  EXPECT_THROW(bad.train_prep(features_, {}), std::invalid_argument);
}

// -------------------------------------------------- through Wise::choose ----

/// A bank over every SpMV config whose speed head says SELLPACK/c8/StCont
/// is ~2x (C6) and the rest parity, and whose prep head prices SELLPACK at
/// 100 CSR iterations (P5) and everything else at zero (P0).
ModelBank sellpack_bank_with_prep() {
  const auto configs = all_method_configs();
  std::size_t fast = 0;
  while (configs[fast].kind != MethodKind::kSellpack) ++fast;
  std::vector<std::vector<double>> features, rel, prep;
  Xoshiro256 rng(7);
  for (int i = 0; i < 16; ++i) {
    std::vector<double> f(feature_count());
    for (auto& v : f) v = rng.next_double() * 100.0;
    features.push_back(std::move(f));
    rel.emplace_back(configs.size(), 1.0);
    rel.back()[fast] = 0.5;
    prep.emplace_back(configs.size(), 0.0);
    prep.back()[fast] = 100.0;
  }
  ModelBank bank;
  bank.train(configs, features, rel, {.max_depth = 2});
  bank.train_prep(features, prep, {.max_depth = 2});
  return bank;
}

TEST(HorizonChoose, ShortHorizonTradesSpeedForConversionCost) {
  const Wise wise(sellpack_bank_with_prep());
  const CsrMatrix m =
      CsrMatrix::from_coo(generate_rmat(rmat_class_params(RmatClass::kLowLoc,
                                                          2048, 8), 3));
  const WiseChoice unbounded = wise.choose(m);
  EXPECT_EQ(unbounded.config.kind, MethodKind::kSellpack);
  EXPECT_EQ(unbounded.horizon, kUnboundedHorizon);

  // 20 SpMVs: SELLPACK costs 20*0.5 + 80 = 90, CSR 20*1.0 + 0.5 = 20.5.
  const WiseChoice short_run = wise.choose(m, 20);
  EXPECT_FALSE(short_run.fell_back()) << short_run.fallback_reason;
  EXPECT_EQ(short_run.config.kind, MethodKind::kCsr);
  EXPECT_EQ(short_run.horizon, 20.0);

  // 1000 SpMVs: SELLPACK costs 580, CSR 1000.5.
  EXPECT_EQ(wise.choose(m, 1000).config.kind, MethodKind::kSellpack);

  WiseChoice prepared;
  const PreparedMatrix pm = wise.prepare(m, prepared, 20);
  EXPECT_EQ(prepared.config, short_run.config);
  EXPECT_EQ(pm.config(), short_run.config);

  EXPECT_THROW(wise.choose(m, 0), std::invalid_argument);
  EXPECT_THROW(wise.prepare(m, prepared, -1), std::invalid_argument);
}

}  // namespace
}  // namespace wise
