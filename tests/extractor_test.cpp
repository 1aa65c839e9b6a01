// Tests for the 67-feature WISE extractor (paper Table 2).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <set>

#include <omp.h>

#include "features/extractor.hpp"
#include "golden_corpus.hpp"
#include "test_util.hpp"
#include "wise/pipeline.hpp"

namespace wise {
namespace {

using testing::random_csr;

double feature(const FeatureVector& fv, const std::string& name) {
  const auto& names = feature_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return fv[i];
  }
  throw std::out_of_range("no feature named " + name);
}

TEST(Features, CountIs67) {
  EXPECT_EQ(feature_count(), 67u);  // 3 size + 5x8 dist stats + 24 locality
}

TEST(Features, NamesAreUniqueAndStable) {
  const auto& names = feature_names();
  std::set<std::string> unique(names.begin(), names.end());
  EXPECT_EQ(unique.size(), names.size());
  // Spot-check the names the paper defines.
  EXPECT_EQ(names[0], "n_rows");
  EXPECT_EQ(names[1], "n_cols");
  EXPECT_EQ(names[2], "n_nnz");
  EXPECT_NE(std::find(names.begin(), names.end(), "gini_R"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "pratio_CB"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "uniqR"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "Gr64_potReuseC"),
            names.end());
}

TEST(Features, SizePropertiesAreExact) {
  const CsrMatrix m = random_csr(123, 77, 4.0, 1);
  const FeatureVector fv = extract_features(m);
  EXPECT_EQ(feature(fv, "n_rows"), 123.0);
  EXPECT_EQ(feature(fv, "n_cols"), 77.0);
  EXPECT_EQ(feature(fv, "n_nnz"), static_cast<double>(m.nnz()));
}

TEST(Features, RowStatsMatchDirectComputation) {
  const CsrMatrix m = random_csr(100, 100, 5.0, 2);
  const FeatureVector fv = extract_features(m);
  const DistStats r = row_dist_stats(m);
  EXPECT_DOUBLE_EQ(feature(fv, "mean_R"), r.mean);
  EXPECT_DOUBLE_EQ(feature(fv, "gini_R"), r.gini);
  EXPECT_DOUBLE_EQ(feature(fv, "pratio_R"), r.pratio);
  EXPECT_DOUBLE_EQ(feature(fv, "max_R"), r.max);
  EXPECT_DOUBLE_EQ(feature(fv, "ne_R"), r.nonempty);
}

TEST(Features, MeanRowEqualsNnzOverRows) {
  const CsrMatrix m = random_csr(200, 200, 7.0, 3);
  const FeatureVector fv = extract_features(m);
  EXPECT_NEAR(feature(fv, "mean_R"),
              static_cast<double>(m.nnz()) / 200.0, 1e-12);
  EXPECT_NEAR(feature(fv, "mean_C"),
              static_cast<double>(m.nnz()) / 200.0, 1e-12);
}

TEST(Features, UniqAndPotReuseSharePresencePairs) {
  // uniqR * nnz == potReuseR * nrows (both count presence pairs).
  const CsrMatrix m = random_csr(150, 150, 6.0, 4);
  const FeatureVector fv = extract_features(m);
  const double pairs_from_uniq =
      feature(fv, "uniqR") * static_cast<double>(m.nnz());
  const double pairs_from_reuse = feature(fv, "potReuseR") * 150.0;
  EXPECT_NEAR(pairs_from_uniq, pairs_from_reuse, 1e-6);
}

TEST(Features, UniqRAtMostOne) {
  const CsrMatrix m = random_csr(100, 100, 8.0, 5);
  const FeatureVector fv = extract_features(m);
  for (const char* name : {"uniqR", "uniqC", "Gr4_uniqR", "Gr64_uniqC"}) {
    EXPECT_GT(feature(fv, name), 0.0) << name;
    EXPECT_LE(feature(fv, name), 1.0) << name;
  }
}

TEST(Features, SkewedMatrixHasHigherRowGini) {
  const auto hs = rmat_class_params(RmatClass::kHighSkew, 1024, 8);
  const auto ls = rmat_class_params(RmatClass::kLowSkew, 1024, 8);
  const auto f_hs =
      extract_features(CsrMatrix::from_coo(generate_rmat(hs, 1)));
  const auto f_ls =
      extract_features(CsrMatrix::from_coo(generate_rmat(ls, 1)));
  EXPECT_GT(feature(f_hs, "gini_R"), feature(f_ls, "gini_R"));
  EXPECT_LT(feature(f_hs, "pratio_R"), feature(f_ls, "pratio_R"));
}

TEST(Features, LocalMatrixHasFewerOccupiedTiles) {
  // ne_T (occupied tiles) separates banded from uniform structure.
  const auto banded =
      extract_features(CsrMatrix::from_coo(generate_banded(1024, 8, 0.5, 2)));
  const auto uniform = extract_features(random_csr(1024, 1024, 8.0, 6));
  EXPECT_LT(feature(banded, "ne_T"), feature(uniform, "ne_T"));
}

TEST(Features, PotReuseCDetectsColumnReuseAcrossTiles) {
  // A full dense column is reused in every tile row; potReuseC rises.
  CooMatrix hot(64, 64);
  for (index_t i = 0; i < 64; ++i) {
    hot.add(i, 0, 1.0);   // hot column 0
    hot.add(i, i, 1.0);   // diagonal
  }
  CooMatrix diag_only(64, 64);
  for (index_t i = 0; i < 64; ++i) diag_only.add(i, i, 1.0);

  FeatureParams params;
  params.tile_grid = 8;
  const auto f_hot = extract_features(CsrMatrix::from_coo(hot), params);
  const auto f_diag = extract_features(CsrMatrix::from_coo(diag_only), params);
  EXPECT_GT(feature(f_hot, "potReuseC"), feature(f_diag, "potReuseC"));
}

TEST(Features, DeterministicForSameMatrix) {
  const CsrMatrix m = random_csr(80, 80, 5.0, 7);
  const FeatureVector a = extract_features(m);
  const FeatureVector b = extract_features(m);
  EXPECT_EQ(a.values, b.values);
}

TEST(Features, BitIdenticalAcrossThreadCounts) {
  // Cross-thread determinism regression: the parallel fused extractor must
  // produce bit-identical vectors to the serial reference path at every
  // thread count, across structurally distinct matrix families.
  struct Case {
    const char* name;
    CsrMatrix m;
  };
  const std::vector<Case> cases = {
      {"rmat", CsrMatrix::from_coo(generate_rmat(
                   rmat_class_params(RmatClass::kMedSkew, 2048, 8), 21))},
      {"rgg", CsrMatrix::from_coo(generate_rgg(2048, 6.0, 22))},
      {"banded", CsrMatrix::from_coo(generate_banded(1500, 12, 0.6, 23))},
      {"stencil", CsrMatrix::from_coo(generate_stencil2d(60, 45))},
  };
  const int saved_threads = omp_get_max_threads();
  for (const auto& c : cases) {
    const FeatureVector ref = extract_features_reference(c.m);
    for (int threads : {1, 2, 8}) {
      omp_set_num_threads(threads);
      const FeatureVector fused = extract_features(c.m);
      EXPECT_EQ(fused.values, ref.values)
          << c.name << " at " << threads << " threads";
    }
    omp_set_num_threads(saved_threads);
  }
}

TEST(Features, ReferencePathMatchesFusedOnRandomMatrices) {
  for (std::uint64_t seed : {31u, 32u, 33u}) {
    const CsrMatrix m = random_csr(400, 277, 5.0, seed);
    EXPECT_EQ(extract_features(m).values,
              extract_features_reference(m).values)
        << "seed " << seed;
  }
}

TEST(Features, HandlesEmptyMatrix) {
  const CsrMatrix m = CsrMatrix::from_coo(CooMatrix(10, 10));
  const FeatureVector fv = extract_features(m);
  EXPECT_EQ(fv.size(), feature_count());
  EXPECT_EQ(feature(fv, "n_nnz"), 0.0);
  EXPECT_EQ(feature(fv, "gini_R"), 0.0);
}

TEST(Features, HandlesSingleElementMatrix) {
  CooMatrix coo(1, 1);
  coo.add(0, 0, 1.0);
  const FeatureVector fv = extract_features(CsrMatrix::from_coo(coo));
  EXPECT_EQ(feature(fv, "n_nnz"), 1.0);
  EXPECT_EQ(feature(fv, "uniqR"), 1.0);
}

TEST(Features, TileGridOverrideIsHonored) {
  const CsrMatrix m = random_csr(256, 256, 4.0, 8);
  FeatureParams coarse;
  coarse.tile_grid = 2;
  FeatureParams fine;
  fine.tile_grid = 32;
  const auto f_coarse = extract_features(m, coarse);
  const auto f_fine = extract_features(m, fine);
  // ne_T is bounded by K^2 = 4 for the coarse grid.
  EXPECT_LE(feature(f_coarse, "ne_T"), 4.0);
  EXPECT_GT(feature(f_fine, "ne_T"), feature(f_coarse, "ne_T"));
}

/// The feature set a bank that reads no column-presence feature asks for.
FeatureSet without_column_presence() {
  return all_features() & ~column_presence_features();
}

/// Bitwise equality of two doubles (NaN-safe, and -0.0 != 0.0).
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(Features, ColumnPresenceGroupIsUniqCAndPotReuseC) {
  const auto& names = feature_names();
  const FeatureSet group = column_presence_features();
  EXPECT_EQ(group.count(), 2 * kGroupFactors.size());
  for (std::size_t i = 0; i < kNumFeatures; ++i) {
    const bool col_side = names[i].find("uniqC") != std::string::npos ||
                          names[i].find("potReuseC") != std::string::npos;
    EXPECT_EQ(group[i], col_side) << names[i];
  }
  EXPECT_TRUE(group[49]) << names[49];
}

TEST(Features, SubsetEqualsFullOnEveryComputedSlot) {
  // A subset extraction skips only the column presence and reproduces
  // every other feature of the full vector bit for bit, at any thread
  // count; the skipped slots hold the sentinel.
  const int saved_threads = omp_get_max_threads();
  const FeatureSet needed = without_column_presence();
  for (const auto& [name, m] : testing::golden_corpus()) {
    const FeatureVector ref = extract_features_reference(m);
    for (int threads : {1, 2, 8}) {
      omp_set_num_threads(threads);
      const FeatureVector full = extract_features(m);
      const FeatureVector sub = extract_features(m, {}, needed);
      EXPECT_TRUE(full.computed.all());
      EXPECT_EQ(full.values, ref.values) << name << " at " << threads;
      EXPECT_EQ(sub.computed, needed) << name;
      ASSERT_EQ(sub.size(), feature_count());
      for (std::size_t i = 0; i < feature_count(); ++i) {
        if (sub.computed[i]) {
          EXPECT_TRUE(same_bits(sub[i], full[i]))
              << name << " " << feature_names()[i] << " at " << threads;
        } else {
          EXPECT_TRUE(std::isnan(sub[i])) << name << " " << i;
        }
      }
    }
  }
  omp_set_num_threads(saved_threads);
}

TEST(Features, AnyNeededColumnFeatureComputesTheWholeGroup) {
  const CsrMatrix m = random_csr(300, 280, 6.0, 41);
  FeatureSet needed;
  needed.set(2);
  needed.set(61);  // potReuseC alone pulls in the whole column side
  const FeatureVector fv = extract_features(m, {}, needed);
  EXPECT_TRUE(fv.computed.all());
  EXPECT_EQ(fv.values, extract_features_reference(m).values);
}

/// A bank with one stump per configuration, each splitting on `feature`.
ModelBank stump_bank(int feature) {
  Dataset ds(feature_names(), 2);
  for (int label : {0, 1}) {
    std::vector<double> x(feature_count(), 1.0);
    x[static_cast<std::size_t>(feature)] = label;
    ds.add(x, label);
  }
  DecisionTree stump;
  stump.fit(ds, {.max_depth = 1, .ccp_alpha = 0.0});
  EXPECT_EQ(stump.nodes().at(0).feature, feature);
  const auto configs = all_method_configs();
  return ModelBank::assemble(
      configs, std::vector<DecisionTree>(configs.size(), stump));
}

TEST(Features, BankReadingUniqCGetsTheFullColumnSide) {
  const ModelBank bank = stump_bank(49);  // uniqC
  EXPECT_TRUE(bank.read_features()[49]);
  EXPECT_EQ(bank.read_features().count(), 1u);
  const Wise wise(bank);
  for (const auto& [name, m] : testing::golden_corpus()) {
    const WiseChoice choice = wise.choose(m);
    ASSERT_FALSE(choice.fell_back()) << name << ": " << choice.fallback_reason;
    ASSERT_NE(choice.features, nullptr);
    EXPECT_TRUE(choice.features_complete) << name;
    EXPECT_EQ(*choice.features, extract_features_reference(m).values) << name;
  }
}

TEST(Features, WiseExtractsOnlyWhatThePinnedBankReads) {
  // The pinned benchmark bank: every slot a tree of either head splits on
  // is computed, bit-identical to the reference, and nothing else is paid
  // for when the bank leaves the column group unread.
  const ModelBank bank = ModelBank::load(
      (std::filesystem::path(WISE_TEST_DATA_DIR) / ".." / ".." / "e2ebench" /
       "bank")
          .string());
  const FeatureSet reads = bank.read_features();
  const bool skips_column_side = (reads & column_presence_features()).none();
  const Wise wise(bank);
  for (const auto& [name, m] : testing::golden_corpus()) {
    const WiseChoice choice = wise.choose(m);
    ASSERT_FALSE(choice.fell_back()) << name << ": " << choice.fallback_reason;
    ASSERT_NE(choice.features, nullptr);
    EXPECT_EQ(choice.features_complete, !skips_column_side) << name;
    const std::vector<double>& got = *choice.features;
    const std::vector<double> ref = extract_features_reference(m).values;
    for (const auto* head : {&bank.trees(), &bank.prep_trees()}) {
      for (const DecisionTree& tree : *head) {
        for (const DecisionTree::Node& node : tree.nodes()) {
          if (node.feature < 0) continue;
          const auto f = static_cast<std::size_t>(node.feature);
          ASSERT_TRUE(reads[f]) << "read set misses feature " << f;
          EXPECT_TRUE(same_bits(got[f], ref[f]))
              << name << " " << feature_names()[f];
        }
      }
    }
    EXPECT_EQ(choice.full_features(m), ref) << name;
  }
}

}  // namespace
}  // namespace wise
