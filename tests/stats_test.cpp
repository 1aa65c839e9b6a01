// Tests for Gini / p-ratio / distribution statistics (§4.2).

#include <gtest/gtest.h>

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <vector>

#include "features/stats.hpp"
#include "util/prng.hpp"

namespace wise {
namespace {

TEST(Gini, ZeroForPerfectBalance) {
  EXPECT_NEAR(gini_coefficient({5, 5, 5, 5}), 0.0, 1e-12);
  EXPECT_NEAR(gini_coefficient({1}), 0.0, 1e-12);
}

TEST(Gini, ApproachesOneForMaxImbalance) {
  // All mass in one of n buckets → G = 1 - 1/n.
  std::vector<nnz_t> counts(100, 0);
  counts[0] = 1000;
  EXPECT_NEAR(gini_coefficient(counts), 1.0 - 0.01, 1e-12);
}

TEST(Gini, KnownTwoBucketValue) {
  // {0, 1}: G = 0.5 for two buckets with all mass in one.
  EXPECT_NEAR(gini_coefficient({0, 1}), 0.5, 1e-12);
}

TEST(Gini, IsOrderInvariant) {
  EXPECT_DOUBLE_EQ(gini_coefficient({1, 5, 3, 9}),
                   gini_coefficient({9, 1, 3, 5}));
}

TEST(Gini, MonotoneInSkew) {
  EXPECT_LT(gini_coefficient({4, 4, 4, 4}), gini_coefficient({1, 2, 4, 9}));
  EXPECT_LT(gini_coefficient({1, 2, 4, 9}), gini_coefficient({0, 0, 1, 15}));
}

TEST(PRatio, HalfForPerfectBalance) {
  EXPECT_NEAR(p_ratio({7, 7, 7, 7, 7, 7, 7, 7, 7, 7}), 0.5, 0.01);
}

TEST(PRatio, SmallForExtremeSkew) {
  std::vector<nnz_t> counts(100, 0);
  counts[42] = 100000;
  EXPECT_NEAR(p_ratio(counts), 0.01, 1e-12);
}

TEST(PRatio, MatchesPaperSemantics) {
  // "p fraction of the rows has a (1-p) fraction of the nonzeros":
  // 1 bucket with 80, 4 with 5 → top 20% holds 80%. p = 0.2.
  EXPECT_NEAR(p_ratio({80, 5, 5, 5, 5}), 0.2, 1e-12);
}

TEST(PRatio, IsOrderInvariant) {
  EXPECT_DOUBLE_EQ(p_ratio({80, 5, 5, 5, 5}), p_ratio({5, 5, 80, 5, 5}));
}

TEST(DistStats, ComputesBasicMoments) {
  const DistStats s = compute_dist_stats({1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.variance, 1.25);
  EXPECT_DOUBLE_EQ(s.stddev, std::sqrt(1.25));
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.nonempty, 4.0);
}

TEST(DistStats, MinIsZeroWhenAnyBucketEmpty) {
  const DistStats s = compute_dist_stats({0, 3, 5});
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.nonempty, 2.0);
}

TEST(DistStats, EmptyDistributionIsNeutral) {
  const DistStats s = compute_dist_stats({});
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
  EXPECT_DOUBLE_EQ(s.gini, 0.0);
  EXPECT_DOUBLE_EQ(s.pratio, 0.5);
}

TEST(DistStats, AllZeroDistributionIsNeutral) {
  const DistStats s = compute_dist_stats({0, 0, 0});
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
  EXPECT_DOUBLE_EQ(s.gini, 0.0);
  EXPECT_DOUBLE_EQ(s.pratio, 0.5);
  EXPECT_DOUBLE_EQ(s.nonempty, 0.0);
}

TEST(DistStats, SparseMatchesDenseRepresentation) {
  // {0,0,0,0,0,0,7,3,1,0} dense vs sparse {7,3,1} over 10 buckets.
  const std::vector<nnz_t> dense = {0, 0, 0, 0, 0, 0, 7, 3, 1, 0};
  const DistStats a = compute_dist_stats(dense);
  const DistStats b = compute_dist_stats_sparse({7, 3, 1}, 10);
  EXPECT_DOUBLE_EQ(a.mean, b.mean);
  EXPECT_DOUBLE_EQ(a.variance, b.variance);
  EXPECT_DOUBLE_EQ(a.gini, b.gini);
  EXPECT_DOUBLE_EQ(a.pratio, b.pratio);
  EXPECT_DOUBLE_EQ(a.min, b.min);
  EXPECT_DOUBLE_EQ(a.max, b.max);
  EXPECT_DOUBLE_EQ(a.nonempty, b.nonempty);
}

TEST(DistStats, SparseToleratesZerosInList) {
  const DistStats a = compute_dist_stats_sparse({0, 5, 0, 3}, 8);
  const DistStats b = compute_dist_stats_sparse({5, 3}, 8);
  EXPECT_DOUBLE_EQ(a.gini, b.gini);
  EXPECT_DOUBLE_EQ(a.nonempty, b.nonempty);
}

TEST(DistStats, GiniAndPRatioMoveOppositeDirections) {
  // More skew → higher Gini, lower p-ratio.
  const DistStats balanced = compute_dist_stats({10, 10, 10, 10});
  const DistStats skewed = compute_dist_stats({37, 1, 1, 1});
  EXPECT_GT(skewed.gini, balanced.gini);
  EXPECT_LT(skewed.pratio, balanced.pratio);
}

// ----------------------------------------- one-pass stats vs moments ----

using uint128 = unsigned __int128;

/// The per-element formulation the one-pass stats replaced: 128-bit
/// moments accumulated over every element, then the ordered statistics
/// from a sort. `counts` lists bucket masses; the other n - size buckets
/// are empty.
DistStats moments_reference(std::vector<nnz_t> counts, nnz_t n) {
  DistStats s;
  if (n <= 0) return s;
  uint128 total = 0, total_sq = 0;
  nnz_t max_value = 0, min_positive = 0, nonempty = 0;
  for (nnz_t v : counts) {
    if (v == 0) continue;
    total += static_cast<uint128>(v);
    total_sq += static_cast<uint128>(v) * static_cast<uint128>(v);
    max_value = std::max(max_value, v);
    min_positive = nonempty == 0 ? v : std::min(min_positive, v);
    ++nonempty;
  }
  if (nonempty == 0) return s;
  const auto dn = static_cast<double>(n);
  const auto dtotal = static_cast<double>(total);
  s.mean = dtotal / dn;
  s.variance =
      std::max(0.0, static_cast<double>(total_sq) / dn - s.mean * s.mean);
  s.stddev = std::sqrt(s.variance);
  s.min = n > nonempty ? 0.0 : static_cast<double>(min_positive);
  s.max = static_cast<double>(max_value);
  s.nonempty = static_cast<double>(nonempty);

  std::erase(counts, nnz_t{0});
  std::sort(counts.begin(), counts.end());
  uint128 weighted = 0;  // sum of ascending rank * mass, zeros ranked first
  for (std::size_t i = 0; i < counts.size(); ++i) {
    weighted += static_cast<uint128>(n - nonempty + static_cast<nnz_t>(i) + 1) *
                static_cast<uint128>(counts[i]);
  }
  s.gini = std::clamp(
      2.0 * static_cast<double>(weighted) / (dn * dtotal) - (dn + 1.0) / dn,
      0.0, 1.0);
  // Smallest k with (sum of the k largest) * n >= total * (n - k).
  uint128 cum = 0;
  for (nnz_t k = 1; k <= nonempty; ++k) {
    cum += static_cast<uint128>(
        counts[counts.size() - static_cast<std::size_t>(k)]);
    if (cum * static_cast<uint128>(n) >=
        total * static_cast<uint128>(n - k)) {
      s.pratio = static_cast<double>(k) / dn;
      break;
    }
  }
  return s;
}

void expect_same_bits(const DistStats& a, const DistStats& b,
                      const std::string& what) {
  const auto same = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof x) == 0;
  };
  EXPECT_TRUE(same(a.mean, b.mean)) << what << " mean";
  EXPECT_TRUE(same(a.stddev, b.stddev)) << what << " stddev";
  EXPECT_TRUE(same(a.variance, b.variance)) << what << " variance";
  EXPECT_TRUE(same(a.min, b.min)) << what << " min";
  EXPECT_TRUE(same(a.max, b.max)) << what << " max";
  EXPECT_TRUE(same(a.gini, b.gini)) << what << " gini";
  EXPECT_TRUE(same(a.pratio, b.pratio)) << what << " pratio";
  EXPECT_TRUE(same(a.nonempty, b.nonempty)) << what << " nonempty";
}

TEST(DistStats, OnePassEqualsMomentsReference) {
  Xoshiro256 rng(17);
  std::vector<std::pair<const char*, std::vector<nnz_t>>> cases;
  std::vector<nnz_t> random(100000);  // above the parallel threshold
  for (auto& v : random) v = static_cast<nnz_t>(rng.next_below(40));
  cases.emplace_back("random", random);
  std::vector<nnz_t> skewed(50000);
  for (auto& v : skewed) {
    v = static_cast<nnz_t>(rng.next_below(4) == 0 ? rng.next_below(300000) : 0);
  }
  cases.emplace_back("skewed", skewed);
  cases.emplace_back("all-zero", std::vector<nnz_t>(70000, 0));
  cases.emplace_back("single-bucket", std::vector<nnz_t>{42});
  std::vector<nnz_t> one_hot(40000, 0);
  one_hot[12345] = 7;
  cases.emplace_back("one-hot", one_hot);
  // Masses whose squares and rank products overflow 64 bits.
  cases.emplace_back("huge-mass",
                     std::vector<nnz_t>{nnz_t{1} << 40, 3, (nnz_t{1} << 40) + 1,
                                        0, nnz_t{1} << 62, 9});
  const int saved_threads = omp_get_max_threads();
  for (const auto& [name, counts] : cases) {
    const DistStats ref =
        moments_reference(counts, static_cast<nnz_t>(counts.size()));
    for (int threads : {1, 2, 8}) {
      omp_set_num_threads(threads);
      expect_same_bits(compute_dist_stats(counts), ref, name);
      // The same distribution as a prefix sum (the row_ptr path).
      std::vector<nnz_t> prefix(counts.size() + 1, 0);
      for (std::size_t i = 0; i < counts.size(); ++i) {
        prefix[i + 1] = prefix[i] + counts[i];
      }
      expect_same_bits(compute_dist_stats_of_prefix(prefix), ref, name);
      // And sparsely, over three times as many buckets.
      const auto n = 3 * static_cast<nnz_t>(counts.size());
      expect_same_bits(compute_dist_stats_sparse(counts, n),
                       moments_reference(counts, n), name);
    }
  }
  omp_set_num_threads(saved_threads);
}

TEST(DistStats, HistogramAndSortPathsAgreeAtTheLimit) {
  // A list of up to 2^14 masses takes the histogram path up to a maximum
  // mass of 2^16 and sorts above it. Zero padding raises the list's
  // length, and so its limit, without changing the distribution: the
  // padded list histograms a maximum the short one sorts.
  constexpr nnz_t kLimit = nnz_t{1} << 16;
  for (nnz_t max_value : {kLimit, kLimit + 1}) {
    const std::vector<nnz_t> masses = {max_value, 1, 2, 2, 7, max_value - 5};
    std::vector<nnz_t> padded = masses;
    padded.resize(std::size_t{1} << 15, 0);
    const nnz_t n = nnz_t{1} << 16;
    const DistStats ref = moments_reference(masses, n);
    const std::string what = "max " + std::to_string(max_value);
    expect_same_bits(compute_dist_stats_sparse(masses, n), ref, what);
    expect_same_bits(compute_dist_stats_sparse(padded, n), ref, what);
  }
}

}  // namespace
}  // namespace wise
