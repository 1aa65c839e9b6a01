#include "features/stats.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <omp.h>
#include <utility>
#include <vector>

namespace wise {

namespace {

// All aggregates are carried in exact integer arithmetic (128-bit where
// products can exceed 64 bits) and converted to double exactly once at the
// end. This makes every statistic independent of summation order, so the
// parallel reductions below produce bit-identical results at any thread
// count, and the histogram and sort fallback paths agree exactly.
using uint128 = unsigned __int128;

/// Below this element count the OpenMP parallel regions are pure overhead.
constexpr std::size_t kParallelThreshold = std::size_t{1} << 15;

/// Histogram (counting-sort) path limits: the value range must be modest
/// both absolutely and relative to the bucket count, otherwise fall back to
/// a comparison sort of the nonempty masses.
constexpr nnz_t kHistAbsoluteMax = nnz_t{1} << 26;

using Runs = std::vector<std::pair<nnz_t, nnz_t>>;  ///< (value, multiplicity)

/// The moments the finalization needs, read off the ascending runs of the
/// nonempty masses: exact integers, so equal to any per-element
/// accumulation of the same multiset.
struct BasicAgg {
  uint128 total = 0;     ///< sum of masses
  uint128 total_sq = 0;  ///< sum of squared masses
  nnz_t max_value = 0;
  nnz_t min_positive = 0;
  nnz_t n_nonempty = 0;

  explicit BasicAgg(const Runs& asc_runs) {
    for (const auto& [v, h] : asc_runs) {
      const auto uv = static_cast<uint128>(v);
      total += uv * static_cast<uint128>(h);
      total_sq += uv * uv * static_cast<uint128>(h);
      n_nonempty += h;
    }
    if (!asc_runs.empty()) {
      min_positive = asc_runs.front().first;
      max_value = asc_runs.back().first;
    }
  }
};

/// Gini numerator: W = sum over ascending ranks 1..n of rank * mass, where
/// the n_zero empty buckets occupy the lowest ranks and contribute nothing.
/// Consumed as runs of equal values: a run of h copies of v occupying ranks
/// r0+1 .. r0+h contributes v * (h*(r0+1) + h*(h-1)/2).
struct GiniAcc {
  uint128 weighted = 0;
  nnz_t ranks_used = 0;  ///< initialize to n_zero

  void add_run(nnz_t v, nnz_t h) {
    const auto uv = static_cast<uint128>(v);
    const auto uh = static_cast<uint128>(h);
    const auto r1 = static_cast<uint128>(ranks_used) + 1;
    weighted += uv * (uh * r1 + uh * (uh - 1) / 2);
    ranks_used += h;
  }
};

/// p-ratio in exact arithmetic: the smallest k >= 1 with
///   cum_k * n >= total * (n - k)
/// where cum_k is the sum of the k largest masses. Visited as descending
/// runs; within a run of h copies of v starting after rank k0 with prefix
/// cum0, the condition linearizes to k * (v*n + total) >= total*n - cum0*n
/// + k0*v*n, solved by one ceiling division.
double exact_pratio_from_desc_runs(const Runs& desc_runs, uint128 total,
                                   nnz_t n) {
  const auto un = static_cast<uint128>(n);
  uint128 cum0 = 0;
  nnz_t k0 = 0;
  for (const auto& [v, h] : desc_runs) {
    const auto uv = static_cast<uint128>(v);
    const uint128 den = uv * un + total;
    const uint128 num =
        total * un - cum0 * un + static_cast<uint128>(k0) * uv * un;
    uint128 kmin = den == 0 ? 1 : (num + den - 1) / den;
    if (kmin <= static_cast<uint128>(k0)) kmin = static_cast<uint128>(k0) + 1;
    if (kmin <= static_cast<uint128>(k0) + static_cast<uint128>(h)) {
      return static_cast<double>(static_cast<nnz_t>(kmin)) /
             static_cast<double>(n);
    }
    cum0 += uv * static_cast<uint128>(h);
    k0 += h;
  }
  // Unreachable for total > 0: at k = n_nonempty, cum == total and the
  // condition holds. Kept as the balanced-distribution default.
  return 0.5;
}

/// Shared finalization from the ascending runs of the nonempty masses of
/// an n-bucket distribution; `asc_runs` must not be empty.
DistStats stats_from_runs(const Runs& asc_runs, nnz_t n) {
  const BasicAgg agg(asc_runs);
  DistStats s;
  const nnz_t n_zero = n - agg.n_nonempty;
  const auto dn = static_cast<double>(n);
  const auto dtotal = static_cast<double>(agg.total);
  s.mean = dtotal / dn;
  s.variance = std::max(0.0, static_cast<double>(agg.total_sq) / dn -
                                 s.mean * s.mean);
  s.stddev = std::sqrt(s.variance);
  s.min = n_zero > 0 ? 0.0 : static_cast<double>(agg.min_positive);
  s.max = static_cast<double>(agg.max_value);
  s.nonempty = static_cast<double>(agg.n_nonempty);

  // Gini over the full distribution (zeros included): with ascending order
  // x_1..x_n, G = (2 * sum(i * x_i)) / (n * sum(x)) - (n + 1) / n.
  GiniAcc gini;
  gini.ranks_used = n_zero;
  for (const auto& [v, h] : asc_runs) gini.add_run(v, h);
  s.gini = std::clamp(2.0 * static_cast<double>(gini.weighted) / (dn * dtotal) -
                          (dn + 1.0) / dn,
                      0.0, 1.0);

  const Runs desc_runs(asc_runs.rbegin(), asc_runs.rend());
  s.pratio = exact_pratio_from_desc_runs(desc_runs, agg.total, n);
  return s;
}

/// Bucket b's mass of a dense distribution.
struct DenseMass {
  const nnz_t* counts;
  nnz_t operator()(std::size_t b) const { return counts[b]; }
};

/// Bucket b's mass of a distribution given as a prefix sum.
struct PrefixMass {
  const nnz_t* prefix;
  nnz_t operator()(std::size_t b) const { return prefix[b + 1] - prefix[b]; }
};

template <class Mass>
nnz_t max_mass(std::size_t size, Mass mass) {
  nnz_t mx = 0;
  const auto n = static_cast<std::int64_t>(size);
#pragma omp parallel for reduction(max : mx) schedule(static) \
    if (size >= kParallelThreshold)
  for (std::int64_t i = 0; i < n; ++i) {
    mx = std::max(mx, mass(static_cast<std::size_t>(i)));
  }
  return mx;
}

/// Counting-sort path: one pass builds the mass histogram and the
/// ascending runs are read straight off it. O(size + max_value) work, no
/// sort. On large inputs each thread fills a private histogram and the
/// threads then sum them slice by slice — integer sums, so the partition
/// cannot change the result. A range wider than the input would cost more
/// to clear and merge per thread than it saves, so it stays serial.
template <class Mass>
Runs runs_from_histogram(std::size_t size, Mass mass, nnz_t max_value) {
  const auto range = static_cast<std::size_t>(max_value) + 1;
  std::vector<nnz_t> hist(range, 0);
  const int threads = omp_get_max_threads();
  if (size >= kParallelThreshold && threads > 1 && range <= size) {
    const auto n = static_cast<std::int64_t>(size);
    std::unique_ptr<nnz_t[]> local(
        new nnz_t[static_cast<std::size_t>(threads) * range]);
#pragma omp parallel num_threads(threads)
    {
      const auto nt = static_cast<std::size_t>(omp_get_num_threads());
      nnz_t* h = local.get() +
                 static_cast<std::size_t>(omp_get_thread_num()) * range;
      std::fill(h, h + range, nnz_t{0});
#pragma omp for schedule(static)
      for (std::int64_t i = 0; i < n; ++i) {
        ++h[static_cast<std::size_t>(mass(static_cast<std::size_t>(i)))];
      }
#pragma omp for schedule(static)
      for (std::size_t v = 0; v < range; ++v) {
        nnz_t sum = 0;
        for (std::size_t t = 0; t < nt; ++t) sum += local[t * range + v];
        hist[v] = sum;
      }
    }
  } else {
    for (std::size_t i = 0; i < size; ++i) {
      ++hist[static_cast<std::size_t>(mass(i))];
    }
  }

  Runs runs;
  for (std::size_t v = 1; v < range; ++v) {
    if (hist[v] != 0) runs.emplace_back(static_cast<nnz_t>(v), hist[v]);
  }
  return runs;
}

/// Comparison-sort fallback for distributions whose masses are large
/// relative to the bucket count (e.g. the K row/column block sums).
template <class Mass>
Runs runs_from_sort(std::size_t size, Mass mass) {
  std::vector<nnz_t> positive;
  positive.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    if (const nnz_t v = mass(i); v != 0) positive.push_back(v);
  }
  std::sort(positive.begin(), positive.end());

  Runs runs;
  for (std::size_t i = 0; i < positive.size();) {
    std::size_t j = i;
    while (j < positive.size() && positive[j] == positive[i]) ++j;
    runs.emplace_back(positive[i], static_cast<nnz_t>(j - i));
    i = j;
  }
  return runs;
}

/// Stats of the `size` masses mass(0..size-1) spread over n >= size
/// buckets (the rest implicitly empty).
template <class Mass>
DistStats dist_stats_impl(std::size_t size, Mass mass, nnz_t n) {
  if (n <= 0) return {};
  const nnz_t max_value = max_mass(size, mass);
  if (max_value == 0) return {};  // no mass: all zero, pratio 0.5

  const auto hist_limit = std::min<nnz_t>(
      kHistAbsoluteMax,
      std::max<nnz_t>(nnz_t{1} << 16, 4 * static_cast<nnz_t>(size)));
  const Runs runs = max_value <= hist_limit
                        ? runs_from_histogram(size, mass, max_value)
                        : runs_from_sort(size, mass);
  return stats_from_runs(runs, n);
}

}  // namespace

DistStats compute_dist_stats(std::span<const nnz_t> counts) {
  return dist_stats_impl(counts.size(), DenseMass{counts.data()},
                         static_cast<nnz_t>(counts.size()));
}

DistStats compute_dist_stats_of_prefix(std::span<const nnz_t> prefix) {
  const std::size_t size = prefix.empty() ? 0 : prefix.size() - 1;
  return dist_stats_impl(size, PrefixMass{prefix.data()},
                         static_cast<nnz_t>(size));
}

DistStats compute_dist_stats_sparse(std::span<const nnz_t> nonempty_counts,
                                    nnz_t total_buckets) {
  // Zeros slipping into the "nonempty" list are tolerated: both run
  // builders skip them.
  return dist_stats_impl(nonempty_counts.size(),
                         DenseMass{nonempty_counts.data()}, total_buckets);
}

double gini_coefficient(std::span<const nnz_t> counts) {
  return compute_dist_stats(counts).gini;
}

double p_ratio(std::span<const nnz_t> counts) {
  return compute_dist_stats(counts).pratio;
}

}  // namespace wise
