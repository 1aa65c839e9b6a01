#pragma once
// Summary statistics over nonzero-count distributions (paper §4.2).
//
// Every matrix feature in WISE is a summary statistic of one of five
// distributions (nonzeros per row / column / tile / row-block / column-
// block): mean, standard deviation, variance, min, max, Gini coefficient,
// p-ratio, and the number of nonempty buckets.
//
// Gini coefficient G: standard inequality measure; 0 for a perfectly
// balanced distribution, approaching 1 when all mass sits in one bucket.
//
// p-ratio P (Kunegis & Preusse): the p such that the top p fraction of
// buckets holds the (1-p) fraction of the mass; 0.5 when balanced,
// approaching 0 under extreme skew.

#include <initializer_list>
#include <span>

#include "util/types.hpp"

namespace wise {

/// The eight summary statistics of one distribution.
struct DistStats {
  double mean = 0;
  double stddev = 0;
  double variance = 0;
  double min = 0;
  double max = 0;
  double gini = 0;
  double pratio = 0.5;
  double nonempty = 0;  ///< number of buckets with nonzero count ("ne")
};

/// Statistics of a dense distribution: counts[b] is bucket b's mass.
/// An empty distribution yields all-zero stats with pratio 0.5.
///
/// Implementation contract: all aggregates are exact integers (128-bit
/// where products may overflow), so the result is a pure function of the
/// count multiset — bit-identical at every OpenMP thread count. One max
/// pass sizes a value histogram; when the masses are small integers
/// (rows/columns/tiles in practice) one histogram pass, parallel on large
/// inputs, yields every statistic: the total, sum of squares, min, max
/// and nonempty count from its runs as well as the ordered statistics
/// (Gini, p-ratio). Larger masses fall back to a comparison sort of the
/// nonempty masses, read the same way.
DistStats compute_dist_stats(std::span<const nnz_t> counts);

/// Statistics of the distribution of adjacent differences
/// prefix[b+1] - prefix[b] — e.g. nonzeros per row from a CSR row_ptr —
/// without materializing the differences. `prefix` must be nondecreasing;
/// an empty or one-entry prefix describes an empty distribution.
DistStats compute_dist_stats_of_prefix(std::span<const nnz_t> prefix);

/// Statistics of a sparsely-represented distribution: `nonempty_counts`
/// lists the positive bucket masses (any order); `total_buckets` includes
/// the implicit zero buckets. Used for the tile (T) distribution where the
/// K^2 bucket space is far larger than the number of occupied tiles.
DistStats compute_dist_stats_sparse(std::span<const nnz_t> nonempty_counts,
                                    nnz_t total_buckets);

/// Gini coefficient of a distribution given in any order. Exposed for tests.
double gini_coefficient(std::span<const nnz_t> counts);

/// p-ratio of a distribution given in any order. Exposed for tests.
double p_ratio(std::span<const nnz_t> counts);

// Braced-list spellings of the above, e.g. gini_coefficient({1, 5, 3}).
inline DistStats compute_dist_stats(std::initializer_list<nnz_t> counts) {
  return compute_dist_stats(
      std::span<const nnz_t>(counts.begin(), counts.size()));
}
inline DistStats compute_dist_stats_sparse(
    std::initializer_list<nnz_t> nonempty_counts, nnz_t total_buckets) {
  return compute_dist_stats_sparse(
      std::span<const nnz_t>(nonempty_counts.begin(), nonempty_counts.size()),
      total_buckets);
}
inline double gini_coefficient(std::initializer_list<nnz_t> counts) {
  return gini_coefficient(
      std::span<const nnz_t>(counts.begin(), counts.size()));
}
inline double p_ratio(std::initializer_list<nnz_t> counts) {
  return p_ratio(std::span<const nnz_t>(counts.begin(), counts.size()));
}

}  // namespace wise
