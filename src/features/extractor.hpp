#pragma once
// WISE matrix feature extraction (paper §4.2, Table 2).
//
// Produces the 67-dimensional feature vector the performance-prediction
// models consume: 3 size features, 8 summary statistics for each of the
// five nonzero distributions (rows, columns, tiles, row blocks, column
// blocks), and 24 uniq/potReuse locality features.
//
// extract_features runs the fused pipeline: one OpenMP row-partitioned
// sweep over the nonzeros yields the tile/row-block/column-block masses,
// both presence families, and the column histogram; the row distribution
// is one histogram pass over the row_ptr adjacent differences. No
// transpose is materialized and every intermediate counter is an exact
// integer, so the output is bit-identical to the serial reference at any
// thread count.
//
// A caller that reads only some features (Wise::choose reads the ones its
// bank's trees split on) passes that set, and the extractor skips every
// group of features with no member in it. Today the one skippable group is
// the column presence (uniqC, potReuseC and their Gr<X>_ variants), whose
// column-side sweep is the dearest part of the tiling pass. Every computed
// feature is bit-identical to the full extraction's.

#include <bitset>
#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "features/stats.hpp"
#include "features/tiling.hpp"
#include "sparse/csr.hpp"

namespace wise {

/// Extraction parameters. The defaults reproduce the paper's setup scaled
/// to this repository's matrix sizes (see default_tile_grid).
struct FeatureParams {
  index_t tile_grid = 0;  ///< K; 0 = choose automatically from matrix size

  friend bool operator==(const FeatureParams&, const FeatureParams&) = default;
};

/// Number of matrix features (feature_count()).
inline constexpr std::size_t kNumFeatures = 67;

/// A set of matrix features: bit i stands for feature_names()[i].
using FeatureSet = std::bitset<kNumFeatures>;

/// Every matrix feature: what extract_features computes by default.
inline FeatureSet all_features() { return FeatureSet{}.set(); }

/// The column-presence group (uniqC, potReuseC and their Gr<X>_
/// variants), computed only when a requested feature is in it.
FeatureSet column_presence_features();

/// What a slot the extractor skipped holds. A NaN, so that a skipped slot
/// can never pass for a measured value.
inline constexpr double kSkippedFeature =
    std::numeric_limits<double>::quiet_NaN();

/// A named, fixed-order feature vector.
struct FeatureVector {
  std::vector<double> values;
  /// The slots holding a computed value; the others hold kSkippedFeature.
  FeatureSet computed = all_features();

  double operator[](std::size_t i) const { return values[i]; }
  std::size_t size() const { return values.size(); }
};

/// Names of the features, in vector order. The order is part of the model
/// serialization format and must stay stable.
const std::vector<std::string>& feature_names();

/// Number of features (67).
std::size_t feature_count();

/// Extracts the features of `m` with the fused parallel single-pass
/// pipeline: every group with a member in `needed`, the rest set to
/// kSkippedFeature (see FeatureVector::computed). Honors the ambient
/// OpenMP thread count; the result is a pure function of `m`, `params` and
/// `needed` regardless of it.
FeatureVector extract_features(const CsrMatrix& m,
                               const FeatureParams& params = {},
                               const FeatureSet& needed = all_features());

/// Serial reference extractor: separate sweeps plus an explicit transpose,
/// the original algorithm. The oracle for the cross-thread-count
/// determinism tests and the decision-cost benchmarks; bit-identical to
/// extract_features by construction.
FeatureVector extract_features_reference(const CsrMatrix& m,
                                         const FeatureParams& params = {});

/// Per-distribution stats used by extract_features; exposed so analyses
/// (e.g. the p-ratio histogram benches) can reuse single distributions.
DistStats row_dist_stats(const CsrMatrix& m);
DistStats col_dist_stats(const CsrMatrix& m);

}  // namespace wise
