#include "features/extractor.hpp"

#include <stdexcept>

#include "obs/metrics.hpp"

namespace wise {

namespace {

const std::array<const char*, 5> kDistNames = {"R", "C", "T", "RB", "CB"};
const std::array<const char*, 8> kStatNames = {"mean", "std", "var",  "gini",
                                               "pratio", "min", "max", "ne"};

void append_dist(std::vector<double>& out, const DistStats& s) {
  out.push_back(s.mean);
  out.push_back(s.stddev);
  out.push_back(s.variance);
  out.push_back(s.gini);
  out.push_back(s.pratio);
  out.push_back(s.min);
  out.push_back(s.max);
  out.push_back(s.nonempty);
}

std::vector<std::string> build_names() {
  std::vector<std::string> names = {"n_rows", "n_cols", "n_nnz"};
  for (const char* dist : kDistNames) {
    for (const char* stat : kStatNames) {
      names.push_back(std::string(stat) + "_" + dist);
    }
  }
  // uniq features: X=1 is the ungrouped uniqR/uniqC; larger X prefixed GrX_.
  for (const char* side : {"R", "C"}) {
    for (int x : kGroupFactors) {
      names.push_back(x == 1 ? std::string("uniq") + side
                             : "Gr" + std::to_string(x) + "_uniq" + side);
    }
  }
  for (const char* side : {"R", "C"}) {
    for (int x : kGroupFactors) {
      names.push_back(x == 1
                          ? std::string("potReuse") + side
                          : "Gr" + std::to_string(x) + "_potReuse" + side);
    }
  }
  if (names.size() != kNumFeatures) {
    throw std::logic_error("feature_names: feature count drift");
  }
  return names;
}

/// Assembles the fixed-order vector from the per-distribution stats and the
/// tiling counters. Shared by the fused and reference paths so the two can
/// only differ if their counters differ — which the tiling tests rule out.
FeatureVector assemble_features(const CsrMatrix& m, const DistStats& row_stats,
                                const DistStats& col_stats,
                                const TilingResult& tiling) {
  FeatureVector fv;
  fv.values.reserve(feature_count());

  // (1) Size properties.
  fv.values.push_back(static_cast<double>(m.nrows()));
  fv.values.push_back(static_cast<double>(m.ncols()));
  fv.values.push_back(static_cast<double>(m.nnz()));

  // (2) Skew properties: R and C distributions.
  append_dist(fv.values, row_stats);
  append_dist(fv.values, col_stats);

  // (3) Locality properties: T, RB, CB distributions plus presence sums.
  append_dist(fv.values, compute_dist_stats_sparse(tiling.tile_counts,
                                                   tiling.total_tiles));
  append_dist(fv.values, compute_dist_stats(tiling.rowblock_counts));
  append_dist(fv.values, compute_dist_stats(tiling.colblock_counts));

  const auto dnnz = static_cast<double>(std::max<nnz_t>(1, m.nnz()));
  // uniq*: presence pairs normalized by the nonzero count (§4.2).
  for (auto p : tiling.row_presence) {
    fv.values.push_back(static_cast<double>(p) / dnnz);
  }
  for (auto p : tiling.col_presence) {
    fv.values.push_back(static_cast<double>(p) / dnnz);
  }
  // potReuse*: the same presence pairs averaged over row/column groups.
  for (std::size_t xi = 0; xi < kGroupFactors.size(); ++xi) {
    fv.values.push_back(
        static_cast<double>(tiling.row_presence[xi]) /
        static_cast<double>(std::max<nnz_t>(1, tiling.row_groups[xi])));
  }
  for (std::size_t xi = 0; xi < kGroupFactors.size(); ++xi) {
    fv.values.push_back(
        static_cast<double>(tiling.col_presence[xi]) /
        static_cast<double>(std::max<nnz_t>(1, tiling.col_groups[xi])));
  }

  if (fv.values.size() != feature_count()) {
    throw std::logic_error("extract_features: feature count drift");
  }
  return fv;
}

}  // namespace

const std::vector<std::string>& feature_names() {
  static const std::vector<std::string> names = build_names();
  return names;
}

std::size_t feature_count() { return kNumFeatures; }

FeatureSet column_presence_features() {
  // uniqC and potReuseC each follow a same-sized R block (see build_names).
  constexpr std::size_t kUniqC = 3 + 5 * 8 + kGroupFactors.size();
  constexpr std::size_t kPotReuseC = kUniqC + 2 * kGroupFactors.size();
  FeatureSet set;
  for (std::size_t x = 0; x < kGroupFactors.size(); ++x) {
    set.set(kUniqC + x);
    set.set(kPotReuseC + x);
  }
  return set;
}

DistStats row_dist_stats(const CsrMatrix& m) {
  // Histogram of the row_ptr adjacent differences, with no row-count
  // vector in between.
  return compute_dist_stats_of_prefix(m.row_ptr());
}

DistStats col_dist_stats(const CsrMatrix& m) {
  return compute_dist_stats(m.col_counts());
}

FeatureVector extract_features(const CsrMatrix& m,
                               const FeatureParams& params,
                               const FeatureSet& needed) {
  // Fused path: one parallel sweep produces tiles, blocks, presence sums,
  // and the column histogram; rows come from the row_ptr difference.
  obs::ScopedTimer total("features.extract");
  const FeatureSet col_presence = column_presence_features();
  const bool col_side = (needed & col_presence).any();
  const TilingResult tiling = [&] {
    obs::ScopedTimer span("features.extract.tiling");
    return analyze_tiling(m, params.tile_grid, col_side);
  }();
  obs::ScopedTimer span("features.extract.stats");
  const DistStats row_stats = row_dist_stats(m);
  const DistStats col_stats = compute_dist_stats(tiling.col_counts);
  FeatureVector fv = assemble_features(m, row_stats, col_stats, tiling);
  if (!col_side) {
    fv.computed &= ~col_presence;
    for (std::size_t i = 0; i < kNumFeatures; ++i) {
      if (!fv.computed[i]) fv.values[i] = kSkippedFeature;
    }
  }
  return fv;
}

FeatureVector extract_features_reference(const CsrMatrix& m,
                                         const FeatureParams& params) {
  const TilingResult tiling = analyze_tiling_reference(m, params.tile_grid);
  const DistStats row_stats = row_dist_stats(m);
  const DistStats col_stats = col_dist_stats(m);
  return assemble_features(m, row_stats, col_stats, tiling);
}

}  // namespace wise
