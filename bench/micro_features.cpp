// Microbenchmarks for WISE's decision costs: feature extraction, tiling
// analysis, tree inference, and the full choose() path. These are the
// components of the preprocessing overhead the paper reports in Fig 13c.

#include <benchmark/benchmark.h>

#include <omp.h>

#include "features/extractor.hpp"
#include "features/tiling.hpp"
#include "gen/generators.hpp"
#include "ml/decision_tree.hpp"
#include "util/prng.hpp"

namespace {

using namespace wise;

const CsrMatrix& fixture_matrix() {
  static const CsrMatrix m = CsrMatrix::from_coo(generate_rmat(
      rmat_class_params(RmatClass::kMedSkew, 16384, 16), 7));
  return m;
}

/// Paper-scale fixture: 2^20 rows, avg degree 8 (~8.4M nonzeros). Built once
/// on first use so the small benchmarks stay cheap to run in isolation.
const CsrMatrix& large_fixture_matrix() {
  static const CsrMatrix m = CsrMatrix::from_coo(generate_rmat(
      rmat_class_params(RmatClass::kMedSkew, index_t{1} << 20, 8), 11));
  return m;
}

void report_threads(benchmark::State& state) {
  state.counters["threads"] =
      benchmark::Counter(static_cast<double>(omp_get_max_threads()));
}

void BM_ExtractFeatures(benchmark::State& state) {
  const CsrMatrix& m = fixture_matrix();
  for (auto _ : state) {
    const FeatureVector fv = extract_features(m);
    benchmark::DoNotOptimize(fv.values.data());
  }
  state.SetItemsProcessed(state.iterations() * m.nnz());
  report_threads(state);
}
BENCHMARK(BM_ExtractFeatures)->Unit(benchmark::kMillisecond);

void BM_ExtractFeaturesSerialRef(benchmark::State& state) {
  // The pre-parallelization baseline (serial sweeps + explicit transpose);
  // the ratio to BM_ExtractFeatures is the decision-cost speedup gate.
  const CsrMatrix& m = fixture_matrix();
  for (auto _ : state) {
    const FeatureVector fv = extract_features_reference(m);
    benchmark::DoNotOptimize(fv.values.data());
  }
  state.SetItemsProcessed(state.iterations() * m.nnz());
  report_threads(state);
}
BENCHMARK(BM_ExtractFeaturesSerialRef)->Unit(benchmark::kMillisecond);

void BM_ExtractFeaturesLarge(benchmark::State& state) {
  const CsrMatrix& m = large_fixture_matrix();
  for (auto _ : state) {
    const FeatureVector fv = extract_features(m);
    benchmark::DoNotOptimize(fv.values.data());
  }
  state.SetItemsProcessed(state.iterations() * m.nnz());
  report_threads(state);
}
BENCHMARK(BM_ExtractFeaturesLarge)->Unit(benchmark::kMillisecond);

void BM_ExtractFeaturesLargeBankSubset(benchmark::State& state) {
  // What Wise::choose extracts for a bank that reads no column-presence
  // feature (the pinned e2ebench banks): the column group is skipped.
  const CsrMatrix& m = large_fixture_matrix();
  const FeatureSet needed = all_features() & ~column_presence_features();
  for (auto _ : state) {
    const FeatureVector fv = extract_features(m, {}, needed);
    benchmark::DoNotOptimize(fv.values.data());
  }
  state.SetItemsProcessed(state.iterations() * m.nnz());
  report_threads(state);
}
BENCHMARK(BM_ExtractFeaturesLargeBankSubset)->Unit(benchmark::kMillisecond);

void BM_ExtractFeaturesLargeSerialRef(benchmark::State& state) {
  const CsrMatrix& m = large_fixture_matrix();
  for (auto _ : state) {
    const FeatureVector fv = extract_features_reference(m);
    benchmark::DoNotOptimize(fv.values.data());
  }
  state.SetItemsProcessed(state.iterations() * m.nnz());
  report_threads(state);
}
BENCHMARK(BM_ExtractFeaturesLargeSerialRef)->Unit(benchmark::kMillisecond);

void BM_CsrValidate(benchmark::State& state) {
  // The admission check Wise::prepare runs before the features, on the
  // same fixture as BM_ExtractFeaturesLarge.
  const CsrMatrix& m = large_fixture_matrix();
  for (auto _ : state) m.validate();
  state.SetItemsProcessed(state.iterations() * m.nnz());
  report_threads(state);
}
BENCHMARK(BM_CsrValidate)->Unit(benchmark::kMillisecond);

void BM_AnalyzeTiling(benchmark::State& state) {
  const CsrMatrix& m = fixture_matrix();
  for (auto _ : state) {
    const TilingResult t = analyze_tiling(m);
    benchmark::DoNotOptimize(t.tile_counts.data());
  }
  state.SetItemsProcessed(state.iterations() * m.nnz());
  report_threads(state);
}
BENCHMARK(BM_AnalyzeTiling)->Unit(benchmark::kMillisecond);

void BM_AnalyzeTilingSerialRef(benchmark::State& state) {
  const CsrMatrix& m = fixture_matrix();
  for (auto _ : state) {
    const TilingResult t = analyze_tiling_reference(m);
    benchmark::DoNotOptimize(t.tile_counts.data());
  }
  state.SetItemsProcessed(state.iterations() * m.nnz());
  report_threads(state);
}
BENCHMARK(BM_AnalyzeTilingSerialRef)->Unit(benchmark::kMillisecond);

void BM_RowColStats(benchmark::State& state) {
  const CsrMatrix& m = fixture_matrix();
  for (auto _ : state) {
    const DistStats r = row_dist_stats(m);
    const DistStats c = col_dist_stats(m);
    benchmark::DoNotOptimize(r.gini + c.gini);
  }
}
BENCHMARK(BM_RowColStats)->Unit(benchmark::kMillisecond);

void BM_DistStats(benchmark::State& state) {
  // One distribution's eight statistics on the large fixture: Arg 0 is R
  // (straight from row_ptr), Arg 1 is C (from the column counts the
  // tiling sweep would hand over).
  const CsrMatrix& m = large_fixture_matrix();
  static const std::vector<nnz_t> col_counts = m.col_counts();
  const bool rows = state.range(0) == 0;
  for (auto _ : state) {
    const DistStats s =
        rows ? row_dist_stats(m) : compute_dist_stats(col_counts);
    benchmark::DoNotOptimize(s.gini);
  }
  state.SetItemsProcessed(state.iterations() *
                          (rows ? m.nrows() : m.ncols()));
  report_threads(state);
}
BENCHMARK(BM_DistStats)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_TreeInference(benchmark::State& state) {
  // A fitted tree of realistic size; inference must be microseconds.
  Dataset ds(feature_names(), 7);
  Xoshiro256 rng(3);
  for (int i = 0; i < 500; ++i) {
    std::vector<double> f(feature_count());
    for (auto& v : f) v = rng.next_double();
    ds.add(std::move(f), static_cast<int>(rng.next_below(7)));
  }
  DecisionTree tree;
  tree.fit(ds, {.max_depth = 15, .ccp_alpha = 0.0});

  std::vector<double> probe(feature_count());
  for (auto& v : probe) v = rng.next_double();
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.predict(probe));
  }
}
BENCHMARK(BM_TreeInference);

void BM_TreeTraining(benchmark::State& state) {
  Dataset ds(feature_names(), 7);
  Xoshiro256 rng(4);
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    std::vector<double> f(feature_count());
    for (auto& v : f) v = rng.next_double();
    ds.add(std::move(f), static_cast<int>(rng.next_below(7)));
  }
  for (auto _ : state) {
    DecisionTree tree;
    tree.fit(ds, {.max_depth = 15, .ccp_alpha = 0.005});
    benchmark::DoNotOptimize(tree.num_nodes());
  }
}
BENCHMARK(BM_TreeTraining)->Arg(100)->Arg(400)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
