// End-to-end integration tests: the full WISE lifecycle (measure → train →
// save → load → select → convert → run) plus cross-module interactions
// that unit tests cannot see.

#include <gtest/gtest.h>

#include <filesystem>

#include "exp/cache.hpp"
#include "exp/corpus.hpp"
#include "exp/train.hpp"
#include "gen/generators.hpp"
#include "graph/algorithms.hpp"
#include "solvers/solvers.hpp"
#include "sparse/utils.hpp"
#include "test_util.hpp"
#include "wise/pipeline.hpp"
#include "wise/selector.hpp"
#include "wise/speedup_class.hpp"
#include "wise/baselines.hpp"

namespace wise {
namespace {

using testing::expect_vectors_near;
using testing::random_vector;

/// Tiny corpus measured once per test binary run (fast: ~1 s).
class WiseLifecycle : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    std::vector<MatrixSpec> specs;
    std::uint64_t seed = 77;
    for (RmatClass cls :
         {RmatClass::kHighSkew, RmatClass::kLowSkew, RmatClass::kHighLoc}) {
      for (index_t n : {512, 2048}) {
        for (double deg : {4.0, 16.0}) {
          auto s = rmat_spec(cls, n, deg, seed++);
          s.id = "itest-" + s.id;
          specs.push_back(std::move(s));
        }
      }
    }
    records_ = new std::vector<MatrixRecord>();
    for (const auto& spec : specs) {
      records_->push_back(measure_matrix(spec, {.iters = 1, .repeats = 1}));
    }
  }
  static void TearDownTestSuite() {
    delete records_;
    records_ = nullptr;
  }

  static std::vector<MatrixRecord>* records_;
};

std::vector<MatrixRecord>* WiseLifecycle::records_ = nullptr;

TEST_F(WiseLifecycle, TrainSaveLoadPredictRun) {
  const ModelBank bank = train_model_bank(*records_, {.max_depth = 8});

  const auto dir =
      (std::filesystem::temp_directory_path() / "wise_itest_models").string();
  bank.save(dir);
  const Wise predictor{ModelBank::load(dir)};
  std::filesystem::remove_all(dir);

  // Fresh matrix the models never saw.
  const CsrMatrix m = CsrMatrix::from_coo(generate_rmat(
      rmat_class_params(RmatClass::kMedSkew, 1024, 8), 123));
  const WiseChoice choice = predictor.choose(m);
  EXPECT_GE(choice.predicted_class, 0);
  EXPECT_LT(choice.predicted_class, kNumSpeedupClasses);

  PreparedMatrix pm = predictor.prepare(m);
  const auto x = random_vector(static_cast<std::size_t>(m.ncols()), 5);
  std::vector<value_t> y(static_cast<std::size_t>(m.nrows()));
  std::vector<value_t> y_ref(y.size());
  pm.run(x, y);
  spmv_reference(m, x, y_ref);
  expect_vectors_near(y_ref, y);
}

TEST_F(WiseLifecycle, TrainedModelsBeatRandomSelectionOnTrainingSet) {
  const ModelBank bank = train_model_bank(*records_, {.max_depth = 10});
  const auto configs = all_method_configs();

  // WISE's training-set selections must, in aggregate, be at least as fast
  // as always-CSR (a sanity floor well below the oracle).
  double wise_total = 0, csr_total = 0;
  for (const auto& rec : *records_) {
    const auto classes = bank.predict_classes(rec.features);
    const std::size_t sel = select_best_config(configs, classes);
    wise_total += rec.config_seconds[sel];
    csr_total += rec.best_csr_seconds();
  }
  EXPECT_LE(wise_total, csr_total * 1.05);
}

TEST_F(WiseLifecycle, HorizonSelectionConvergesToPaperHeuristicAtLargeN) {
  // train_model_bank fits the prep head from the records' prep times.
  const ModelBank bank = train_model_bank(*records_, {.max_depth = 8});
  ASSERT_TRUE(bank.has_prep_head());
  const auto& configs = bank.configs();

  // At N = 1e9 the prep term vanishes; when the paper heuristic picks a
  // config whose predicted class is unique-best, both must agree on class.
  int agreements = 0;
  for (const auto& rec : *records_) {
    const auto classes = bank.predict_classes(rec.features);
    const std::size_t horizon_sel =
        select_config(configs, classes, {},
                      bank.predict_prep_classes(rec.features), 1e9);
    const std::size_t sel = select_best_config(configs, classes);
    agreements += (classes[horizon_sel] == classes[sel]);
  }
  EXPECT_GE(agreements, static_cast<int>(records_->size() * 0.9));
}

TEST(Integration, SolverOnWisePreparedMatrixMatchesCsr) {
  // Jacobi through a LAV-prepared operator: format conversion must be
  // numerically transparent for an iterative solver.
  const CsrMatrix a = make_diagonally_dominant(
      CsrMatrix::from_coo(generate_banded(2048, 8, 0.5, 3)));
  const std::vector<value_t> diag = extract_diagonal(a);
  const auto b = random_vector(2048, 9);

  PreparedMatrix pm = PreparedMatrix::prepare(
      a, {.kind = MethodKind::kLav,
          .sched = Schedule::kDyn,
          .c = 8,
          .sigma = kSigmaAll,
          .T = 0.8});
  const auto via_lav = solve_jacobi(
      [&pm](std::span<const value_t> x, std::span<value_t> y) {
        pm.run(x, y);
      },
      diag, b, {.max_iterations = 200, .tolerance = 1e-11});
  const auto via_csr = solve_jacobi(make_csr_operator(a), diag, b,
                                    {.max_iterations = 200,
                                     .tolerance = 1e-11});
  ASSERT_TRUE(via_lav.converged);
  EXPECT_EQ(via_lav.iterations, via_csr.iterations);
  for (std::size_t i = 0; i < via_lav.x.size(); ++i) {
    EXPECT_NEAR(via_lav.x[i], via_csr.x[i], 1e-9);
  }
}

TEST(Integration, PagerankThroughEveryMethodFamilyAgrees) {
  const CsrMatrix g = CsrMatrix::from_coo(generate_rmat(
      rmat_class_params(RmatClass::kHighSkew, 1024, 8), 4));
  const CsrMatrix m = pagerank_transition(g);

  const auto reference = pagerank(make_csr_operator(m), m.nrows());
  for (const auto& cfg : inspector_executor_candidates()) {
    PreparedMatrix pm = PreparedMatrix::prepare(m, cfg);
    const auto res = pagerank(
        [&pm](std::span<const value_t> x, std::span<value_t> y) {
          pm.run(x, y);
        },
        m.nrows());
    ASSERT_TRUE(res.converged) << cfg.name();
    for (std::size_t i = 0; i < res.rank.size(); ++i) {
      EXPECT_NEAR(res.rank[i], reference.rank[i], 1e-9) << cfg.name();
    }
  }
}

TEST(Integration, MeasurementCacheServesTrainedPipeline) {
  // The exact flow the benches use: cache → records → bank → selection.
  const auto dir =
      std::filesystem::temp_directory_path() / "wise_itest_cache";
  std::filesystem::remove_all(dir);
  MeasurementCache cache((dir / "m.csv").string());
  std::vector<MatrixSpec> specs;
  std::uint64_t seed = 500;
  for (index_t n : {256, 512}) {
    for (RmatClass cls : {RmatClass::kHighSkew, RmatClass::kLowLoc}) {
      auto s = rmat_spec(cls, n, 8, seed++);
      s.id = "cacheflow-" + s.id;
      specs.push_back(std::move(s));
    }
  }
  const auto records = cache.get_or_measure(specs, {.iters = 1, .repeats = 1});
  const ModelBank bank = train_model_bank(records, {.max_depth = 5});
  EXPECT_TRUE(bank.trained());
  const auto classes = bank.predict_classes(records[0].features);
  EXPECT_EQ(classes.size(), all_method_configs().size());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace wise
