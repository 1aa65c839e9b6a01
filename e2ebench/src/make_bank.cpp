// Trains the benchmark's pinned model banks from fresh timings. Run once on
// the machine whose bank is to be pinned; the benchmark itself only loads
// the saved files and never trains during a run.
//
//   wise_e2e --make-bank e2ebench/bank --seed 7
//
// The SpMV bank is the paper's 29 configurations trained on the 67 matrix
// features (so choose() never runs the STREAM probe), with the extension
// configurations (BSR, ELL, HYB, DIA) grafted on through
// ModelBank::extended. The SpMM bank is trained at k = 8.
#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "common.hpp"
#include "exp/measure.hpp"
#include "exp/train.hpp"
#include "features/extractor.hpp"
#include "gen/generators.hpp"
#include "ml/dataset.hpp"
#include "spmm/model.hpp"
#include "spmv/applicability.hpp"
#include "spmv/bsr.hpp"
#include "spmv/executor.hpp"
#include "util/timer.hpp"
#include "wise/speedup_class.hpp"

namespace e2e {

namespace {

/// Relative time recorded for a configuration that cannot run a matrix:
/// far past the slowest speedup class.
constexpr double kInapplicable = 1e3;

/// Per-iteration seconds of `cfg`, timed over windows of >= 4 ms.
double time_config(const CsrMatrix& m, const wise::MethodConfig& cfg,
                   const Vec& x) {
  wise::PreparedMatrix pm = wise::PreparedMatrix::prepare(m, cfg);
  Vec y(static_cast<std::size_t>(m.nrows()));
  wise::Timer probe;
  pm.run(x, y);
  const int iters = std::clamp(
      static_cast<int>(4e-3 / std::max(probe.seconds(), 1e-9)) + 1, 3, 500);
  return wise::time_spmv(pm, x, y, iters, 3);
}

}  // namespace

int make_bank(const std::string& dir, std::uint64_t seed) {
  const wise::RmatClass extra_rmat[] = {wise::RmatClass::kMedSkew,
                                        wise::RmatClass::kHighLoc};
  std::vector<CsrMatrix> mats;
  std::vector<std::string> families;
  for (int i = 0; i < 60; ++i) {
    const auto rows = index_t{1} << (12 + i % 5);
    const double degree = 6.0 + 4.0 * (i % 4);
    const std::uint64_t s = mix_seed(seed, 5000 + i);
    if (i % 7 < 5) {
      const Family f = kFamilies[i % 7];
      mats.push_back(make_matrix(f, rows, degree, s));
      families.push_back(family_name(f));
    } else {
      const wise::RmatClass c = extra_rmat[i % 7 - 5];
      mats.push_back(CsrMatrix::from_coo(wise::generate_rmat(
          wise::rmat_class_params(c, rows, degree), s)));
      families.push_back(wise::rmat_class_name(c));
    }
  }

  // extended_method_configs() is the paper space plus the extensions; the
  // graft takes only the configurations the base bank lacks.
  const std::vector<wise::MethodConfig> paper = wise::all_method_configs();
  std::vector<wise::MethodConfig> ext;
  for (const auto& cfg : wise::extended_method_configs()) {
    if (std::find(paper.begin(), paper.end(), cfg) == paper.end()) {
      ext.push_back(cfg);
    }
  }
  std::vector<wise::MatrixRecord> records;
  std::vector<std::vector<double>> ext_rel;
  for (std::size_t i = 0; i < mats.size(); ++i) {
    const CsrMatrix& m = mats[i];
    records.push_back(wise::measure_matrix(m, "m" + std::to_string(i),
                                           families[i]));
    const double best_csr = records.back().best_csr_seconds();
    const Vec x = seeded_vector(static_cast<std::size_t>(m.ncols()),
                                mix_seed(seed, 6000 + i));
    std::vector<double> rel;
    for (const auto& cfg : ext) {
      rel.push_back(wise::config_applicable(cfg, m)
                        ? time_config(m, cfg, x) / best_csr
                        : kInapplicable);
    }
    ext_rel.push_back(std::move(rel));
    std::fprintf(stderr, "[make-bank] %zu/%zu %s rows=%d nnz=%lld\n", i + 1,
                 mats.size(), families[i].c_str(), m.nrows(),
                 static_cast<long long>(m.nnz()));
  }

  const wise::ModelBank base = wise::train_model_bank(records);
  std::vector<wise::DecisionTree> trees;
  for (std::size_t c = 0; c < ext.size(); ++c) {
    wise::Dataset data(wise::feature_names(), wise::kNumSpeedupClasses);
    for (std::size_t i = 0; i < records.size(); ++i) {
      data.add(records[i].features,
               wise::classify_relative_time(ext_rel[i][c]));
    }
    wise::DecisionTree tree;
    tree.fit(data);
    trees.push_back(std::move(tree));
  }
  const wise::ModelBank bank = wise::ModelBank::extended(base, ext, trees);

  std::filesystem::create_directories(dir);
  bank.save(dir);
  wise::spmm::train_spmm_bank(mats).save(dir);
  std::fprintf(stderr, "[make-bank] saved %zu SpMV configs (%zu features) and "
               "the SpMM bank to %s\n",
               bank.configs().size(), bank.feature_dim(), dir.c_str());
  return 0;
}

}  // namespace e2e
