#include "spmm/model.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "features/extractor.hpp"
#include "ml/tree_record.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "wise/speedup_class.hpp"

namespace wise::spmm {

namespace {

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw Error(ErrorCategory::kModelBank, "SpmmBank::load: " + what,
              {.file = path, .stage = stage::kModelBank});
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void SpmmBank::train(const std::vector<SpmmConfig>& configs,
                     const std::vector<std::vector<double>>& features,
                     const std::vector<std::vector<double>>& rel_times,
                     const TreeParams& params) {
  if (configs.empty()) {
    throw std::invalid_argument("SpmmBank::train: no configurations");
  }
  if (features.size() != rel_times.size() || features.empty()) {
    throw std::invalid_argument("SpmmBank::train: shape mismatch");
  }
  for (const auto& row : rel_times) {
    if (row.size() != configs.size()) {
      throw std::invalid_argument(
          "SpmmBank::train: rel_times width != #configs");
    }
  }

  configs_ = configs;
  warnings_.clear();
  trees_.clear();
  trees_.resize(configs.size());

  const auto& names = feature_names();
  for (std::size_t c = 0; c < configs.size(); ++c) {
    Dataset ds(names, kNumSpeedupClasses);
    for (std::size_t i = 0; i < features.size(); ++i) {
      ds.add(features[i], classify_relative_time(rel_times[i][c]));
    }
    trees_[c].fit(ds, params);
  }
}

SpmmChoice SpmmBank::choose(std::span<const double> features) const {
  if (!trained()) {
    throw std::logic_error("SpmmBank::choose: not trained");
  }
  SpmmChoice best;
  int best_class = -1;
  std::vector<double> best_rank;
  for (std::size_t c = 0; c < configs_.size(); ++c) {
    const int cls = trees_[c].predict(features);
    auto rank = configs_[c].selection_rank();
    const bool better =
        cls > best_class ||
        (cls == best_class && (best_rank.empty() || rank < best_rank));
    if (better) {
      best_class = cls;
      best_rank = std::move(rank);
      best = {configs_[c], cls};
    }
  }
  return best;
}

int SpmmBank::predict_class(std::size_t config_index,
                            std::span<const double> features) const {
  if (config_index >= trees_.size()) {
    throw std::out_of_range("SpmmBank::predict_class: bad config index");
  }
  return trees_[config_index].predict(features);
}

void SpmmBank::save(const std::string& dir) const {
  if (!trained()) throw std::logic_error("SpmmBank::save: not trained");
  std::filesystem::create_directories(dir);
  const auto path =
      (std::filesystem::path(dir) / "spmm_models.txt").string();
  std::ofstream out(path);
  if (!out) {
    throw Error(ErrorCategory::kResource,
                "SpmmBank::save: cannot write to " + dir, {.file = path});
  }
  out << "wise-spmm-bank v1\n" << configs_.size() << '\n';
  for (std::size_t c = 0; c < configs_.size(); ++c) {
    write_tree_record(out, configs_[c].name(), trees_[c]);
  }
  if (!out) {
    throw Error(ErrorCategory::kResource,
                "SpmmBank::save: write failed for " + path, {.file = path});
  }
}

SpmmBank SpmmBank::load(const std::string& dir) {
  const auto path =
      (std::filesystem::path(dir) / "spmm_models.txt").string();
  std::ifstream in(path);
  if (!in) fail(path, "cannot open spmm models in " + dir);

  std::string magic, version;
  in >> magic >> version;
  if (magic != "wise-spmm-bank" || version != "v1") {
    fail(path, "bad header");
  }
  std::size_t n = 0;
  in >> n;
  if (!in || n == 0 || n > 100000) {
    fail(path, "implausible configuration count");
  }
  in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');

  SpmmBank bank;
  bank.configs_.reserve(n);
  bank.trees_.reserve(n);
  read_tree_records(
      in, n, path, "SpmmBank::load",
      [&](const std::string& name, DecisionTree tree) {
        bank.configs_.push_back(parse_spmm_config(name));
        bank.trees_.push_back(std::move(tree));
      },
      bank.warnings_);
  return bank;
}

std::vector<double> measure_spmm_seconds(const CsrMatrix& m, index_t k,
                                         int iters, int repeats) {
  if (iters < 1 || repeats < 1) {
    throw std::invalid_argument("measure_spmm_seconds: bad iteration count");
  }
  const auto& configs = spmm_method_configs();
  const std::size_t xn = static_cast<std::size_t>(m.ncols()) *
                         static_cast<std::size_t>(k);
  const std::size_t yn = static_cast<std::size_t>(m.nrows()) *
                         static_cast<std::size_t>(k);
  std::vector<value_t> x(xn), y(yn);
  for (std::size_t i = 0; i < xn; ++i) {
    x[i] = 1.0 + 0.001 * static_cast<double>(i % 1024);
  }

  std::vector<double> seconds(configs.size(), 0.0);
  for (std::size_t c = 0; c < configs.size(); ++c) {
    double best = std::numeric_limits<double>::infinity();
    for (int r = 0; r < repeats; ++r) {
      const double t0 = now_seconds();
      for (int it = 0; it < iters; ++it) {
        spmm_csr(m, x, y, k, configs[c]);
      }
      best = std::min(best, (now_seconds() - t0) / iters);
    }
    // Clamp to the timer's resolution so a tiny matrix can never produce
    // a zero time (classify_relative_time rejects non-positive ratios).
    seconds[c] = std::max(best, 1e-9);
  }
  return seconds;
}

SpmmBank train_spmm_bank(std::span<const CsrMatrix> mats,
                         const SpmmTrainOptions& opts) {
  if (mats.empty()) {
    throw std::invalid_argument("train_spmm_bank: no matrices");
  }
  const auto& configs = spmm_method_configs();
  std::vector<std::vector<double>> features;
  std::vector<std::vector<double>> rel_times;
  features.reserve(mats.size());
  rel_times.reserve(mats.size());
  for (const CsrMatrix& m : mats) {
    const auto seconds =
        measure_spmm_seconds(m, opts.k, opts.iters, opts.repeats);
    std::vector<double> rel(configs.size());
    for (std::size_t c = 0; c < configs.size(); ++c) {
      rel[c] = seconds[c] / seconds[0];
    }
    features.push_back(extract_features(m).values);
    rel_times.push_back(std::move(rel));
  }
  SpmmBank bank;
  bank.train(configs, features, rel_times, opts.tree_params);
  return bank;
}

}  // namespace wise::spmm
