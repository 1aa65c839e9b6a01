#include "spmm/model.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>

#include "features/extractor.hpp"
#include "wise/selector.hpp"

namespace wise::spmm {

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

SpmmChoice choose(const SpmmBank& bank, std::span<const double> features) {
  const std::vector<int> classes = bank.predict_classes(features);
  const std::size_t best = select_best_config(bank.configs(), classes);
  return {bank.configs()[best], classes[best]};
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
