#include "exp/train.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "hw/probe.hpp"

namespace wise {

namespace {

/// The one records → targets loop: feature rows are each record's
/// features followed by `extra_columns`.
ModelBank train_bank(const std::vector<MatrixRecord>& records,
                     const std::vector<double>& extra_columns,
                     const TreeParams& params, const std::string& who) {
  if (records.empty()) {
    throw std::invalid_argument(who + ": no records");
  }
  const auto configs = all_method_configs();
  const bool with_prep = std::all_of(
      records.begin(), records.end(), [&](const MatrixRecord& rec) {
        return rec.config_prep_seconds.size() == configs.size() &&
               rec.best_csr_seconds() > 0.0;
      });
  std::vector<std::vector<double>> features, rel_times, prep_iters;
  for (const auto& rec : records) {
    features.push_back(rec.features);
    features.back().insert(features.back().end(), extra_columns.begin(),
                           extra_columns.end());
    const double base = rec.best_csr_seconds();
    auto& rel = rel_times.emplace_back(configs.size());
    auto& prep = prep_iters.emplace_back(configs.size());
    for (std::size_t c = 0; c < configs.size(); ++c) {
      rel[c] = rec.config_seconds[c] / base;
      if (with_prep) prep[c] = rec.config_prep_seconds[c] / base;
    }
  }
  ModelBank bank;
  bank.train(configs, features, rel_times, params);
  if (with_prep) bank.train_prep(features, prep_iters, params);
  return bank;
}

}  // namespace

ModelBank train_model_bank(const std::vector<MatrixRecord>& records,
                           const TreeParams& params) {
  return train_bank(records, {}, params, "train_model_bank");
}

ModelBank train_model_bank_conditioned(
    const std::vector<MatrixRecord>& records, const TreeParams& params) {
  return train_bank(records, hw::machine_features(), params,
                    "train_model_bank_conditioned");
}

}  // namespace wise
