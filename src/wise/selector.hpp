#pragma once
// The method-selection heuristic (paper §4.4).
//
// Given one predicted speedup class per configuration, pick the
// configuration predicted fastest; break ties by preprocessing cost
// (CSR < SELLPACK < Sell-c-σ < Sell-c-R < LAV-1Seg < LAV), then by smaller
// parameter values (smaller parameters empirically preprocess faster).
// Generic over any config type with a `selection_rank()` tie-break order:
// the SpMV MethodConfig and the SpMM spmm::SpmmConfig.

#include <cstddef>
#include <stdexcept>
#include <vector>

namespace wise {

/// Index into `configs` of the chosen configuration, restricted to
/// configurations whose mask entry is nonzero (an empty mask means
/// everything is applicable; see spmv/applicability.hpp).
/// Throws std::invalid_argument when sizes mismatch, inputs are empty, or
/// no configuration is applicable.
template <class Config>
std::size_t select_best_config(const std::vector<Config>& configs,
                               const std::vector<int>& predicted_classes,
                               const std::vector<char>& applicable = {}) {
  if (configs.empty() || configs.size() != predicted_classes.size() ||
      (!applicable.empty() && applicable.size() != configs.size())) {
    throw std::invalid_argument("select_best_config: size mismatch");
  }
  std::size_t best = configs.size();
  std::vector<double> best_rank;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    if (!applicable.empty() && applicable[i] == 0) continue;
    if (best == configs.size() ||
        predicted_classes[i] > predicted_classes[best]) {
      best = i;
      best_rank = configs[i].selection_rank();
    } else if (predicted_classes[i] == predicted_classes[best]) {
      auto rank = configs[i].selection_rank();
      if (rank < best_rank) {
        best = i;
        best_rank = std::move(rank);
      }
    }
  }
  if (best == configs.size()) {
    throw std::invalid_argument(
        "select_best_config: no applicable configuration");
  }
  return best;
}

}  // namespace wise
