#pragma once
// The method-selection heuristic (paper §4.4).
//
// Given one predicted speedup class per configuration, pick the
// configuration predicted fastest; break ties by preprocessing cost
// (CSR < SELLPACK < Sell-c-σ < Sell-c-R < LAV-1Seg < LAV), then by smaller
// parameter values (smaller parameters empirically preprocess faster).
// Generic over any config type with a `selection_rank()` tie-break order:
// the SpMV MethodConfig and the SpMM spmm::SpmmConfig.
//
// For a short run the conversion can cost more than it saves, so
// select_config extends the rule to a finite horizon of N SpMVs when the
// bank also predicts preparation-cost classes (its prep head): it
// minimises N * class_midpoint_rel(speed) + prep_class_midpoint(prep), in
// best-CSR iterations — the paper's order as N grows, cheap formats at
// small N.

#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "wise/speedup_class.hpp"

namespace wise {

namespace detail {

/// Index of the applicable configuration of least `cost(i)`, ties (within
/// 1e-12) broken by the smaller selection_rank(). An empty mask means
/// everything is applicable. Throws std::invalid_argument when nothing is.
template <class Config, class Cost>
std::size_t select_least_cost(const char* who,
                              const std::vector<Config>& configs,
                              const std::vector<char>& applicable, Cost cost) {
  std::size_t best = configs.size();
  double best_cost = 0;
  std::vector<double> best_rank;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    if (!applicable.empty() && applicable[i] == 0) continue;
    const double c = cost(i);
    if (best == configs.size() || c < best_cost - 1e-12) {
      best = i;
      best_cost = c;
      best_rank = configs[i].selection_rank();
    } else if (c < best_cost + 1e-12) {
      auto rank = configs[i].selection_rank();
      if (rank < best_rank) {
        best = i;
        best_cost = c;
        best_rank = std::move(rank);
      }
    }
  }
  if (best == configs.size()) {
    throw std::invalid_argument(std::string(who) +
                                ": no applicable configuration");
  }
  return best;
}

}  // namespace detail

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
  return detail::select_least_cost(
      "select_best_config", configs, applicable, [&](std::size_t i) {
        return -static_cast<double>(predicted_classes[i]);
      });
}

/// The horizon of a caller that runs the chosen layout indefinitely.
inline constexpr double kUnboundedHorizon =
    std::numeric_limits<double>::infinity();

/// The one selection rule, for an expected `horizon` of SpMV runs. With a
/// finite horizon and one prep class per configuration, the applicable
/// configuration of least expected total cost (see the file comment);
/// otherwise select_best_config. Throws std::invalid_argument on a horizon
/// that is not > 0, and as select_best_config does.
template <class Config>
std::size_t select_config(const std::vector<Config>& configs,
                          const std::vector<int>& predicted_classes,
                          const std::vector<char>& applicable,
                          const std::vector<int>& prep_classes,
                          double horizon) {
  if (!(horizon > 0)) {
    throw std::invalid_argument("select_config: horizon must be > 0");
  }
  if (std::isinf(horizon) || prep_classes.empty()) {
    return select_best_config(configs, predicted_classes, applicable);
  }
  if (configs.empty() || configs.size() != predicted_classes.size() ||
      configs.size() != prep_classes.size() ||
      (!applicable.empty() && applicable.size() != configs.size())) {
    throw std::invalid_argument("select_config: size mismatch");
  }
  return detail::select_least_cost(
      "select_config", configs, applicable, [&](std::size_t i) {
        return horizon * class_midpoint_rel(predicted_classes[i]) +
               prep_class_midpoint(prep_classes[i]);
      });
}

}  // namespace wise
