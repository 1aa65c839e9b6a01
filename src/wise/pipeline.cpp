#include "wise/pipeline.hpp"

#include <cassert>
#include <cmath>
#include <new>
#include <stdexcept>

#include <omp.h>

#include "hw/probe.hpp"
#include "obs/metrics.hpp"
#include "spmv/applicability.hpp"
#include "util/env.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/timer.hpp"
#include "wise/selector.hpp"

namespace wise {

namespace {

/// Stamps a demoted choice: CSR config + "<stage>: <why>".
void demote(WiseChoice& choice, const ModelBank& bank, const char* stg,
            const std::string& why) {
  choice.predicted_class = 0;
  choice.config = best_csr_config(bank);
  choice.fallback_reason = std::string(stg) + ": " + why;
  obs::MetricsRegistry::global().add("wise.fallback.count");
}

/// select_config over the configurations applicable to `m`, running a
/// kind's applicability predicate only when that kind wins: a rejected
/// winner masks its whole kind and the selection reruns, at most once per
/// kind. Equals select_config over applicability_mask(configs, m) — an
/// applicable unmasked minimum is also the masked minimum, with the same
/// cost and selection_rank() tie-break.
std::size_t select_applicable(const std::vector<MethodConfig>& configs,
                              const std::vector<int>& classes,
                              const std::vector<int>& prep_classes,
                              double horizon, const CsrMatrix& m) {
  std::vector<char> applicable;  // empty: nothing rejected yet
  for (;;) {
    const std::size_t best =
        select_config(configs, classes, applicable, prep_classes, horizon);
    if (config_applicable(configs[best], m)) return best;
    const MethodKind kind = configs[best].kind;
    applicable.resize(configs.size(), 1);
    for (std::size_t i = 0; i < configs.size(); ++i) {
      if (configs[i].kind == kind) applicable[i] = 0;
    }
  }
}

}  // namespace

MethodConfig best_csr_config(const ModelBank& bank) {
  const MethodConfig* best = nullptr;
  for (const MethodConfig& cfg : bank.configs()) {
    if (cfg.kind != MethodKind::kCsr) continue;
    if (best == nullptr || cfg.selection_rank() < best->selection_rank()) {
      best = &cfg;
    }
  }
  return best != nullptr ? *best : MethodConfig{};
}

std::vector<double> WiseChoice::full_features(const CsrMatrix& m) const {
  if (features == nullptr) return {};
  if (features_complete) return *features;
  std::vector<double> full = extract_features(m, feature_params).values;
  full.insert(full.end(), features->begin() + static_cast<std::ptrdiff_t>(
                                                  kNumFeatures),
              features->end());
  return full;
}

Wise::Wise(ModelBank bank) : bank_(std::move(bank)) {
  if (!bank_.trained()) {
    throw std::invalid_argument("Wise: model bank is not trained");
  }
  memory_budget_bytes =
      static_cast<std::size_t>(env_int("WISE_MEMORY_BUDGET", 0));
}

WiseChoice Wise::choose(const CsrMatrix& m, double horizon) const {
  if (!(horizon > 0)) {
    throw std::invalid_argument("Wise::choose: horizon must be > 0");
  }
  WiseChoice choice;
  choice.feature_threads = omp_get_max_threads();
  auto& metrics = obs::MetricsRegistry::global();
  metrics.add("wise.choose.count");
  metrics.set_gauge("wise.feature.threads",
                    static_cast<double>(choice.feature_threads));

  FeatureVector features;
  Timer t;
  try {
    obs::ScopedTimer span("wise.choose.feature");
    FaultInjector::global().maybe_throw(stage::kFeature,
                                        ErrorCategory::kValidation);
    features = extract_features(m, feature_params, bank_.read_features());
    // Extraction skips only groups the trees never read.
    assert((bank_.read_features() & ~features.computed).none());
    for (std::size_t i = 0; i < features.values.size(); ++i) {
      if (features.computed[i] && !std::isfinite(features.values[i])) {
        throw Error(ErrorCategory::kValidation, "non-finite feature value",
                    {.stage = stage::kFeature});
      }
    }
  } catch (const std::exception& e) {
    choice.feature_seconds = t.seconds();
    demote(choice, bank_, stage::kFeature, e.what());
    return choice;
  }
  choice.feature_seconds = t.seconds();

  t.reset();
  try {
    obs::ScopedTimer span("wise.choose.inference");
    FaultInjector::global().maybe_throw(stage::kInference,
                                        ErrorCategory::kModelBank);
    if (bank_.feature_dim() > features.values.size()) {
      // A hardware-conditioned bank (ModelBank v3 with machine-feature
      // columns): complete the vector with this machine's probe. Any
      // remaining width mismatch throws below and demotes to CSR.
      for (double v : hw::machine_features()) {
        features.values.push_back(v);
      }
    }
    const std::vector<int> classes = bank_.predict_classes(features.values);
    std::vector<int> prep_classes;
    if (!std::isinf(horizon) && bank_.has_prep_head()) {
      prep_classes = bank_.predict_prep_classes(features.values);
    }
    const std::size_t best =
        select_applicable(bank_.configs(), classes, prep_classes, horizon, m);
    choice.config = bank_.configs()[best];
    choice.predicted_class = classes[best];
    if (!prep_classes.empty()) choice.horizon = horizon;
  } catch (const std::exception& e) {
    choice.inference_seconds = t.seconds();
    demote(choice, bank_, stage::kInference, e.what());
    return choice;
  }
  choice.inference_seconds = t.seconds();
  choice.features = std::make_shared<const std::vector<double>>(
      std::move(features.values));
  choice.features_complete = features.computed.all();
  choice.feature_params = feature_params;
  return choice;
}

PreparedMatrix Wise::prepare(const CsrMatrix& m) const {
  WiseChoice choice;
  return prepare(m, choice);
}

PreparedMatrix Wise::prepare(const CsrMatrix& m, WiseChoice& choice_out,
                             double horizon) const {
  if (!(horizon > 0)) {
    throw std::invalid_argument("Wise::prepare: horizon must be > 0");
  }
  try {
    FaultInjector::global().maybe_throw(stage::kParse,
                                        ErrorCategory::kValidation);
    {
      obs::ScopedTimer span("wise.prepare.validate");
      m.validate();
    }
    choice_out = choose(m, horizon);
  } catch (const std::exception& e) {
    // Input validation failed before selection could run; the CSR baseline
    // executes the matrix as-is.
    choice_out = WiseChoice{};
    choice_out.feature_threads = omp_get_max_threads();
    demote(choice_out, bank_, stage::kParse, e.what());
  }

  if (choice_out.config.kind != MethodKind::kCsr) {
    try {
      obs::ScopedTimer span("wise.prepare.conversion");
      FaultInjector::global().maybe_throw(stage::kConversion,
                                          ErrorCategory::kConversion);
      if (memory_budget_bytes > 0 && m.memory_bytes() > memory_budget_bytes) {
        // A converted layout stores at least the CSR nonzeros (plus
        // padding), so exceeding the budget is knowable before building.
        throw Error(ErrorCategory::kResource,
                    "conversion estimate exceeds memory budget of " +
                        std::to_string(memory_budget_bytes) + " bytes",
                    {.stage = stage::kConversion});
      }
      PreparedMatrix pm = PreparedMatrix::prepare(m, choice_out.config);
      if (memory_budget_bytes > 0 &&
          pm.memory_bytes() > memory_budget_bytes) {
        throw Error(ErrorCategory::kResource,
                    "converted layout (" + std::to_string(pm.memory_bytes()) +
                        " bytes) exceeds memory budget of " +
                        std::to_string(memory_budget_bytes) + " bytes",
                    {.stage = stage::kConversion});
      }
      return pm;
    } catch (const std::bad_alloc&) {
      demote(choice_out, bank_, stage::kConversion,
             "out of memory during layout conversion");
    } catch (const std::exception& e) {
      demote(choice_out, bank_, stage::kConversion, e.what());
    }
  }
  return PreparedMatrix::prepare(m, choice_out.config);
}

}  // namespace wise
