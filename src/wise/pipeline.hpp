#pragma once
// End-to-end WISE pipeline (paper Fig 8): feature extraction → per-config
// class prediction → selection → layout conversion → SpMV.
//
// This is the library's main user-facing entry point:
//
//   wise::Wise predictor(wise::ModelBank::load("models/"));
//   auto prepared = predictor.prepare(csr_matrix);   // picks + converts
//   prepared.run(x, y);                              // fast SpMV
//
// Callers that know how many SpMVs they will run pass that count as the
// horizon, so a bank with a prep head can weigh conversion cost
// (wise/selector.hpp); the default, unbounded horizon is the paper's.
//
// The choice is user-transparent: callers never name a format — and it is
// never worse than the CSR baseline. When any stage fails (invalid input,
// non-finite features, a corrupt model bank, a failed or over-budget layout
// conversion, std::bad_alloc), choose()/prepare() demote to the best CSR
// configuration instead of throwing, and record why in
// WiseChoice::fallback_reason. Failure paths are exercised deterministically
// via util/fault.hpp (WISE_FAULT_STAGES). See docs/ROBUSTNESS.md.
//
// Thread-safety contract (relied on by serve/server.hpp): choose() and
// prepare() are const and safe to call concurrently from any number of
// threads against one shared Wise/ModelBank. Audited guarantees:
//  * ModelBank::predict_classes walks the immutable flattened SoA node
//    arrays (ml/flat_tree.hpp), built eagerly at train()/load() time — no
//    lazy initialization, no caching, no mutable members. Its per-call
//    cursor state lives on the caller's stack.
//  * extract_features uses only locals and its own OpenMP region; its one
//    static (the feature-name table) has thread-safe magic-static init.
//  * The global MetricsRegistry and FaultInjector the stages consult are
//    internally synchronized.
// The mutable knobs below (feature_params, memory_budget_bytes) are
// configuration: set them before sharing the
// object across threads. The PreparedMatrix a prepare() returns is NOT
// concurrency-safe (see executor.hpp) — each caller runs its own.

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "features/extractor.hpp"
#include "spmv/executor.hpp"
#include "wise/model_bank.hpp"
#include "wise/selector.hpp"

namespace wise {

/// Outcome of the selection stage, including the measured decision costs.
struct WiseChoice {
  MethodConfig config;
  int predicted_class = 0;
  double feature_seconds = 0;    ///< feature-extraction wall time
  double inference_seconds = 0;  ///< tree-inference + selection wall time
  int feature_threads = 1;       ///< OpenMP threads available to the extractor
  /// The caller's horizon when the bank's prep head was consulted,
  /// kUnboundedHorizon otherwise.
  double horizon = kUnboundedHorizon;

  /// Empty on the normal path. On degradation: "<stage>: <why>", where
  /// stage is one of parse, feature, inference, conversion (see
  /// util/fault.hpp) and config has been demoted to the best CSR variant.
  std::string fallback_reason;

  /// The feature vector inference ran on, kept for the online-learning
  /// loop (src/learn/): a served RUN of this choice is a labeled sample.
  /// Null on the fallback paths (nothing was predicted, so there is
  /// nothing to learn from). Shared, not copied: the vector rides along
  /// through both serve cache tiers. It holds either every matrix feature
  /// or only those the bank reads (see features_complete), followed by
  /// the machine features of a hardware-conditioned bank.
  std::shared_ptr<const std::vector<double>> features;
  /// True when `features` carries all 67 matrix features. False when it
  /// carries only the ones the bank's trees read: Wise::choose extracts
  /// no more, and the other slots hold kSkippedFeature.
  bool features_complete = true;
  /// The extraction parameters `features` was computed with.
  FeatureParams feature_params;

  bool fell_back() const { return !fallback_reason.empty(); }

  /// `features` with every matrix feature: a copy when it is complete,
  /// otherwise re-extracted from `m` — the matrix this choice was made
  /// on — with the machine-feature tail carried over. Empty without
  /// features. A retrain may split on any feature, so what the
  /// online-learning log stores comes from here.
  std::vector<double> full_features(const CsrMatrix& m) const;
};

class Wise {
 public:
  /// Takes ownership of a trained bank. Throws if the bank is untrained.
  explicit Wise(ModelBank bank);

  /// Runs feature extraction + model inference + select_config over the
  /// configurations applicable to `m`, for `horizon` SpMV runs. Extracts
  /// only the features the bank reads (ModelBank::read_features). Never
  /// throws on data-driven failures: a failing stage demotes the choice to
  /// the best CSR configuration (see WiseChoice::fallback_reason). Throws
  /// std::invalid_argument on a horizon that is not > 0.
  WiseChoice choose(const CsrMatrix& m,
                    double horizon = kUnboundedHorizon) const;

  /// Validation + choose() + layout conversion. The returned
  /// PreparedMatrix references `m` when CSR is selected, so `m` must
  /// outlive it. Invalid input and a failed or over-budget conversion fall
  /// back to CSR rather than throwing.
  PreparedMatrix prepare(const CsrMatrix& m) const;

  /// Same, for `horizon` SpMV runs, reporting the (possibly demoted)
  /// choice through `choice_out`.
  PreparedMatrix prepare(const CsrMatrix& m, WiseChoice& choice_out,
                         double horizon = kUnboundedHorizon) const;

  const ModelBank& bank() const { return bank_; }

  FeatureParams feature_params;  ///< tiling resolution override, if any

  /// Upper bound in bytes for a converted (non-CSR) layout; conversions
  /// whose estimated or actual footprint exceeds it are demoted to CSR
  /// with a kResource fallback. 0 = unlimited. Initialized from the
  /// WISE_MEMORY_BUDGET environment variable (bytes, default 0).
  std::size_t memory_budget_bytes = 0;

 private:
  /// Also decides what choose() extracts (read_features()); that set is
  /// deliberately not part of feature_params, so a Wise that copies
  /// another's knobs onto a retrained bank still extracts what its own
  /// trees read.
  ModelBank bank_;
};

/// The configuration a failed stage demotes to: the bank's CSR variant
/// first in the selection tie-break order, or the library default (CSR,
/// static-contiguous) when the bank has none.
MethodConfig best_csr_config(const ModelBank& bank);

}  // namespace wise
