#pragma once
// The SpMM model bank: per-configuration speedup-class trees, trained and
// persisted independently of the SpMV ModelBank — a
// TreeBank<SpmmConfig> (wise/tree_bank.hpp).
//
// This is the paper's §7 add-a-method claim exercised end-to-end with a
// different operation class: SpMM configurations get their own decision
// trees over the same 67-feature vector (features/extractor.hpp), their
// own training run, and their own file (<dir>/spmm_models.txt) — adding
// SpMM prediction to a deployment never touches, retrains, or re-validates
// the SpMV bank's models.txt. Classes are the same C0..C6 relative-time
// buckets (wise/speedup_class.hpp), normalized against the kb=1/Dyn
// repeated-SpMV baseline instead of best-CSR. New SpMM configurations join
// a trained bank through SpmmBank::extended, as SpMV ones do.
//
// Persistence format (<dir>/spmm_models.txt), version 1 — the ModelBank v2
// framing with an SpMM header and no feature-dim record:
//
//   wise-spmm-bank v1
//   <#configs>
//   <checksummed tree records, ml/tree_record.hpp>

#include <span>
#include <string>
#include <vector>

#include "spmm/spmm.hpp"
#include "wise/tree_bank.hpp"

namespace wise {

template <>
struct BankTraits<spmm::SpmmConfig> {
  static constexpr BankFile kFile{.who = "SpmmBank",
                                  .name = "spmm_models.txt",
                                  .magic = "wise-spmm-bank",
                                  .version = 1,
                                  .oldest_version = 1,
                                  .checksums_since = 1,
                                  .features_since = 0};
  static spmm::SpmmConfig parse(const std::string& name) {
    return spmm::parse_spmm_config(name);
  }
};

}  // namespace wise

namespace wise::spmm {

/// Its train() targets are t_config / t_baseline, with the baseline
/// configs()[0], kb=1/Dyn.
using SpmmBank = TreeBank<SpmmConfig>;

struct SpmmChoice {
  SpmmConfig config;
  int predicted_class = 0;  ///< C0..C6 vs the kb=1/Dyn baseline
};

/// Picks the configuration with the best predicted speedup class; ties
/// break toward SpmmConfig::selection_rank() (smaller register block).
/// Throws std::logic_error on an untrained bank and std::invalid_argument
/// on a feature vector of the wrong width.
SpmmChoice choose(const SpmmBank& bank, std::span<const double> features);

/// Per-configuration SpMM seconds (per iteration, min over `repeats`
/// passes) on one matrix with a k-column RHS, in spmm_method_configs()
/// order. Used by training and the perf_smoke spmm stage.
std::vector<double> measure_spmm_seconds(const CsrMatrix& m, index_t k,
                                         int iters, int repeats = 1);

struct SpmmTrainOptions {
  index_t k = 8;    ///< RHS width measured during training
  int iters = 2;    ///< SpMM iterations per timing pass
  int repeats = 1;  ///< timing passes (minimum taken)
  TreeParams tree_params{.max_depth = 8, .ccp_alpha = 0.0};
};

/// Measures every configuration on each matrix and trains a bank on the
/// results — the quick path examples, tests, and the daemon's untrained
/// fallback use (mirrors examples' make_mini_wise()).
SpmmBank train_spmm_bank(std::span<const CsrMatrix> mats,
                         const SpmmTrainOptions& opts = {});

}  // namespace wise::spmm
