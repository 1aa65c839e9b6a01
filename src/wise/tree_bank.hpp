#pragma once
// The bank of per-configuration decision trees (paper §4.3, Fig 8 step 2).
//
// WISE trains one decision tree per configuration; each tree maps a
// matrix's feature vector to a class of that configuration, and §7 adds
// methods by training only the new trees. TreeBank<Config> is that design,
// written once:
//
//   ModelBank        = TreeBank<MethodConfig>        (wise/model_bank.hpp)
//   spmm::SpmmBank   = TreeBank<spmm::SpmmConfig>    (spmm/model.hpp)
//
// The speed head predicts C0..C6 of t_config / t_baseline; the optional
// prep head (train_prep) predicts P0..P5 of each configuration's
// preparation cost in baseline iterations (wise/speedup_class.hpp).
// Inference always runs on the flattened ensembles (ml/flat_tree.hpp),
// bit-identical to walking each tree for finite features, behind a
// feature-width check.
//
// Each config type names its bank file through BankTraits<Config>; the
// header is data, not a code fork:
//
//   <magic> v<version>
//   features <feature dim>     only from BankFile::features_since on
//   <#configs>
//   <config name>
//   tree <payload bytes> <fnv1a checksum, hex>     (ml/tree_record.hpp)
//   <payload: serialized DecisionTree, exactly that many bytes>
//   ... repeated per configuration ...
//   prep <#configs>            only from BankFile::prep_since on
//   <the same tree records for the prep head, in configuration order>
//
// A bank without a prep head saves as BankFile::version. Versions older than
// BankFile::checksums_since carry a bare "<config name>\n<tree>" body and
// load strictly. A file older than features_since loads with a counted
// "legacy" warning, pinned to the 67 matrix features. Corrupt individual
// speed trees are skipped with a warning (degrade, don't die); a bank in
// which no speed tree survives throws wise::Error (kModelBank). A damaged
// or misaligned prep section drops only the prep head, with one warning.

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "features/extractor.hpp"
#include "ml/decision_tree.hpp"
#include "ml/flat_tree.hpp"
#include "wise/speedup_class.hpp"

namespace wise {

/// The on-disk header of one bank type.
struct BankFile {
  const char* who;       ///< message prefix, e.g. "ModelBank"
  const char* name;      ///< file name inside the bank directory
  const char* magic;     ///< first header token
  int version;           ///< the version save() writes without a prep head
  int oldest_version;    ///< load() reads oldest_version and newer
  int checksums_since;   ///< first version with checksummed tree records
  int features_since;    ///< first version with a features record; 0 = none
  /// The version save() writes with a prep head, and the first that may
  /// carry one; 0 = this bank type never has one.
  int prep_since = 0;

  bool has_features(int v) const {
    return features_since != 0 && v >= features_since;
  }
  bool has_prep(int v) const { return prep_since != 0 && v >= prep_since; }
};

/// Specialized per config type: `static constexpr BankFile kFile` and
/// `static Config parse(const std::string& name)`, the inverse of
/// Config::name().
template <class Config>
struct BankTraits;

namespace detail {

/// The config-independent body of TreeBank<Config>: the trees, their
/// flattened ensemble, the feature width, and the bank-file framing.
class TreeBankCore {
 public:
  /// Predicted class of a single configuration (holdout validation and
  /// spot checks; the serving path uses predict_classes_into).
  int predict_class(std::size_t config_index,
                    std::span<const double> features) const;

  /// Predicted class per configuration, in configs() order, from one
  /// lockstep sweep over the flattened ensemble.
  std::vector<int> predict_classes(std::span<const double> features) const;

  /// predict_classes without the allocation: out.size() must equal the
  /// number of configurations. The serving hot path calls this per request.
  void predict_classes_into(std::span<const double> features,
                            std::span<int> out) const;

  /// Width of the feature vectors this bank was trained on: 67 for plain
  /// matrix-feature banks (including every file without a features
  /// record), larger for hardware-conditioned banks (the extra columns are
  /// hw::machine_feature_names()). predict_* throws std::invalid_argument
  /// on a vector of any other width.
  std::size_t feature_dim() const;

  /// The matrix features (indices below kNumFeatures) that some tree of
  /// either head splits on: all that inference reads of an extraction.
  /// Derived whenever the trees change; the file format does not record it.
  const FeatureSet& read_features() const { return reads_; }

  const std::vector<DecisionTree>& trees() const { return trees_; }
  const FlatTreeEnsemble& flat() const { return flat_; }
  bool trained() const { return !trees_.empty(); }

  /// Fits the prep head: one P0..P5 tree per configuration, on the speed
  /// head's feature width. prep_targets[i][c] is the preparation
  /// cost of configuration c on training matrix i, in baseline
  /// iterations. Throws std::logic_error on an untrained bank and
  /// std::invalid_argument on shape mismatches.
  void train_prep(const std::vector<std::vector<double>>& features,
                  const std::vector<std::vector<double>>& prep_targets,
                  const TreeParams& params = {});

  /// True when the bank carries the optional prep head.
  bool has_prep_head() const { return !prep_trees_.empty(); }
  /// The prep head's trees, in configs() order; empty without one.
  const std::vector<DecisionTree>& prep_trees() const { return prep_trees_; }

  /// Predicted prep class per configuration, in configs() order. Throws
  /// std::logic_error without a prep head, std::invalid_argument on a
  /// feature vector of the wrong width.
  std::vector<int> predict_prep_classes(std::span<const double> features) const;

  /// Human-readable reports of trees skipped, or a prep head dropped, by
  /// load(); empty when the bank loaded cleanly.
  const std::vector<std::string>& warnings() const { return warnings_; }

 protected:
  explicit TreeBankCore(const BankFile& file) : file_(&file) {}

  /// Fits the speed head, one tree per target column, and drops any prep
  /// head. Throws std::invalid_argument on shape mismatches.
  void fit(std::size_t num_configs,
           const std::vector<std::vector<double>>& features,
           const std::vector<std::vector<double>>& targets,
           const TreeParams& params);

  /// Installs fitted speed trees and an optional prep head (empty = none)
  /// and rebuilds the flat ensembles (which reject unfitted trees).
  /// `feature_dim` 0 means the default 67. Throws std::invalid_argument
  /// when a prep head does not cover every configuration.
  void set_trees(std::vector<DecisionTree> trees, std::size_t feature_dim,
                 std::vector<DecisionTree> prep_trees = {});

  void save_file(const std::string& dir,
                 const std::vector<std::string>& names) const;

  /// Reads the bank file; `add_config(name)` runs for every kept tree
  /// before the tree is appended (a throw skips the tree).
  void load_file(const std::string& dir,
                 const std::function<void(const std::string&)>& add_config);

  /// "<who>::<what>: " message prefix.
  std::string where(const char* what) const;

 private:
  void check_width(std::span<const double> features) const;
  /// Recomputes reads_ from both heads.
  void derive_reads();
  /// Reads a v<prep_since>+ file's prep section for the configurations
  /// `names` kept from the speed section. Damage or misalignment drops
  /// the prep head with one warning; it never throws.
  void load_prep(std::istream& in, std::size_t n,
                 const std::vector<std::string>& names,
                 const std::string& path);

  const BankFile* file_;
  std::vector<DecisionTree> trees_;
  FlatTreeEnsemble flat_;
  std::vector<DecisionTree> prep_trees_;  ///< empty = no prep head
  FlatTreeEnsemble prep_flat_;
  std::vector<std::string> warnings_;
  std::size_t feature_dim_ = 0;  ///< 0 = the default 67 matrix features
  FeatureSet reads_;
};

}  // namespace detail

template <class Config>
class TreeBank : public detail::TreeBankCore {
 public:
  using Traits = BankTraits<Config>;

  TreeBank() : TreeBankCore(Traits::kFile) {}

  /// Trains one tree per configuration.
  ///   features[i]   — feature vector of training matrix i
  ///   targets[i][c] — measured target of matrix i, configuration
  ///                   configs[c], that `head` labels (for kSpeedupHead,
  ///                   t_config / t_baseline)
  /// All feature rows must share one width; that width becomes
  /// feature_dim(). Retraining drops the prep head (train_prep refits
  /// it). Throws std::invalid_argument on shape mismatches.
  void train(const std::vector<Config>& configs,
             const std::vector<std::vector<double>>& features,
             const std::vector<std::vector<double>>& targets,
             const TreeParams& params = {}) {
    fit(configs.size(), features, targets, params);
    configs_ = configs;
  }

  /// Builds a bank from already-fitted trees, one per configuration — the
  /// online-learning retrainer's path (src/learn/) — with an optional
  /// prep head, also one tree per configuration. Throws
  /// std::invalid_argument on shape mismatch, emptiness, or an unfitted
  /// tree. `feature_dim` 0 means "the default 67 matrix features".
  static TreeBank assemble(std::vector<Config> configs,
                           std::vector<DecisionTree> trees,
                           std::size_t feature_dim = 0,
                           std::vector<DecisionTree> prep_trees = {}) {
    TreeBank bank;
    if (configs.empty() || configs.size() != trees.size()) {
      throw std::invalid_argument(bank.where("assemble") +
                                  "#configs != #trees or empty");
    }
    bank.set_trees(std::move(trees), feature_dim, std::move(prep_trees));
    bank.configs_ = std::move(configs);
    return bank;
  }

  /// The §7 add-a-method path: a new bank whose configuration list is
  /// base's plus `new_configs`, and whose trees are base's trees —
  /// unchanged, byte-identical on save() — plus the freshly trained
  /// `new_trees`. The result has no prep head: the new configurations
  /// have no prep trees, and a partial head cannot be weighed. Throws
  /// std::invalid_argument on shape mismatch or a config name already
  /// present in base (existing models must never be replaced through this
  /// path).
  static TreeBank extended(const TreeBank& base,
                           std::vector<Config> new_configs,
                           std::vector<DecisionTree> new_trees) {
    if (!base.trained() || new_configs.empty() ||
        new_configs.size() != new_trees.size()) {
      throw std::invalid_argument(
          base.where("extended") +
          "untrained base, or #configs != #trees or empty");
    }
    for (const Config& cfg : new_configs) {
      for (const Config& existing : base.configs_) {
        if (cfg.name() == existing.name()) {
          throw std::invalid_argument(
              base.where("extended") + "'" + cfg.name() +
              "' already has a model; existing models are never replaced");
        }
      }
    }
    std::vector<Config> configs = base.configs_;
    configs.insert(configs.end(), new_configs.begin(), new_configs.end());
    std::vector<DecisionTree> trees = base.trees();
    trees.insert(trees.end(), std::make_move_iterator(new_trees.begin()),
                 std::make_move_iterator(new_trees.end()));
    return assemble(std::move(configs), std::move(trees), base.feature_dim());
  }

  const std::vector<Config>& configs() const { return configs_; }

  /// Persists as <dir>/<Traits::kFile.name>. Other banks' files in the
  /// same directory are never touched.
  void save(const std::string& dir) const {
    std::vector<std::string> names;
    names.reserve(configs_.size());
    for (const Config& c : configs_) names.push_back(c.name());
    save_file(dir, names);
  }

  /// Loads a bank saved by save(). Corrupt individual trees are skipped
  /// with a warning (see warnings()); throws wise::Error (kModelBank) when
  /// the file is missing, the header is unreadable, or no tree survives.
  static TreeBank load(const std::string& dir) {
    TreeBank bank;
    bank.load_file(dir, [&bank](const std::string& name) {
      bank.configs_.push_back(Traits::parse(name));
    });
    return bank;
  }

 private:
  std::vector<Config> configs_;
};

/// Column labels for a `dim`-wide training Dataset: the 67 matrix feature
/// names, then hw::machine_feature_names(), then generated "extra<i>"
/// fillers — truncated or padded to exactly `dim` entries.
std::vector<std::string> bank_feature_names(std::size_t dim);

}  // namespace wise
