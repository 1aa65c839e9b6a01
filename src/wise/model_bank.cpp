#include "wise/model_bank.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "features/extractor.hpp"
#include "hw/probe.hpp"
#include "ml/tree_record.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "wise/speedup_class.hpp"

namespace wise {

namespace {

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw Error(ErrorCategory::kModelBank, "ModelBank::load: " + what,
              {.file = path, .stage = stage::kModelBank});
}

/// Loads the legacy (v1, checksum-free) body: strict, any damage throws.
void load_v1_body(std::istream& in, const std::string& path, std::size_t n,
                  std::vector<MethodConfig>& configs,
                  std::vector<DecisionTree>& trees) {
  for (std::size_t c = 0; c < n; ++c) {
    std::string name;
    in >> name;
    if (!in) fail(path, "truncated at configuration " + std::to_string(c));
    configs.push_back(parse_method_config(name));
    trees.push_back(DecisionTree::load(in));
  }
}

}  // namespace

void ModelBank::train(const std::vector<MethodConfig>& configs,
                      const std::vector<std::vector<double>>& features,
                      const std::vector<std::vector<double>>& rel_times,
                      const TreeParams& params) {
  if (configs.empty()) {
    throw std::invalid_argument("ModelBank::train: no configurations");
  }
  if (features.size() != rel_times.size() || features.empty()) {
    throw std::invalid_argument("ModelBank::train: shape mismatch");
  }
  for (const auto& row : rel_times) {
    if (row.size() != configs.size()) {
      throw std::invalid_argument(
          "ModelBank::train: rel_times width != #configs");
    }
  }

  configs_ = configs;
  warnings_.clear();
  trees_.clear();
  trees_.resize(configs.size());

  const std::size_t width = features[0].size();
  for (const auto& row : features) {
    if (row.size() != width) {
      throw std::invalid_argument(
          "ModelBank::train: inconsistent feature widths");
    }
  }
  feature_dim_ = width;

  obs::ScopedTimer total("ml.train.bank");
  const auto names = bank_feature_names(width);
  for (std::size_t c = 0; c < configs.size(); ++c) {
    obs::ScopedTimer span("ml.train.tree");
    Dataset ds(names, kNumSpeedupClasses);
    for (std::size_t i = 0; i < features.size(); ++i) {
      ds.add(features[i], classify_relative_time(rel_times[i][c]));
    }
    trees_[c].fit(ds, params);
  }
  flat_ = FlatTreeEnsemble::build(trees_);
}

ModelBank ModelBank::assemble(std::vector<MethodConfig> configs,
                              std::vector<DecisionTree> trees,
                              std::size_t feature_dim) {
  if (configs.empty() || configs.size() != trees.size()) {
    throw std::invalid_argument(
        "ModelBank::assemble: #configs != #trees or empty");
  }
  ModelBank bank;
  bank.configs_ = std::move(configs);
  bank.trees_ = std::move(trees);
  bank.feature_dim_ = feature_dim;
  // build() rejects unfitted trees, so a half-initialized bank cannot leak.
  bank.flat_ = FlatTreeEnsemble::build(bank.trees_);
  return bank;
}

ModelBank ModelBank::extended(const ModelBank& base,
                              std::vector<MethodConfig> new_configs,
                              std::vector<DecisionTree> new_trees) {
  if (!base.trained()) {
    throw std::invalid_argument("ModelBank::extended: base not trained");
  }
  if (new_configs.empty() || new_configs.size() != new_trees.size()) {
    throw std::invalid_argument(
        "ModelBank::extended: #configs != #trees or empty");
  }
  for (const auto& cfg : new_configs) {
    for (const auto& existing : base.configs_) {
      if (cfg.name() == existing.name()) {
        throw std::invalid_argument(
            "ModelBank::extended: '" + cfg.name() +
            "' already has a model; existing models are never replaced");
      }
    }
  }
  ModelBank bank;
  bank.configs_ = base.configs_;
  bank.trees_ = base.trees_;  // byte-identical on save(): trees serialize
                              // independently, so copying preserves bytes
  bank.feature_dim_ = base.feature_dim_;
  bank.configs_.insert(bank.configs_.end(), new_configs.begin(),
                       new_configs.end());
  bank.trees_.insert(bank.trees_.end(),
                     std::make_move_iterator(new_trees.begin()),
                     std::make_move_iterator(new_trees.end()));
  bank.flat_ = FlatTreeEnsemble::build(bank.trees_);
  return bank;
}

std::size_t ModelBank::feature_dim() const {
  return feature_dim_ != 0 ? feature_dim_ : feature_count();
}

std::vector<std::string> bank_feature_names(std::size_t dim) {
  std::vector<std::string> names = feature_names();
  for (const auto& n : hw::machine_feature_names()) {
    if (names.size() >= dim) break;
    names.push_back(n);
  }
  while (names.size() < dim) {
    names.push_back("extra" + std::to_string(names.size()));
  }
  names.resize(dim);
  return names;
}

void ModelBank::check_width(std::span<const double> features) const {
  const std::size_t want = feature_dim();
  if (features.size() != want) {
    throw std::invalid_argument(
        "ModelBank: feature vector has " + std::to_string(features.size()) +
        " entries, bank expects " + std::to_string(want));
  }
}

int ModelBank::predict_class(std::size_t config_index,
                             std::span<const double> features) const {
  if (config_index >= trees_.size()) {
    throw std::out_of_range("ModelBank::predict_class: bad config index");
  }
  check_width(features);
  return flat_.predict_one(static_cast<int>(config_index), features);
}

std::vector<int> ModelBank::predict_classes(
    std::span<const double> features) const {
  if (!trained()) {
    throw std::logic_error("ModelBank::predict_classes: not trained");
  }
  std::vector<int> out(trees_.size());
  predict_classes_into(features, out);
  return out;
}

void ModelBank::predict_classes_into(std::span<const double> features,
                                     std::span<int> out) const {
  if (!trained()) {
    throw std::logic_error("ModelBank::predict_classes_into: not trained");
  }
  check_width(features);
  flat_.predict_batch(features, out);
}

void ModelBank::save(const std::string& dir) const {
  if (!trained()) throw std::logic_error("ModelBank::save: not trained");
  std::filesystem::create_directories(dir);
  const auto path = (std::filesystem::path(dir) / "models.txt").string();
  std::ofstream out(path);
  if (!out) {
    throw Error(ErrorCategory::kResource,
                "ModelBank::save: cannot write to " + dir, {.file = path});
  }
  out << "wise-model-bank v3\n";
  out << "features " << feature_dim() << '\n';
  out << configs_.size() << '\n';
  for (std::size_t c = 0; c < configs_.size(); ++c) {
    write_tree_record(out, configs_[c].name(), trees_[c]);
  }
  if (!out) {
    throw Error(ErrorCategory::kResource,
                "ModelBank::save: write failed for " + path, {.file = path});
  }
}

ModelBank ModelBank::load(const std::string& dir) {
  FaultInjector::global().maybe_throw(stage::kModelBank,
                                      ErrorCategory::kModelBank);
  const auto path = (std::filesystem::path(dir) / "models.txt").string();
  std::ifstream in(path);
  if (!in) fail(path, "cannot open models in " + dir);

  std::string magic, version;
  in >> magic >> version;
  if (magic != "wise-model-bank" ||
      (version != "v1" && version != "v2" && version != "v3")) {
    fail(path, "bad header");
  }

  ModelBank bank;

  if (version == "v3") {
    std::string tag;
    std::size_t dim = 0;
    in >> tag >> dim;
    // Cap mirrors a plausible feature-vector width, not tree sizes.
    if (!in || tag != "features" || dim == 0 || dim > 100000) {
      fail(path, "malformed feature-dim record");
    }
    bank.feature_dim_ = dim;
  }

  std::size_t n = 0;
  in >> n;
  if (!in || n == 0 || n > 100000) {
    fail(path, "implausible configuration count");
  }

  if (version != "v3") {
    // Legacy banks predate machine features: pin them to the 67 matrix
    // features (feature_dim_ = 0) and record the downgrade, counted, so
    // operators can see how many stale banks are in circulation.
    const std::string warning = "legacy " + version +
                                " bank (no feature-dim record); pinned to "
                                "matrix features only";
    std::fprintf(stderr, "ModelBank::load: %s\n", warning.c_str());
    bank.warnings_.push_back(warning);
  }

  bank.configs_.reserve(n);
  bank.trees_.reserve(n);

  if (version == "v1") {
    load_v1_body(in, path, n, bank.configs_, bank.trees_);
    bank.flat_ = FlatTreeEnsemble::build(bank.trees_);
    return bank;
  }

  in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  read_tree_records(
      in, n, path, "ModelBank::load",
      [&](const std::string& name, DecisionTree tree) {
        bank.configs_.push_back(parse_method_config(name));
        bank.trees_.push_back(std::move(tree));
      },
      bank.warnings_);
  bank.flat_ = FlatTreeEnsemble::build(bank.trees_);
  return bank;
}

}  // namespace wise
