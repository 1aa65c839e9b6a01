#include "wise/tree_bank.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>

#include "features/extractor.hpp"
#include "hw/probe.hpp"
#include "ml/tree_record.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace wise::detail {

std::string TreeBankCore::where(const char* what) const {
  return std::string(file_->who) + "::" + what + ": ";
}

namespace {

/// What a bank's trees predict: the class of a measured target.
struct ClassHead {
  int num_classes;
  int (*label)(double target);
};
constexpr ClassHead kSpeedupHead{kNumSpeedupClasses, classify_relative_time};
constexpr ClassHead kPrepHead{kNumPrepClasses, classify_prep_cost};

/// Fits one `head` tree per target column after checking the shapes.
std::vector<DecisionTree> fit_head(
    const std::string& who, std::size_t num_configs,
    const std::vector<std::vector<double>>& features,
    const std::vector<std::vector<double>>& targets, const TreeParams& params,
    const ClassHead& head) {
  if (num_configs == 0) {
    throw std::invalid_argument(who + "no configurations");
  }
  if (features.size() != targets.size() || features.empty()) {
    throw std::invalid_argument(who + "shape mismatch");
  }
  for (const auto& row : targets) {
    if (row.size() != num_configs) {
      throw std::invalid_argument(who + "target width != #configs");
    }
  }
  const std::size_t width = features[0].size();
  for (const auto& row : features) {
    if (row.size() != width) {
      throw std::invalid_argument(who + "inconsistent feature widths");
    }
  }

  obs::ScopedTimer total("ml.train.bank");
  const auto names = bank_feature_names(width);
  std::vector<DecisionTree> trees(num_configs);
  for (std::size_t c = 0; c < num_configs; ++c) {
    obs::ScopedTimer span("ml.train.tree");
    Dataset ds(names, head.num_classes);
    for (std::size_t i = 0; i < features.size(); ++i) {
      ds.add(features[i], head.label(targets[i][c]));
    }
    trees[c].fit(ds, params);
  }
  return trees;
}

}  // namespace

void TreeBankCore::fit(std::size_t num_configs,
                       const std::vector<std::vector<double>>& features,
                       const std::vector<std::vector<double>>& targets,
                       const TreeParams& params) {
  std::vector<DecisionTree> trees = fit_head(
      where("train"), num_configs, features, targets, params, kSpeedupHead);
  warnings_.clear();
  set_trees(std::move(trees), features[0].size());
}

void TreeBankCore::train_prep(
    const std::vector<std::vector<double>>& features,
    const std::vector<std::vector<double>>& prep_targets,
    const TreeParams& params) {
  const std::string who = where("train_prep");
  if (!trained()) throw std::logic_error(who + "train the speed head first");
  if (!features.empty() && features[0].size() != feature_dim()) {
    throw std::invalid_argument(who + "feature width != the bank's");
  }
  std::vector<DecisionTree> prep = fit_head(who, trees_.size(), features,
                                            prep_targets, params, kPrepHead);
  prep_flat_ = FlatTreeEnsemble::build(prep);
  prep_trees_ = std::move(prep);
  derive_reads();
}

void TreeBankCore::set_trees(std::vector<DecisionTree> trees,
                             std::size_t feature_dim,
                             std::vector<DecisionTree> prep_trees) {
  if (!prep_trees.empty() && prep_trees.size() != trees.size()) {
    throw std::invalid_argument(where("assemble") +
                                "#prep trees != #configs");
  }
  // build() rejects unfitted trees, so a half-initialized bank cannot leak.
  flat_ = FlatTreeEnsemble::build(trees);
  prep_flat_ = prep_trees.empty() ? FlatTreeEnsemble{}
                                  : FlatTreeEnsemble::build(prep_trees);
  trees_ = std::move(trees);
  prep_trees_ = std::move(prep_trees);
  feature_dim_ = feature_dim;
  derive_reads();
}

void TreeBankCore::derive_reads() {
  reads_.reset();
  for (const auto* head : {&trees_, &prep_trees_}) {
    for (const DecisionTree& tree : *head) {
      for (const DecisionTree::Node& node : tree.nodes()) {
        if (node.feature >= 0 &&
            static_cast<std::size_t>(node.feature) < kNumFeatures) {
          reads_.set(static_cast<std::size_t>(node.feature));
        }
      }
    }
  }
}

std::size_t TreeBankCore::feature_dim() const {
  return feature_dim_ != 0 ? feature_dim_ : feature_count();
}

void TreeBankCore::check_width(std::span<const double> features) const {
  const std::size_t want = feature_dim();
  if (features.size() != want) {
    throw std::invalid_argument(
        std::string(file_->who) + ": feature vector has " +
        std::to_string(features.size()) + " entries, bank expects " +
        std::to_string(want));
  }
}

int TreeBankCore::predict_class(std::size_t config_index,
                                std::span<const double> features) const {
  if (config_index >= trees_.size()) {
    throw std::out_of_range(where("predict_class") + "bad config index");
  }
  check_width(features);
  return flat_.predict_one(static_cast<int>(config_index), features);
}

std::vector<int> TreeBankCore::predict_classes(
    std::span<const double> features) const {
  std::vector<int> out(trees_.size());
  predict_classes_into(features, out);
  return out;
}

void TreeBankCore::predict_classes_into(std::span<const double> features,
                                        std::span<int> out) const {
  if (!trained()) {
    throw std::logic_error(where("predict_classes") + "not trained");
  }
  check_width(features);
  flat_.predict_batch(features, out);
}

std::vector<int> TreeBankCore::predict_prep_classes(
    std::span<const double> features) const {
  if (!has_prep_head()) {
    throw std::logic_error(where("predict_prep_classes") + "no prep head");
  }
  check_width(features);
  std::vector<int> out(prep_trees_.size());
  prep_flat_.predict_batch(features, out);
  return out;
}

void TreeBankCore::save_file(const std::string& dir,
                             const std::vector<std::string>& names) const {
  const BankFile& f = *file_;
  if (!trained()) throw std::logic_error(where("save") + "not trained");
  if (!f.has_features(f.version) && feature_dim() != feature_count()) {
    throw std::logic_error(where("save") + f.name +
                           " cannot record a feature width of " +
                           std::to_string(feature_dim()));
  }
  if (has_prep_head() && f.prep_since == 0) {
    throw std::logic_error(where("save") + f.name +
                           " cannot record a prep head");
  }
  const int version = has_prep_head() ? f.prep_since : f.version;
  std::filesystem::create_directories(dir);
  const auto path = (std::filesystem::path(dir) / f.name).string();
  std::ofstream out(path);
  if (!out) {
    throw Error(ErrorCategory::kResource, where("save") + "cannot write to " + dir,
                {.file = path});
  }
  out << f.magic << " v" << version << '\n';
  if (f.has_features(version)) out << "features " << feature_dim() << '\n';
  out << names.size() << '\n';
  for (std::size_t c = 0; c < names.size(); ++c) {
    write_tree_record(out, names[c], trees_[c]);
  }
  if (has_prep_head()) {
    out << "prep " << names.size() << '\n';
    for (std::size_t c = 0; c < names.size(); ++c) {
      write_tree_record(out, names[c], prep_trees_[c]);
    }
  }
  if (!out) {
    throw Error(ErrorCategory::kResource,
                where("save") + "write failed for " + path, {.file = path});
  }
}

void TreeBankCore::load_file(
    const std::string& dir,
    const std::function<void(const std::string&)>& add_config) {
  FaultInjector::global().maybe_throw(stage::kModelBank,
                                      ErrorCategory::kModelBank);
  const BankFile& f = *file_;
  const std::string who = std::string(f.who) + "::load";
  const auto path = (std::filesystem::path(dir) / f.name).string();
  const auto fail = [&](const std::string& what) {
    throw Error(ErrorCategory::kModelBank, who + ": " + what,
                {.file = path, .stage = stage::kModelBank});
  };
  std::ifstream in(path);
  if (!in) fail("cannot open " + std::string(f.name) + " in " + dir);

  std::string magic, version_tag;
  in >> magic >> version_tag;
  int version = 0;
  const int newest = std::max(f.version, f.prep_since);
  for (int v = f.oldest_version; v <= newest; ++v) {
    if (version_tag == 'v' + std::to_string(v)) version = v;
  }
  if (magic != f.magic || version == 0) fail("bad header");

  if (f.has_features(version)) {
    std::string tag;
    std::size_t dim = 0;
    in >> tag >> dim;
    // Cap mirrors a plausible feature-vector width, not tree sizes.
    if (!in || tag != "features" || dim == 0 || dim > 100000) {
      fail("malformed feature-dim record");
    }
    feature_dim_ = dim;
  }

  std::size_t n = 0;
  in >> n;
  if (!in || n == 0 || n > 100000) fail("implausible configuration count");

  if (f.features_since != 0 && !f.has_features(version)) {
    // Legacy banks predate machine features: pin them to the 67 matrix
    // features (feature_dim_ = 0) and record the downgrade, counted, so
    // operators can see how many stale banks are in circulation.
    const std::string warning = "legacy " + version_tag +
                                " bank (no feature-dim record); pinned to "
                                "matrix features only";
    std::fprintf(stderr, "%s: %s\n", who.c_str(), warning.c_str());
    warnings_.push_back(warning);
  }

  trees_.reserve(n);
  std::vector<std::string> kept;
  const auto keep = [&](const std::string& name, DecisionTree tree) {
    add_config(name);
    trees_.push_back(std::move(tree));
    kept.push_back(name);
  };
  if (version < f.checksums_since) {
    // The legacy checksum-free body: strict, any damage throws.
    for (std::size_t c = 0; c < n; ++c) {
      std::string name;
      in >> name;
      if (!in) fail("truncated at configuration " + std::to_string(c));
      keep(name, DecisionTree::load(in));
    }
  } else {
    in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
    read_tree_records(in, n, path, who, keep, warnings_);
  }
  flat_ = FlatTreeEnsemble::build(trees_);
  if (f.has_prep(version)) load_prep(in, n, kept, path);
  derive_reads();
}

void TreeBankCore::load_prep(std::istream& in, std::size_t n,
                             const std::vector<std::string>& names,
                             const std::string& path) {
  const std::string who = std::string(file_->who) + "::load";
  std::vector<std::string> prep_names, skipped;
  std::vector<DecisionTree> prep;
  std::string why = "prep section does not list one tree per configuration";
  bool read = false;
  try {
    std::string tag;
    std::size_t count = 0;
    in >> tag >> count;
    if (in && tag == "prep" && count == n) {
      in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
      read_tree_records(
          in, n, path, who,
          [&](const std::string& name, DecisionTree tree) {
            prep_names.push_back(name);
            prep.push_back(std::move(tree));
          },
          skipped);
      read = true;
      if (!skipped.empty()) why = skipped.front();
    }
  } catch (const std::exception& e) {
    why = e.what();
  }
  // Aligned means one intact prep tree per kept speed tree, in order.
  if (read && skipped.empty() && prep_names == names) {
    prep_flat_ = FlatTreeEnsemble::build(prep);
    prep_trees_ = std::move(prep);
    return;
  }
  const std::string warning = "prep head dropped: " + why;
  std::fprintf(stderr, "%s: %s\n", who.c_str(), warning.c_str());
  warnings_.push_back(warning);
}

}  // namespace wise::detail

namespace wise {

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

}  // namespace wise
