#include "wise/tree_bank.hpp"

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

void TreeBankCore::fit(std::size_t num_configs,
                       const std::vector<std::vector<double>>& features,
                       const std::vector<std::vector<double>>& targets,
                       const TreeParams& params, const ClassHead& head) {
  const std::string who = where("train");
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
  warnings_.clear();
  set_trees(std::move(trees), width);
}

void TreeBankCore::set_trees(std::vector<DecisionTree> trees,
                             std::size_t feature_dim) {
  // build() rejects unfitted trees, so a half-initialized bank cannot leak.
  flat_ = FlatTreeEnsemble::build(trees);
  trees_ = std::move(trees);
  feature_dim_ = feature_dim;
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

void TreeBankCore::save_file(const std::string& dir,
                             const std::vector<std::string>& names) const {
  const BankFile& f = *file_;
  if (!trained()) throw std::logic_error(where("save") + "not trained");
  if (!f.has_features(f.version) && feature_dim() != feature_count()) {
    throw std::logic_error(where("save") + f.name +
                           " cannot record a feature width of " +
                           std::to_string(feature_dim()));
  }
  std::filesystem::create_directories(dir);
  const auto path = (std::filesystem::path(dir) / f.name).string();
  std::ofstream out(path);
  if (!out) {
    throw Error(ErrorCategory::kResource, where("save") + "cannot write to " + dir,
                {.file = path});
  }
  out << f.magic << " v" << f.version << '\n';
  if (f.has_features(f.version)) out << "features " << feature_dim() << '\n';
  out << names.size() << '\n';
  for (std::size_t c = 0; c < names.size(); ++c) {
    write_tree_record(out, names[c], trees_[c]);
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
  for (int v = f.oldest_version; v <= f.version; ++v) {
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
  const auto keep = [&](const std::string& name, DecisionTree tree) {
    add_config(name);
    trees_.push_back(std::move(tree));
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
