// Tests for TreeBank<Config> (wise/tree_bank.hpp): one typed suite runs
// every bank behaviour over both instances — the SpMV ModelBank and the
// SpMM SpmmBank — followed by the malformed-bank fixture corpus under
// tests/data/malformed_banks/, the SpMV bank's optional prep head
// (models.txt v4), and the feature-width check every head inherits.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "features/extractor.hpp"
#include "ml/tree_record.hpp"
#include "spmm/model.hpp"
#include "util/error.hpp"
#include "util/prng.hpp"
#include "wise/model_bank.hpp"
#include "wise/selector.hpp"

namespace wise {
namespace {

namespace fs = std::filesystem;

template <class Config>
std::vector<Config> registry();
template <>
std::vector<MethodConfig> registry<MethodConfig>() {
  return all_method_configs();
}
template <>
std::vector<spmm::SpmmConfig> registry<spmm::SpmmConfig>() {
  return spmm::spmm_method_configs();
}

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void spill(const fs::path& p, const std::string& bytes) {
  std::ofstream out(p, std::ios::binary);
  out << bytes;
}

/// Random 67-wide feature rows; the targets vary by row and configuration
/// so that the trees split and differ from one another.
struct TrainingSet {
  std::vector<std::vector<double>> features;
  std::vector<std::vector<double>> rel_times;
};

TrainingSet training_set(std::size_t num_configs, std::uint64_t seed) {
  TrainingSet t;
  Xoshiro256 rng(seed);
  for (int i = 0; i < 24; ++i) {
    std::vector<double> f(feature_count());
    for (auto& v : f) v = rng.next_double() * 10.0;
    std::vector<double> rel(num_configs);
    for (std::size_t c = 0; c < num_configs; ++c) {
      rel[c] = f[c % f.size()] < 5.0 ? 0.5 : 1.0 + 0.1 * static_cast<double>(c % 3);
    }
    t.features.push_back(std::move(f));
    t.rel_times.push_back(std::move(rel));
  }
  return t;
}

template <class Config>
class TreeBankTest : public ::testing::Test {
 protected:
  using Bank = TreeBank<Config>;

  void SetUp() override {
    configs_ = registry<Config>();
    data_ = training_set(configs_.size(), 5);
    bank_.train(configs_, data_.features, data_.rel_times, {.max_depth = 3});
    dir_ = fs::temp_directory_path() /
           ("wise_tree_bank_" + std::to_string(::getpid()) + "_" +
            Bank::Traits::kFile.magic);
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path file(const fs::path& dir) const {
    return dir / Bank::Traits::kFile.name;
  }

  std::vector<Config> configs_;
  TrainingSet data_;
  Bank bank_;
  fs::path dir_;
};

using BankConfigs = ::testing::Types<MethodConfig, spmm::SpmmConfig>;
TYPED_TEST_SUITE(TreeBankTest, BankConfigs);

TYPED_TEST(TreeBankTest, TrainSaveLoadResaveIsByteIdentical) {
  ASSERT_TRUE(this->bank_.trained());
  EXPECT_EQ(this->bank_.feature_dim(), feature_count());
  this->bank_.save((this->dir_ / "a").string());
  const auto loaded = TestFixture::Bank::load((this->dir_ / "a").string());
  EXPECT_TRUE(loaded.warnings().empty());
  EXPECT_EQ(loaded.configs(), this->configs_);
  EXPECT_EQ(loaded.feature_dim(), feature_count());
  loaded.save((this->dir_ / "b").string());
  const std::string original = slurp(this->file(this->dir_ / "a"));
  EXPECT_FALSE(original.empty());
  EXPECT_EQ(slurp(this->file(this->dir_ / "b")), original);
}

TYPED_TEST(TreeBankTest, FlatPredictionsEqualPerTreePredict) {
  Xoshiro256 rng(11);
  std::vector<std::vector<double>> probes = this->data_.features;
  for (int i = 0; i < 16; ++i) {
    std::vector<double> x(feature_count());
    for (auto& v : x) v = rng.next_double() * 12.0 - 1.0;
    probes.push_back(std::move(x));
  }
  const auto& trees = this->bank_.trees();
  ASSERT_EQ(trees.size(), this->configs_.size());
  for (const auto& x : probes) {
    const std::vector<int> flat = this->bank_.predict_classes(x);
    ASSERT_EQ(flat.size(), trees.size());
    for (std::size_t c = 0; c < trees.size(); ++c) {
      EXPECT_EQ(flat[c], trees[c].predict(x)) << "config " << c;
      EXPECT_EQ(this->bank_.predict_class(c, x), flat[c]) << "config " << c;
    }
  }
}

/// Flips the last hex digit of the checksum of the tree record that starts
/// at or after `from`; returns the end of that record's header line.
std::size_t flip_checksum(std::string& text, std::size_t from) {
  const auto pos = text.find("\ntree ", from);
  EXPECT_NE(pos, std::string::npos);
  const auto eol = text.find('\n', pos + 1);
  text[eol - 1] = text[eol - 1] == '0' ? '1' : '0';
  return eol;
}

TYPED_TEST(TreeBankTest, OneFlippedChecksumSkipsThatTreeWithAWarning) {
  this->bank_.save(this->dir_.string());
  std::string text = slurp(this->file(this->dir_));
  flip_checksum(text, 0);
  spill(this->file(this->dir_), text);

  const auto loaded = TestFixture::Bank::load(this->dir_.string());
  ASSERT_EQ(loaded.configs().size(), this->configs_.size() - 1);
  EXPECT_EQ(loaded.configs()[0], this->configs_[1])
      << "the first tree is skipped";
  ASSERT_EQ(loaded.warnings().size(), 1u);
  EXPECT_NE(loaded.warnings()[0].find("checksum"), std::string::npos)
      << loaded.warnings()[0];
  // The degraded bank still selects.
  const auto& x = this->data_.features[0];
  EXPECT_NO_THROW(select_best_config(loaded.configs(),
                                     loaded.predict_classes(x)));
}

TYPED_TEST(TreeBankTest, AllTreesFlippedThrowsModelBankError) {
  this->bank_.save(this->dir_.string());
  std::string text = slurp(this->file(this->dir_));
  std::size_t next = 0;
  for (std::size_t c = 0; c < this->configs_.size(); ++c) {
    next = flip_checksum(text, next);
  }
  spill(this->file(this->dir_), text);
  try {
    TestFixture::Bank::load(this->dir_.string());
    FAIL() << "expected wise::Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kModelBank);
  }
}

TYPED_TEST(TreeBankTest, ExtendedKeepsTheBaseTreesBytes) {
  using Bank = typename TestFixture::Bank;
  // Base: every configuration but the last. The last is the new method.
  std::vector<TypeParam> base_configs(this->configs_.begin(),
                                      this->configs_.end() - 1);
  std::vector<std::vector<double>> base_rel, new_rel;
  for (const auto& row : this->data_.rel_times) {
    base_rel.emplace_back(row.begin(), row.end() - 1);
    new_rel.push_back({row.back()});
  }
  Bank base;
  base.train(base_configs, this->data_.features, base_rel, {.max_depth = 3});
  Bank fresh;
  fresh.train({this->configs_.back()}, this->data_.features, new_rel,
              {.max_depth = 3});

  const Bank ext =
      Bank::extended(base, {this->configs_.back()}, fresh.trees());
  ASSERT_EQ(ext.configs(), this->configs_);
  EXPECT_EQ(ext.feature_dim(), base.feature_dim());
  ext.save(this->dir_.string());
  const std::string saved = slurp(this->file(this->dir_));
  for (std::size_t c = 0; c < base_configs.size(); ++c) {
    std::ostringstream record;
    write_tree_record(record, base_configs[c].name(), base.trees()[c]);
    EXPECT_NE(saved.find(record.str()), std::string::npos)
        << base_configs[c].name() << " changed bytes";
  }

  // Existing models are never replaced through this path.
  EXPECT_THROW(Bank::extended(base, {base_configs[0]}, fresh.trees()),
               std::invalid_argument);
  EXPECT_THROW(Bank::extended(Bank{}, {this->configs_.back()}, fresh.trees()),
               std::invalid_argument);
}

TEST(TreeBank, ShortFeatureSpanIsRejectedBySpmmChooseAndThePrepHead) {
  // A 66-wide span would read past its end in a per-tree walk; every
  // bank-backed choose and both heads reject it through the width check.
  const auto spmm_configs = spmm::spmm_method_configs();
  const TrainingSet s = training_set(spmm_configs.size(), 3);
  spmm::SpmmBank spmm_bank;
  spmm_bank.train(spmm_configs, s.features, s.rel_times, {.max_depth = 2});

  const std::vector<MethodConfig> configs = all_method_configs();
  const TrainingSet m = training_set(configs.size(), 4);
  std::vector<std::vector<double>> prep(m.rel_times.size(),
                                        std::vector<double>(configs.size(), 2));
  ModelBank bank;
  bank.train(configs, m.features, m.rel_times, {.max_depth = 2});
  bank.train_prep(m.features, prep, {.max_depth = 2});

  const std::vector<double> shorter(feature_count() - 1, 1.0);
  EXPECT_THROW(spmm::choose(spmm_bank, shorter), std::invalid_argument);
  EXPECT_THROW(bank.predict_prep_classes(shorter), std::invalid_argument);
  const std::vector<double> exact(feature_count(), 1.0);
  EXPECT_NO_THROW(spmm::choose(spmm_bank, exact));
  EXPECT_NO_THROW(bank.predict_prep_classes(exact));
}

// ------------------------------------------------ the SpMV prep head ----

class PrepHeadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    configs_ = all_method_configs();
    data_ = training_set(configs_.size(), 21);
    for (const auto& row : data_.features) {
      std::vector<double> cost(configs_.size());
      for (std::size_t c = 0; c < configs_.size(); ++c) {
        cost[c] = row[(c + 7) % row.size()] * static_cast<double>(c % 5);
      }
      prep_.push_back(std::move(cost));
    }
    bank_.train(configs_, data_.features, data_.rel_times, {.max_depth = 3});
    bank_.train_prep(data_.features, prep_, {.max_depth = 3});
    dir_ = fs::temp_directory_path() /
           ("wise_prep_head_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path file(const char* sub) const { return dir_ / sub / "models.txt"; }
  std::string save(const ModelBank& bank, const char* sub) const {
    bank.save((dir_ / sub).string());
    return slurp(file(sub));
  }

  std::vector<MethodConfig> configs_;
  TrainingSet data_;
  std::vector<std::vector<double>> prep_;
  ModelBank bank_;
  fs::path dir_;
};

TEST_F(PrepHeadTest, V4SaveLoadResaveIsByteIdentical) {
  ASSERT_TRUE(bank_.has_prep_head());
  const std::string original = save(bank_, "a");
  EXPECT_EQ(original.rfind("wise-model-bank v4\n", 0), 0u);
  EXPECT_NE(original.find("\nprep " + std::to_string(configs_.size()) +
                          "\n"),
            std::string::npos);

  const ModelBank loaded = ModelBank::load((dir_ / "a").string());
  EXPECT_TRUE(loaded.warnings().empty());
  ASSERT_TRUE(loaded.has_prep_head());
  for (const auto& x : data_.features) {
    EXPECT_EQ(loaded.predict_prep_classes(x), bank_.predict_prep_classes(x));
    EXPECT_EQ(loaded.predict_classes(x), bank_.predict_classes(x));
  }
  EXPECT_EQ(save(loaded, "b"), original);
}

TEST_F(PrepHeadTest, APrepLessBankStillSavesAsV3) {
  const ModelBank speed_only = ModelBank::assemble(
      configs_, bank_.trees(), bank_.feature_dim());
  EXPECT_FALSE(speed_only.has_prep_head());
  const std::string v3 = save(speed_only, "a");
  EXPECT_EQ(v3.rfind("wise-model-bank v3\n", 0), 0u);
  // v4 is v3 plus the prep section.
  const std::string v4 = save(bank_, "b");
  EXPECT_EQ(v4.substr(0, v3.size()),
            "wise-model-bank v4" + v3.substr(v3.find('\n')));
  EXPECT_EQ(v4.substr(v3.size()).rfind("prep ", 0), 0u);
}

TEST_F(PrepHeadTest, AssembleCarriesAPrepHeadAndRetrainDropsIt) {
  const ModelBank copy = ModelBank::assemble(
      configs_, bank_.trees(), bank_.feature_dim(), bank_.prep_trees());
  EXPECT_EQ(save(copy, "a"), save(bank_, "b"));
  EXPECT_THROW(ModelBank::assemble(configs_, bank_.trees(), 0,
                                   {bank_.prep_trees()[0]}),
               std::invalid_argument);

  ModelBank retrained = bank_;
  retrained.train(configs_, data_.features, data_.rel_times);
  EXPECT_FALSE(retrained.has_prep_head());
}

TEST_F(PrepHeadTest, ExtendedDropsThePrepHead) {
  // The new configuration has no prep tree, so the extended bank cannot
  // weigh conversion cost for every configuration: it has no prep head.
  const std::vector<MethodConfig> base_configs(configs_.begin(),
                                               configs_.end() - 1);
  std::vector<std::vector<double>> base_rel, base_prep, new_rel;
  for (std::size_t i = 0; i < data_.rel_times.size(); ++i) {
    base_rel.emplace_back(data_.rel_times[i].begin(),
                          data_.rel_times[i].end() - 1);
    base_prep.emplace_back(prep_[i].begin(), prep_[i].end() - 1);
    new_rel.push_back({data_.rel_times[i].back()});
  }
  ModelBank base;
  base.train(base_configs, data_.features, base_rel, {.max_depth = 3});
  base.train_prep(data_.features, base_prep, {.max_depth = 3});
  ModelBank fresh;
  fresh.train({configs_.back()}, data_.features, new_rel, {.max_depth = 3});

  const ModelBank ext =
      ModelBank::extended(base, {configs_.back()}, fresh.trees());
  EXPECT_EQ(ext.configs(), configs_);
  EXPECT_FALSE(ext.has_prep_head());
  EXPECT_EQ(save(ext, "a").rfind("wise-model-bank v3\n", 0), 0u);
}

TEST_F(PrepHeadTest, ADamagedPrepSectionDropsOnlyThePrepHead) {
  const std::string original = save(bank_, "a");
  const std::size_t prep_at = original.find("\nprep ");
  ASSERT_NE(prep_at, std::string::npos);

  std::string flipped = original;
  flip_checksum(flipped, prep_at + 1);
  std::string truncated = original.substr(0, original.size() - 10);
  std::string misnamed = original;
  misnamed.replace(misnamed.find(configs_[0].name(), prep_at),
                   configs_[0].name().size(),
                   std::string(configs_[0].name().size(), 'x'));
  for (const std::string* text : {&flipped, &truncated, &misnamed}) {
    spill(file("a"), *text);
    const ModelBank loaded = ModelBank::load((dir_ / "a").string());
    EXPECT_EQ(loaded.configs(), configs_);
    EXPECT_EQ(loaded.trees().size(), configs_.size());
    EXPECT_FALSE(loaded.has_prep_head());
    ASSERT_EQ(loaded.warnings().size(), 1u);
    EXPECT_NE(loaded.warnings()[0].find("prep head dropped"),
              std::string::npos)
        << loaded.warnings()[0];
  }
}

TEST_F(PrepHeadTest, ABankTypeWithoutAPrepVersionRefusesToSaveOne) {
  const auto spmm_configs = spmm::spmm_method_configs();
  const TrainingSet s = training_set(spmm_configs.size(), 3);
  spmm::SpmmBank spmm_bank;
  spmm_bank.train(spmm_configs, s.features, s.rel_times, {.max_depth = 2});
  spmm_bank.train_prep(s.features, s.rel_times, {.max_depth = 2});
  EXPECT_THROW(spmm_bank.save((dir_ / "spmm").string()), std::logic_error);
}

TEST(TreeBank, MalformedBankFixturesFailTypedOrLoadWithWarnings) {
  // One directory per case and framing; the corpus also seeds fuzzing.
  struct Case {
    const char* dir;
    bool loads_with_warning;
  };
  const Case cases[] = {
      {"spmv__bad_magic", false},         {"spmv__unknown_version", false},
      {"spmv__zero_count", false},        {"spmv__v3_without_features", false},
      {"spmv__bad_tree_length", false},   {"spmv__truncated_payload", false},
      {"spmv__checksum_mismatch", true},
      {"spmv__v4_prep_checksum_mismatch", true},
      {"spmv__v4_prep_count_mismatch", true},
      {"spmm__bad_magic", false},
      {"spmm__unknown_version", false},   {"spmm__zero_count", false},
      {"spmm__unexpected_features", false}, {"spmm__bad_tree_length", false},
      {"spmm__truncated_payload", false}, {"spmm__checksum_mismatch", true},
  };
  const fs::path root = fs::path(WISE_TEST_DATA_DIR) / "malformed_banks";
  std::size_t on_disk = 0;
  for (const auto& entry : fs::directory_iterator(root)) {
    on_disk += entry.is_directory() ? 1 : 0;
  }
  EXPECT_EQ(on_disk, std::size(cases)) << "every fixture has an expectation";

  for (const Case& c : cases) {
    const std::string dir = (root / c.dir).string();
    const bool spmm = std::string(c.dir).rfind("spmm__", 0) == 0;
    const auto load_warnings = [&] {
      return spmm ? spmm::SpmmBank::load(dir).warnings()
                  : ModelBank::load(dir).warnings();
    };
    if (c.loads_with_warning) {
      std::vector<std::string> warnings;
      ASSERT_NO_THROW(warnings = load_warnings()) << c.dir;
      EXPECT_EQ(warnings.size(), 1u) << c.dir;
      if (std::string(c.dir).find("_prep_") != std::string::npos) {
        // Both speed trees load; only the prep head is dropped.
        const ModelBank bank = ModelBank::load(dir);
        EXPECT_EQ(bank.configs().size(), 2u) << c.dir;
        EXPECT_FALSE(bank.has_prep_head()) << c.dir;
      }
      continue;
    }
    try {
      load_warnings();
      ADD_FAILURE() << c.dir << ": expected wise::Error";
    } catch (const Error& e) {
      EXPECT_EQ(e.category(), ErrorCategory::kModelBank) << c.dir;
    } catch (const std::exception& e) {
      ADD_FAILURE() << c.dir << ": untyped " << e.what();
    }
  }
}

}  // namespace
}  // namespace wise
