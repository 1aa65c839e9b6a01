// End-to-end degradation tests: with a fault injected at any pipeline stage
// (parse, feature, inference, conversion), Wise::prepare must still return a
// runnable CSR PreparedMatrix whose SpMV matches the reference, with the
// failing stage recorded in WiseChoice::fallback_reason.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "spmm/model.hpp"
#include "test_util.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/prng.hpp"
#include "wise/model_bank.hpp"
#include "wise/pipeline.hpp"

namespace wise {
namespace {

using testing::expect_vectors_near;
using testing::random_csr;
using testing::random_vector;

/// Disarms the global injector on scope exit, so a failing assertion cannot
/// leak an armed stage into later tests.
struct FaultGuard {
  ~FaultGuard() { FaultInjector::global().disarm_all(); }
};

/// A bank in which one SELLPACK configuration always beats CSR, so the
/// normal path exercises layout conversion and the fallback paths visibly
/// demote away from it.
ModelBank sellpack_wins_bank() {
  std::vector<MethodConfig> configs = csr_configs();
  const std::size_t n_csr = configs.size();
  configs.push_back({.kind = MethodKind::kSellpack,
                     .sched = Schedule::kStCont,
                     .c = 8});
  std::vector<std::vector<double>> features;
  std::vector<std::vector<double>> rel;
  Xoshiro256 rng(17);
  for (int i = 0; i < 30; ++i) {
    std::vector<double> f(feature_count());
    for (auto& v : f) v = rng.next_double();
    features.push_back(std::move(f));
    std::vector<double> r(configs.size(), 1.0);
    r[n_csr] = 0.5;  // SELLPACK at a 2x speedup, CSR variants neutral
    rel.push_back(std::move(r));
  }
  ModelBank bank;
  bank.train(configs, features, rel, {.max_depth = 3});
  return bank;
}

void expect_matches_reference(PreparedMatrix& pm, const CsrMatrix& m) {
  const auto x = random_vector(m.ncols(), 23);
  std::vector<value_t> y(static_cast<std::size_t>(m.nrows()));
  std::vector<value_t> y_ref(static_cast<std::size_t>(m.nrows()));
  pm.run(x, y);
  spmv_reference(m, x, y_ref);
  expect_vectors_near(y_ref, y);
}

TEST(Fallback, NormalPathSelectsSellpack) {
  const Wise predictor(sellpack_wins_bank());
  const CsrMatrix m = random_csr(300, 300, 6.0, 1);
  WiseChoice choice;
  PreparedMatrix pm = predictor.prepare(m, choice);
  EXPECT_EQ(choice.config.kind, MethodKind::kSellpack);
  EXPECT_FALSE(choice.fell_back());
  EXPECT_TRUE(choice.fallback_reason.empty());
  expect_matches_reference(pm, m);
}

TEST(Fallback, EveryFaultedStageStillYieldsRunnableCsr) {
  const Wise predictor(sellpack_wins_bank());
  const CsrMatrix m = random_csr(300, 300, 6.0, 2);
  for (const char* stg : {stage::kParse, stage::kFeature, stage::kInference,
                          stage::kConversion}) {
    FaultGuard guard;
    FaultInjector::global().arm(stg);
    WiseChoice choice;
    PreparedMatrix pm = predictor.prepare(m, choice);
    FaultInjector::global().disarm_all();

    EXPECT_EQ(choice.config.kind, MethodKind::kCsr) << "stage " << stg;
    ASSERT_TRUE(choice.fell_back()) << "stage " << stg;
    EXPECT_EQ(choice.fallback_reason.rfind(std::string(stg) + ": ", 0), 0u)
        << "stage " << stg << ": got \"" << choice.fallback_reason << "\"";
    expect_matches_reference(pm, m);
  }
}

TEST(Fallback, ChooseDemotesOnFeatureFault) {
  const Wise predictor(sellpack_wins_bank());
  const CsrMatrix m = random_csr(200, 200, 5.0, 3);
  FaultGuard guard;
  FaultInjector::global().arm(stage::kFeature);
  const WiseChoice choice = predictor.choose(m);
  EXPECT_EQ(choice.config.kind, MethodKind::kCsr);
  EXPECT_TRUE(choice.fell_back());
}

TEST(Fallback, InvalidInputDemotesToParseFallback) {
  const Wise predictor(sellpack_wins_bank());
  // Corrupt a valid matrix after construction: NaN slips past the ctor-time
  // check only via direct span mutation, so build it through from_coo and
  // poke the value array.
  CsrMatrix m = random_csr(100, 100, 4.0, 4);
  const_cast<value_t&>(m.vals()[0]) =
      std::numeric_limits<value_t>::quiet_NaN();
  WiseChoice choice;
  PreparedMatrix pm = predictor.prepare(m, choice);
  EXPECT_EQ(choice.config.kind, MethodKind::kCsr);
  ASSERT_TRUE(choice.fell_back());
  EXPECT_EQ(choice.fallback_reason.rfind("parse: ", 0), 0u)
      << choice.fallback_reason;
  (void)pm;  // runnable, though y will contain the NaN — by design
}

TEST(Fallback, MemoryBudgetDemotesConversion) {
  Wise predictor(sellpack_wins_bank());
  predictor.memory_budget_bytes = 16;  // absurdly small: every layout exceeds
  const CsrMatrix m = random_csr(200, 200, 5.0, 5);
  WiseChoice choice;
  PreparedMatrix pm = predictor.prepare(m, choice);
  EXPECT_EQ(choice.config.kind, MethodKind::kCsr);
  ASSERT_TRUE(choice.fell_back());
  EXPECT_EQ(choice.fallback_reason.rfind("conversion: ", 0), 0u);
  EXPECT_NE(choice.fallback_reason.find("memory budget"), std::string::npos)
      << choice.fallback_reason;
  expect_matches_reference(pm, m);
}

// ------------------------------------------------- model bank skipping ----

TEST(Fallback, CorruptTreeIsSkippedWithWarning) {
  ModelBank bank = sellpack_wins_bank();
  const auto dir =
      (std::filesystem::temp_directory_path() / "wise_fallback_bank").string();
  bank.save(dir);

  // Flip one hex digit of the *first* tree's checksum so exactly one
  // configuration fails verification.
  const std::string path = dir + "/models.txt";
  std::string text;
  {
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    text = ss.str();
  }
  const auto pos = text.find("tree ");
  ASSERT_NE(pos, std::string::npos);
  const auto eol = text.find('\n', pos);
  // Last character of the "tree <len> <checksum>" line is a hex digit.
  text[eol - 1] = text[eol - 1] == '0' ? '1' : '0';
  {
    std::ofstream out(path, std::ios::binary);
    out << text;
  }

  const ModelBank loaded = ModelBank::load(dir);
  EXPECT_EQ(loaded.configs().size(), bank.configs().size() - 1);
  ASSERT_EQ(loaded.warnings().size(), 1u);
  EXPECT_NE(loaded.warnings()[0].find("checksum"), std::string::npos)
      << loaded.warnings()[0];

  // The degraded bank still drives the pipeline.
  const Wise predictor(loaded);
  const CsrMatrix m = random_csr(150, 150, 4.0, 6);
  WiseChoice choice;
  PreparedMatrix pm = predictor.prepare(m, choice);
  expect_matches_reference(pm, m);

  std::filesystem::remove_all(dir);
}

TEST(Fallback, CommittedBenchmarkBanksLoadCleanAndResaveByteIdentical) {
  // The pinned banks the end-to-end benchmark ships (e2ebench/bank) read
  // through the shared tree-record codec with no warning, and save back
  // byte for byte.
  const auto src = std::filesystem::path(WISE_TEST_DATA_DIR) / ".." / ".." /
                   "e2ebench" / "bank";
  const ModelBank bank = ModelBank::load(src.string());
  EXPECT_TRUE(bank.warnings().empty());
  const spmm::SpmmBank spmm_bank = spmm::SpmmBank::load(src.string());
  EXPECT_TRUE(spmm_bank.warnings().empty());

  const auto out =
      std::filesystem::temp_directory_path() / "wise_resaved_banks";
  std::filesystem::remove_all(out);
  bank.save(out.string());
  spmm_bank.save(out.string());
  const auto slurp = [](const std::filesystem::path& p) {
    std::ifstream in(p, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };
  for (const char* file : {"models.txt", "spmm_models.txt"}) {
    const std::string original = slurp(src / file);
    EXPECT_FALSE(original.empty()) << file;
    EXPECT_EQ(slurp(out / file), original) << file;
  }
  std::filesystem::remove_all(out);
}

TEST(Fallback, FullyCorruptBankThrowsModelBankError) {
  const auto dir =
      (std::filesystem::temp_directory_path() / "wise_corrupt_bank").string();
  std::filesystem::create_directories(dir);
  {
    std::ofstream out(dir + "/models.txt", std::ios::binary);
    out << "wise-model-bank v9\nnot a bank\n";
  }
  try {
    ModelBank::load(dir);
    FAIL() << "expected wise::Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kModelBank);
  }
  std::filesystem::remove_all(dir);
}

TEST(Fallback, ModelBankFaultInjectionDemotesLoad) {
  // The model_bank stage guards ModelBank::load itself: load throws (the
  // caller has no bank to fall back onto), and the error is typed.
  ModelBank bank = sellpack_wins_bank();
  const auto dir =
      (std::filesystem::temp_directory_path() / "wise_faulted_bank").string();
  bank.save(dir);
  FaultGuard guard;
  FaultInjector::global().arm(stage::kModelBank);
  EXPECT_THROW(ModelBank::load(dir), Error);
  FaultInjector::global().disarm_all();
  EXPECT_NO_THROW(ModelBank::load(dir));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace wise
