// Golden selection: the pinned end-to-end benchmark bank (e2ebench/bank,
// read only) and a fixed generated corpus must choose the configurations
// recorded in tests/data/golden/selection_pinned_bank.txt, at 1, 2 and 8
// OpenMP threads. A change to features, inference, the applicability mask
// or the selection rule that moves any pick shows up here as a diff.
//
// The golden file holds one "<matrix> <config>" line per corpus matrix.

#include <gtest/gtest.h>
#include <omp.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "golden_corpus.hpp"
#include "wise/pipeline.hpp"

namespace wise {
namespace {

namespace fs = std::filesystem;

fs::path pinned_bank() {
  return fs::path(WISE_TEST_DATA_DIR) / ".." / ".." / "e2ebench" / "bank";
}

std::string picks(const Wise& wise,
                  const std::vector<std::pair<std::string, CsrMatrix>>& ms) {
  std::ostringstream out;
  for (const auto& [name, m] : ms) {
    const WiseChoice choice = wise.choose(m);
    EXPECT_FALSE(choice.fell_back()) << name << ": " << choice.fallback_reason;
    out << name << ' ' << choice.config.name() << '\n';
  }
  return out.str();
}

TEST(GoldenSelection, PinnedBankPicksAreThreadCountInvariant) {
  const Wise wise(ModelBank::load(pinned_bank().string()));
  std::ifstream in(fs::path(WISE_TEST_DATA_DIR) / "golden" /
                   "selection_pinned_bank.txt");
  ASSERT_TRUE(in) << "missing golden file";
  std::stringstream golden;
  golden << in.rdbuf();

  const auto ms = testing::golden_corpus();
  const int ambient = omp_get_max_threads();
  for (int threads : {1, 2, 8}) {
    omp_set_num_threads(threads);
    EXPECT_EQ(picks(wise, ms), golden.str()) << "at " << threads
                                             << " threads";
  }
  omp_set_num_threads(ambient);
}

TEST(GoldenSelection, FiniteHorizonEqualsUnboundedOnAPrepLessBank) {
  // The pinned bank has no prep head, so a finite horizon has nothing to
  // weigh: the choice, and its recorded horizon, are the unbounded ones.
  const Wise wise(ModelBank::load(pinned_bank().string()));
  ASSERT_FALSE(wise.bank().has_prep_head());
  for (const auto& [name, m] : testing::golden_corpus()) {
    const WiseChoice unbounded = wise.choose(m);
    const WiseChoice short_run = wise.choose(m, 20);
    EXPECT_EQ(short_run.config, unbounded.config) << name;
    EXPECT_EQ(short_run.predicted_class, unbounded.predicted_class) << name;
    EXPECT_EQ(short_run.horizon, kUnboundedHorizon) << name;
  }
}

}  // namespace
}  // namespace wise
