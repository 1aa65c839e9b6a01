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

#include "gen/generators.hpp"
#include "wise/pipeline.hpp"

namespace wise {
namespace {

namespace fs = std::filesystem;

/// Twelve matrices across the generator families: skewed and local RMAT
/// graphs, a geometric graph, stencils, banded and block-diagonal
/// structure, and a road-like graph.
std::vector<std::pair<std::string, CsrMatrix>> corpus() {
  std::vector<std::pair<std::string, CsrMatrix>> out;
  const auto add = [&](std::string name, const CooMatrix& coo) {
    out.emplace_back(std::move(name), CsrMatrix::from_coo(coo));
  };
  add("rmat-hs", generate_rmat(
                     rmat_class_params(RmatClass::kHighSkew, 1 << 13, 12), 1));
  add("rmat-ms", generate_rmat(
                     rmat_class_params(RmatClass::kMedSkew, 1 << 13, 8), 2));
  add("rmat-ls", generate_rmat(
                     rmat_class_params(RmatClass::kLowSkew, 1 << 12, 16), 3));
  add("rmat-ll", generate_rmat(
                     rmat_class_params(RmatClass::kLowLoc, 1 << 13, 10), 4));
  add("rmat-hl", generate_rmat(
                     rmat_class_params(RmatClass::kHighLoc, 1 << 12, 8), 5));
  add("rgg", generate_rgg(1 << 13, 10, 6));
  add("stencil2d-5", generate_stencil2d(96, 96, 5));
  add("stencil2d-9", generate_stencil2d(64, 80, 9));
  add("stencil3d", generate_stencil3d(20, 20, 20));
  add("banded", generate_banded(6000, 12, 0.5, 7));
  add("block-diag", generate_block_diag(6000, 24, 0.6, 8));
  add("road", generate_road_like(8000, 9));
  return out;
}

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

  const auto ms = corpus();
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
  for (const auto& [name, m] : corpus()) {
    const WiseChoice unbounded = wise.choose(m);
    const WiseChoice short_run = wise.choose(m, 20);
    EXPECT_EQ(short_run.config, unbounded.config) << name;
    EXPECT_EQ(short_run.predicted_class, unbounded.predicted_class) << name;
    EXPECT_EQ(short_run.horizon, kUnboundedHorizon) << name;
  }
}

}  // namespace
}  // namespace wise
