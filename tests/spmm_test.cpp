// Tests for the SpMM subsystem (src/spmm/): configuration registry, the
// bit-identity contract of every register-blocked kernel against the serial
// reference, plan thread-count invariance, and the SpmmBank's independent
// train/save/load cycle (the §7 add-a-method separation: spmm_models.txt
// lives beside models.txt without ever touching it).
//
// ctest runs this binary at the ambient thread count plus pinned
// OMP_NUM_THREADS=1/2/8 variants (tests/CMakeLists.txt), which is how the
// "bit-identical at any thread count" half of the contract is enforced.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "features/extractor.hpp"
#include "sparse/coo.hpp"
#include "spmm/model.hpp"
#include "spmm/spmm.hpp"
#include "spmv/plan.hpp"
#include "test_util.hpp"
#include "util/error.hpp"
#include "util/prng.hpp"
#include "wise/speedup_class.hpp"

namespace wise::spmm {
namespace {

using wise::testing::random_csr;

std::vector<value_t> seeded_rhs(const CsrMatrix& m, index_t k,
                                std::uint64_t seed) {
  std::vector<value_t> x(static_cast<std::size_t>(m.ncols()) *
                         static_cast<std::size_t>(k));
  Xoshiro256 rng(seed);
  for (auto& v : x) v = static_cast<value_t>(rng.next_double());
  return x;
}

/// Matrix with deliberately empty rows and a hub row, exercising the
/// remainder paths of every block width.
CsrMatrix awkward_matrix() {
  CooMatrix coo(37, 29);
  Xoshiro256 rng(7);
  for (index_t i = 0; i < 37; i += 3) {  // rows 1,2 mod 3 stay empty
    const int deg = 1 + static_cast<int>(rng.next_below(5));
    for (int d = 0; d < deg; ++d) {
      coo.add(i, static_cast<index_t>(rng.next_below(29)),
              static_cast<value_t>(0.5 + rng.next_double()));
    }
  }
  for (int d = 0; d < 25; ++d) {  // hub row
    coo.add(5, static_cast<index_t>(rng.next_below(29)),
            static_cast<value_t>(rng.next_double()));
  }
  coo.canonicalize();
  return CsrMatrix::from_coo(coo);
}

// ------------------------------------------------------------- registry ----

TEST(SpmmConfig, RegistryNamesAreUniqueAndParseBack) {
  const auto& configs = spmm_method_configs();
  ASSERT_FALSE(configs.empty());
  // Index 0 is the training/serving baseline: kb=1, dynamic.
  EXPECT_EQ(configs[0].kb, 1);
  EXPECT_EQ(configs[0].sched, Schedule::kDyn);

  std::set<std::string> names;
  for (const auto& cfg : configs) {
    const std::string name = cfg.name();
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
    const SpmmConfig back = parse_spmm_config(name);
    EXPECT_EQ(back, cfg) << name;
    // The SpMM namespace must never collide with an SpMV config name —
    // samples and model files are disambiguated by name.
    EXPECT_EQ(name.rfind("SpMM/", 0), 0u) << name;
  }
}

TEST(SpmmConfig, ParseRejectsGarbage) {
  EXPECT_THROW(parse_spmm_config("CSR/Dyn"), std::invalid_argument);
  EXPECT_THROW(parse_spmm_config("SpMM/b3/Dyn"), std::invalid_argument);
  EXPECT_THROW(parse_spmm_config("SpMM/b4/Nope"), std::invalid_argument);
  EXPECT_THROW(parse_spmm_config("SpMM/b4x/Dyn"), std::invalid_argument);
}

// ---------------------------------------------------------- bit identity ----

TEST(SpmmKernels, EveryConfigBitIdenticalToReference) {
  const std::vector<CsrMatrix> mats = {
      random_csr(200, 160, 8.0, 11),
      random_csr(64, 64, 2.0, 12),
      awkward_matrix(),
  };
  for (const CsrMatrix& m : mats) {
    for (index_t k : {index_t{1}, index_t{2}, index_t{3}, index_t{5},
                      index_t{8}}) {
      const auto x = seeded_rhs(m, k, 0xabcd ^ static_cast<std::uint64_t>(k));
      std::vector<value_t> ref(static_cast<std::size_t>(m.nrows()) *
                               static_cast<std::size_t>(k));
      spmm_reference(m, x, ref, k);
      for (const SpmmConfig& cfg : spmm_method_configs()) {
        std::vector<value_t> y(ref.size(), -1.0);
        spmm_csr(m, x, y, k, cfg);
        for (std::size_t i = 0; i < ref.size(); ++i) {
          ASSERT_EQ(ref[i], y[i])
              << cfg.name() << " k=" << k << " element " << i;
        }
      }
    }
  }
}

TEST(SpmmKernels, PlanThreadCountDoesNotChangeBits) {
  const CsrMatrix m = random_csr(300, 300, 10.0, 21);
  const index_t k = 8;
  const auto x = seeded_rhs(m, k, 0x5eed);
  std::vector<value_t> ref(static_cast<std::size_t>(m.nrows()) *
                           static_cast<std::size_t>(k));
  spmm_reference(m, x, ref, k);
  for (const SpmmConfig& cfg : spmm_method_configs()) {
    for (int threads : {1, 2, 8, 16}) {
      const SpmvPlan plan = build_csr_plan(m, cfg.sched, threads, false);
      std::vector<value_t> y(ref.size(), -1.0);
      spmm_csr(m, x, y, k, cfg, plan);
      for (std::size_t i = 0; i < ref.size(); ++i) {
        ASSERT_EQ(ref[i], y[i])
            << cfg.name() << " threads=" << threads << " element " << i;
      }
    }
  }
}

TEST(SpmmKernels, EmptyMatrixYieldsZeros) {
  CooMatrix coo(5, 4);
  coo.canonicalize();
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  const index_t k = 4;
  const auto x = seeded_rhs(m, k, 3);
  std::vector<value_t> y(static_cast<std::size_t>(m.nrows()) *
                         static_cast<std::size_t>(k),
                         7.0);
  spmm_csr(m, x, y, k, spmm_method_configs().back());
  for (const value_t v : y) EXPECT_EQ(v, 0.0);
}

TEST(SpmmKernels, RejectsShapeMismatch) {
  const CsrMatrix m = random_csr(16, 16, 3.0, 4);
  std::vector<value_t> x(16 * 2), y(16 * 4);
  EXPECT_THROW(spmm_csr(m, x, y, 4, spmm_method_configs()[0]),
               std::invalid_argument);
}

// ------------------------------------------------------------ model bank ----

TEST(SpmmBank, TrainsChoosesAndRoundTripsWithoutTouchingSpmvBank) {
  std::vector<CsrMatrix> corpus;
  for (std::uint64_t s = 1; s <= 6; ++s) {
    corpus.push_back(random_csr(80, 80, 4.0 + static_cast<double>(s), s));
  }
  SpmmTrainOptions opts;
  opts.k = 4;
  opts.iters = 1;
  const SpmmBank bank = train_spmm_bank(corpus, opts);
  ASSERT_TRUE(bank.trained());
  EXPECT_EQ(bank.configs().size(), spmm_method_configs().size());

  const auto features = extract_features(corpus[0]).values;
  const SpmmChoice choice = choose(bank, features);
  EXPECT_GE(choice.predicted_class, 0);
  EXPECT_LT(choice.predicted_class, kNumSpeedupClasses);

  // The §7 separation: saving the SpMM bank into a directory that already
  // holds an SpMV bank file leaves that file byte-identical.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("wise_spmm_test_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const auto spmv_path = dir / "models.txt";
  const std::string spmv_bytes = "wise-model-bank v2\nnot really a bank\n";
  {
    std::ofstream out(spmv_path);
    out << spmv_bytes;
  }
  bank.save(dir.string());

  {
    std::ifstream in(spmv_path);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    EXPECT_EQ(contents, spmv_bytes);
  }

  const SpmmBank loaded = SpmmBank::load(dir.string());
  ASSERT_TRUE(loaded.trained());
  EXPECT_TRUE(loaded.warnings().empty());
  ASSERT_EQ(loaded.configs().size(), bank.configs().size());
  const SpmmChoice again = choose(loaded, features);
  EXPECT_EQ(again.config, choice.config);
  EXPECT_EQ(again.predicted_class, choice.predicted_class);
  for (std::size_t c = 0; c < bank.configs().size(); ++c) {
    EXPECT_EQ(loaded.predict_class(c, features),
              bank.predict_class(c, features));
  }
  std::filesystem::remove_all(dir);
}

TEST(SpmmBank, LoadFailsCleanlyOnMissingOrBadFile) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("wise_spmm_bad_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  EXPECT_THROW(SpmmBank::load(dir.string()), Error);
  {
    std::ofstream out(dir / "spmm_models.txt");
    out << "wise-spmm-bank v99\n1\n";
  }
  EXPECT_THROW(SpmmBank::load(dir.string()), Error);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace wise::spmm
