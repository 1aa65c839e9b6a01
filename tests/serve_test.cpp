// Tests for the serving layer's cache key (serve/fingerprint.hpp) and the
// two-tier result cache (serve/cache.hpp).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "features/extractor.hpp"
#include "serve/cache.hpp"
#include "serve/fingerprint.hpp"
#include "spmv/bsr.hpp"
#include "spmv/method.hpp"
#include "test_util.hpp"
#include "util/hash.hpp"
#include "util/lru.hpp"

namespace wise::serve {
namespace {

using wise::testing::paper_example_matrix;
using wise::testing::random_csr;

// Pinned fingerprint of the paper's Fig 1a example matrix (see the golden
// test below for what changing these means).
constexpr const char* kGoldenStructureHex = "66d4d7a53f7ae186";
constexpr const char* kGoldenValuesHex = "7879818332fb845b";

// ------------------------------------------------------------ fingerprint ----

TEST(Fingerprint, Fnv1aMatchesReferenceVectors) {
  // Published FNV-1a 64-bit test vectors.
  EXPECT_EQ(fnv1a("", 0), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a("a", 1), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a("foobar", 6), 0x85944171f73967e8ull);
  EXPECT_EQ(fnv1a(std::string_view("foobar")), 0x85944171f73967e8ull);
  // Chaining: hashing in two pieces equals hashing the whole.
  EXPECT_EQ(fnv1a("bar", 3, fnv1a("foo", 3)), 0x85944171f73967e8ull);
}

TEST(Fingerprint, GoldenValueIsPinned) {
  // The paper's Fig 1a example matrix. This value changing means the
  // fingerprint algorithm changed — every serving cache key becomes
  // invalid, so treat it as a breaking change, not a test to update
  // casually. (The value depends on index_t/nnz_t widths and endianness;
  // pinned for the repo's default x86-64 build.)
  const Fingerprint fp = fingerprint_matrix(paper_example_matrix(), true);
  EXPECT_EQ(fp.hex(), std::string("s:") + kGoldenStructureHex +
                          "/v:" + kGoldenValuesHex);
}

TEST(Fingerprint, StableAcrossCalls) {
  const CsrMatrix m = random_csr(64, 64, 4.0, 7);
  const Fingerprint a = fingerprint_matrix(m, true);
  const Fingerprint b = fingerprint_matrix(m, true);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hex(), b.hex());
}

TEST(Fingerprint, StructureIgnoresValuesUnlessAsked) {
  const CsrMatrix m = random_csr(64, 64, 4.0, 7);
  // Same structure, different values.
  const CooMatrix coo = m.to_coo();
  CooMatrix scaled(coo.nrows(), coo.ncols());
  for (const Triplet& t : coo.entries()) {
    scaled.add(t.row, t.col, t.val * 2.0);
  }
  const CsrMatrix m2 = CsrMatrix::from_coo(scaled);

  const Fingerprint s1 = fingerprint_matrix(m, false);
  const Fingerprint s2 = fingerprint_matrix(m2, false);
  EXPECT_EQ(s1, s2) << "structural fingerprint must ignore values";

  const Fingerprint v1 = fingerprint_matrix(m, true);
  const Fingerprint v2 = fingerprint_matrix(m2, true);
  EXPECT_EQ(v1.structure, v2.structure);
  EXPECT_NE(v1.values, v2.values);
  EXPECT_NE(v1, v2);
}

TEST(Fingerprint, DistinguishesStructuralPerturbations) {
  // Collision sanity: every single-entry structural perturbation of a base
  // matrix hashes differently (FNV-1a is not cryptographic, but cache keys
  // must separate near-identical matrices, the realistic collision risk).
  const CsrMatrix base = random_csr(32, 32, 4.0, 11);
  const Fingerprint fp0 = fingerprint_matrix(base);
  const CooMatrix coo = base.to_coo();
  const std::size_t n = coo.entries().size();
  for (std::size_t drop = 0; drop < n && drop < 25; ++drop) {
    CooMatrix perturbed(coo.nrows(), coo.ncols());
    for (std::size_t k = 0; k < n; ++k) {
      if (k == drop) continue;  // remove one entry
      const Triplet& t = coo.entries()[k];
      perturbed.add(t.row, t.col, t.val);
    }
    const Fingerprint fp = fingerprint_matrix(CsrMatrix::from_coo(perturbed));
    EXPECT_NE(fp, fp0) << "dropping entry " << drop << " collided";
  }
  // Dimension-only change (same entries, wider matrix) must also separate.
  CooMatrix wider(coo.nrows(), coo.ncols() + 1, coo.entries());
  EXPECT_NE(fingerprint_matrix(CsrMatrix::from_coo(wider)), fp0);
}

// ------------------------------------------------------------ choice tier ----

TEST(ChoiceCache, HitAfterPutAndLruBound) {
  ChoiceCache cache(2);
  const Fingerprint a{1, 0, false}, b{2, 0, false}, c{3, 0, false};
  WiseChoice choice;
  choice.predicted_class = 4;
  EXPECT_FALSE(cache.get(a).has_value());
  cache.put(a, choice);
  cache.put(b, choice);
  ASSERT_TRUE(cache.get(a).has_value());  // touch a
  EXPECT_EQ(cache.get(a)->predicted_class, 4);
  cache.put(c, choice);  // evicts b (LRU)
  EXPECT_FALSE(cache.get(b).has_value());
  EXPECT_TRUE(cache.get(a).has_value());
  EXPECT_TRUE(cache.get(c).has_value());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_GE(cache.hits(), 4u);
  EXPECT_GE(cache.misses(), 2u);
}

// ---------------------------------------------------------- prepared tier ----

std::shared_ptr<PreparedEntry> make_entry(index_t n, std::uint64_t seed) {
  auto m = std::make_shared<const CsrMatrix>(random_csr(n, n, 4.0, seed));
  auto entry = std::make_shared<PreparedEntry>();
  entry->matrix = m;
  entry->prepared = PreparedMatrix::prepare(*m, MethodConfig{});  // CSR
  entry->choice = WiseChoice{};
  entry->bytes = prepared_entry_bytes(*m, entry->prepared);
  return entry;
}

TEST(PreparedCache, EntryCompletesASubsetFeatureVectorOnce) {
  auto entry = make_entry(300, 9);
  const CsrMatrix& m = *entry->matrix;
  FeatureVector subset = extract_features(
      m, {}, all_features() & ~column_presence_features());
  entry->choice.features_complete = false;
  entry->choice.features =
      std::make_shared<const std::vector<double>>(std::move(subset.values));

  const std::vector<double>& first = entry->full_features();
  EXPECT_EQ(first, extract_features(m).values);
  // Later calls reuse the completed vector instead of extracting again.
  EXPECT_EQ(&entry->full_features(), &first);
}

TEST(PreparedCache, ByteBudgetEvictsLeastRecentlyUsedDeterministically) {
  auto e1 = make_entry(64, 1);
  auto e2 = make_entry(64, 2);
  auto e3 = make_entry(64, 3);
  // Budget fits exactly two entries of this size.
  PreparedCache cache(e1->bytes + e2->bytes);
  const Fingerprint f1{1, 0, false}, f2{2, 0, false}, f3{3, 0, false};
  cache.put(f1, e1);
  cache.put(f2, e2);
  EXPECT_EQ(cache.bytes(), e1->bytes + e2->bytes);
  EXPECT_NE(cache.get(f1), nullptr);  // f1 most recent
  cache.put(f3, e3);                  // must evict f2, exactly once
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.get(f2), nullptr);
  EXPECT_NE(cache.get(f1), nullptr);
  EXPECT_NE(cache.get(f3), nullptr);
  EXPECT_LE(cache.bytes(), e1->bytes + e2->bytes);
}

TEST(PreparedCache, EvictedEntrySurvivesWhileHeld) {
  auto e1 = make_entry(64, 1);
  PreparedCache cache(e1->bytes);  // single-entry budget
  const Fingerprint f1{1, 0, false}, f2{2, 0, false};
  cache.put(f1, e1);
  std::shared_ptr<PreparedEntry> held = cache.get(f1);
  ASSERT_NE(held, nullptr);
  cache.put(f2, make_entry(64, 2));  // evicts f1
  EXPECT_EQ(cache.get(f1), nullptr);
  // The held reference still works: run an SpMV through it.
  std::vector<value_t> x(static_cast<std::size_t>(held->matrix->ncols()), 1.0);
  std::vector<value_t> y(static_cast<std::size_t>(held->matrix->nrows()));
  held->prepared.run(x, y);
  SUCCEED();
}

TEST(PreparedCache, EntryBytesAccountsConvertedLayouts) {
  auto m = std::make_shared<const CsrMatrix>(random_csr(128, 128, 4.0, 5));
  const PreparedMatrix csr = PreparedMatrix::prepare(*m, MethodConfig{});
  EXPECT_EQ(prepared_entry_bytes(*m, csr),
            m->memory_bytes() + csr.plan_bytes())
      << "CSR entries must not double-count the source arrays";
  MethodConfig sell;
  sell.kind = MethodKind::kSellpack;
  sell.sched = Schedule::kStCont;
  sell.c = 4;
  const PreparedMatrix packed = PreparedMatrix::prepare(*m, sell);
  EXPECT_EQ(prepared_entry_bytes(*m, packed),
            m->memory_bytes() + packed.memory_bytes() + packed.plan_bytes())
      << "converted entries pay for source, layout, and plan";
}

/// Pins the charge for every configuration of every layout kind to the
/// formula the cache budget was sized with, so a change to how prepared
/// layouts are held cannot shift evictions: CSR pays source + plan; BSR
/// pays source + layout and has no plan; every other layout pays source +
/// layout + plan.
TEST(PreparedCache, EntryBytesPinnedForEveryLayoutKind) {
  const CsrMatrix m = CsrMatrix::from_coo(generate_banded(300, 4, 1.0, 8));
  std::vector<MethodKind> kinds_seen;
  for (const MethodConfig& cfg : extended_method_configs()) {
    SCOPED_TRACE(cfg.name());
    const PreparedMatrix pm = PreparedMatrix::prepare(m, cfg);
    const std::size_t source = m.memory_bytes();
    if (cfg.kind == MethodKind::kCsr) {
      EXPECT_GT(pm.plan_bytes(), 0u);
      EXPECT_EQ(prepared_entry_bytes(m, pm), source + pm.plan_bytes());
    } else if (cfg.kind == MethodKind::kBsr) {
      EXPECT_EQ(pm.plan_bytes(), 0u);
      EXPECT_EQ(prepared_entry_bytes(m, pm), source + pm.memory_bytes());
    } else {
      EXPECT_GT(pm.plan_bytes(), 0u);
      EXPECT_EQ(prepared_entry_bytes(m, pm),
                source + pm.memory_bytes() + pm.plan_bytes());
    }
    if (std::find(kinds_seen.begin(), kinds_seen.end(), cfg.kind) ==
        kinds_seen.end()) {
      kinds_seen.push_back(cfg.kind);
    }
  }
  EXPECT_EQ(kinds_seen.size(), 10u) << "every MethodKind is covered";
}

// ------------------------------------------------------------ budget split ----

TEST(SplitBudget, ShardSharesSumToTheConfiguredTotalExactly) {
  // The serving layer splits WISE_SERVE_CACHE_BYTES across shards with
  // split_budget: base share + round-robin remainder. The shard sum must
  // equal the configured budget to the byte — no truncation loss.
  const std::size_t total = (256u << 20) + 5;  // indivisible by any pow2
  for (const std::size_t parts : {1u, 2u, 4u, 8u, 16u}) {
    const auto shares = split_budget(total, parts);
    ASSERT_EQ(shares.size(), parts);
    std::size_t sum = 0;
    for (const std::size_t s : shares) sum += s;
    EXPECT_EQ(sum, total) << parts << " shards";
    // Round-robin remainder: shares differ by at most one unit.
    const auto [lo, hi] = std::minmax_element(shares.begin(), shares.end());
    EXPECT_LE(*hi - *lo, 1u) << parts << " shards";
  }
}

TEST(SplitBudget, RemainderGoesToTheLowestShardsFirst) {
  const auto shares = split_budget(10, 4);
  ASSERT_EQ(shares.size(), 4u);
  EXPECT_EQ(shares[0], 3u);
  EXPECT_EQ(shares[1], 3u);
  EXPECT_EQ(shares[2], 2u);
  EXPECT_EQ(shares[3], 2u);
}

TEST(SplitBudget, ZeroTotalMeansUnboundedEverywhere) {
  for (const std::size_t s : split_budget(0, 4)) EXPECT_EQ(s, 0u);
  // Degenerate part counts still yield a usable vector.
  ASSERT_EQ(split_budget(7, 0).size(), 1u);
  EXPECT_EQ(split_budget(7, 0)[0], 7u);
}

}  // namespace
}  // namespace wise::serve
