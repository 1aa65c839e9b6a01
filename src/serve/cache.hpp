#pragma once
// The serving layer's two-tier result cache, keyed by matrix fingerprint.
// One instance of each tier belongs to one *shard* of the sharded server
// (serve/server.hpp); shard routing happens above this layer.
//
// Tier 1 (ChoiceCache) memoizes WiseChoice — the output of feature
// extraction + model inference. Entries are tiny, so the tier is bounded by
// entry count. Tier 2 (PreparedCache) memoizes fully converted layouts
// (PreparedMatrix plus the owned source CsrMatrix); entries can be large,
// so the tier is bounded by a byte budget and eviction is accounted with
// each entry's actual footprint (matrix bytes + converted-layout bytes).
//
// Concurrency: the *read* path of both tiers is lock-free. Lookups probe an
// immutable copy-on-write table through one atomic pointer load, protected
// by epoch-based reclamation (util/epoch_lru.hpp) — a warm hit takes zero
// mutexes, which is what lets hot matrices scale with client threads
// instead of serializing on a cache-wide lock. Writers (misses) serialize
// on the map's internal mutex and rebuild the table; recency is a relaxed
// per-entry tick, which reduces to strict LRU under sequential access so
// eviction order stays deterministic for tests.
//
// obs counters:
//   serve.cache.hit / serve.cache.miss          prepared tier (the
//                                               expensive one — the
//                                               acceptance metric)
//   serve.cache.choice.hit / .choice.miss       choice tier
//   serve.cache.evict.count                     prepared-tier evictions
//   serve.cache.bytes / serve.cache.entries     prepared-tier gauges
//     (gauges aggregate across shards via the server's stats, not here)
//
// Prepared entries are handed out as shared_ptr, so an entry evicted while
// a worker is mid-SpMV stays alive until that worker drops it. Entries
// carry no run lock: PreparedMatrix::run has a const-thread-safe overload
// taking a caller workspace (spmv/executor.hpp), so concurrent RUNs of one
// hot entry proceed in parallel.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "serve/fingerprint.hpp"
#include "spmv/executor.hpp"
#include "util/epoch_lru.hpp"
#include "wise/pipeline.hpp"

namespace wise::serve {

/// Point-in-time cache counters (monotonic except bytes/entries).
struct CacheStats {
  std::uint64_t choice_hits = 0;
  std::uint64_t choice_misses = 0;
  std::uint64_t prepared_hits = 0;
  std::uint64_t prepared_misses = 0;
  std::uint64_t evictions = 0;
  std::size_t prepared_bytes = 0;
  std::size_t prepared_entries = 0;
  std::size_t choice_entries = 0;
};

/// Tier 1: fingerprint → WiseChoice, bounded by entry count. get() is
/// lock-free.
class ChoiceCache {
 public:
  explicit ChoiceCache(std::size_t max_entries);

  std::optional<WiseChoice> get(const Fingerprint& fp);
  void put(const Fingerprint& fp, const WiseChoice& choice);

  /// Drops every entry (epoch-safe against concurrent get()). Called when
  /// a new model bank is published: cached choices embed the old bank's
  /// configurations.
  void clear() { map_.clear(); }

  std::uint64_t hits() const {
    return hits_.load(std::memory_order_relaxed);
  }
  std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  std::size_t size() const { return map_.size(); }

 private:
  EpochLruMap<Fingerprint, WiseChoice, FingerprintHash> map_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

/// One cached prepared matrix: the owned source CSR (PreparedMatrix
/// references it for CSR configs), the converted layout, the choice that
/// produced it, and the footprint it was charged at insertion. Immutable
/// once published, bar the full_features() memo — RUNs execute it through
/// the const-thread-safe PreparedMatrix::run overload with a per-thread
/// workspace.
struct PreparedEntry {
  std::shared_ptr<const CsrMatrix> matrix;
  PreparedMatrix prepared;
  WiseChoice choice;
  std::size_t bytes = 0;
  /// Version of the model bank whose choice produced this entry — lets the
  /// online-learning loop attribute an observed RUN to the bank that
  /// predicted it (a swap mid-flight must not poison the new bank's
  /// guardrail window).
  std::uint64_t bank_version = 0;

  /// `choice`'s feature vector with every matrix feature
  /// (WiseChoice::full_features on `matrix`). A subset vector is completed
  /// by the first call and the result is kept, so the online-learning
  /// loop pays one more extraction per entry, not per sampled request.
  /// Thread-safe; a call that throws leaves the next one to retry.
  const std::vector<double>& full_features() const;

 private:
  mutable std::once_flag full_features_once_;
  mutable std::vector<double> full_features_;
};

/// Actual footprint an entry is charged: the owned CSR plus what the
/// PreparedMatrix owns beyond it (PreparedMatrix::owned_bytes — the
/// converted layout, if any, and the execution plan). CSR entries are not
/// double-counted (their PreparedMatrix references the same arrays).
std::size_t prepared_entry_bytes(const CsrMatrix& m, const PreparedMatrix& pm);

/// Tier 2: fingerprint → shared PreparedEntry, bounded by a byte budget.
/// get() is lock-free.
class PreparedCache {
 public:
  /// `budget_bytes` caps the summed entry footprints (0 = unbounded).
  explicit PreparedCache(std::size_t budget_bytes);

  std::shared_ptr<PreparedEntry> get(const Fingerprint& fp);

  /// Uncounted lookup for the server's coalescing double-check: identical
  /// to get() but records no hit/miss (the miss that led the caller here
  /// was already counted).
  std::shared_ptr<PreparedEntry> peek(const Fingerprint& fp);

  /// Inserts and applies the LRU byte budget. The entry's footprint must
  /// already be set (prepared_entry_bytes). Evicted entries only die once
  /// every outstanding shared_ptr drops.
  void put(const Fingerprint& fp, std::shared_ptr<PreparedEntry> entry);

  /// Drops every entry (epoch-safe against concurrent get()). Entries
  /// being RUN right now stay alive through their shared_ptr — a bank swap
  /// never interrupts an in-flight request.
  void clear() { map_.clear(); }

  std::uint64_t hits() const {
    return hits_.load(std::memory_order_relaxed);
  }
  std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  std::uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  std::size_t bytes() const { return map_.total_cost(); }
  std::size_t size() const { return map_.size(); }
  std::size_t budget() const { return map_.budget(); }

 private:
  EpochLruMap<Fingerprint, std::shared_ptr<PreparedEntry>, FingerprintHash>
      map_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace wise::serve
