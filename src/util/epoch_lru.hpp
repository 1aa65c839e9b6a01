#pragma once
// Read-lock-free, cost-budgeted LRU map over epoch-based reclamation
// (util/epoch.hpp) — the data structure behind the serving layer's sharded
// caches (serve/cache.hpp).
//
// Reads (the warm-hit path) take ZERO locks: a reader pins the epoch
// domain, follows one seq_cst pointer load to an immutable open-addressed
// table, probes it, bumps the entry's recency tick with a relaxed store,
// copies the value out, and unpins. Writers (cache misses — already the
// slow path, a prepare costs milliseconds) serialize on an internal mutex
// and rebuild the table copy-on-write: the old table is retired to the
// epoch domain and freed only after every pinned reader has moved past
// its retirement epoch, so a reader mid-probe can never touch freed
// memory.
//
// Recency is a per-entry 64-bit tick from a shared relaxed counter instead
// of a linked list (readers cannot splice a list locklessly). Under
// single-threaded access the tick order IS strict LRU order, so eviction
// stays deterministic for tests and replayed traces; under concurrency it
// is LRU up to the interleaving of the racing reads themselves. Eviction
// on put() drops lowest-tick entries until the budget holds and never
// drops the entry just inserted (same contract as util/lru.hpp).
//
// Destruction is not epoch-protected: callers must guarantee no reader is
// pinned when the map dies (the serve layer destroys caches only after
// its worker pool is joined).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "util/epoch.hpp"

namespace wise {

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class EpochLruMap {
 public:
  /// `budget` caps the sum of entry costs; 0 means unbounded.
  explicit EpochLruMap(std::size_t budget = 0,
                       EpochDomain* domain = &EpochDomain::global())
      : budget_(budget), domain_(domain), table_(new Table()) {}

  ~EpochLruMap() {
    delete table_.load(std::memory_order_relaxed);
    for (Retired& r : retired_) delete r.table;
  }

  EpochLruMap(const EpochLruMap&) = delete;
  EpochLruMap& operator=(const EpochLruMap&) = delete;

  /// Lock-free lookup. On a hit copies the value into `out`, marks the
  /// entry most-recently-used, and returns true.
  bool get(const Key& key, Value& out) {
    EpochDomain::Pin pin(*domain_);
    const Table* t = table_.load(std::memory_order_seq_cst);
    const Node* node = t->find(key);
    if (node == nullptr) return false;
    node->tick.store(tick_.fetch_add(1, std::memory_order_relaxed),
                     std::memory_order_relaxed);
    out = node->value;  // copied while pinned: the table cannot be freed
    return true;
  }

  /// Inserts (or replaces) `key` as most-recently-used, then evicts
  /// lowest-tick entries until the budget holds — never the entry just
  /// inserted, so an over-budget entry stays resident until the next
  /// insertion displaces it. Returns the number of entries evicted.
  /// Serialized against other writers; safe against concurrent get().
  std::size_t put(const Key& key, Value value, std::size_t cost) {
    std::lock_guard<std::mutex> lock(write_mutex_);
    Table* old = table_.load(std::memory_order_relaxed);

    std::vector<Item> items;
    items.reserve(old->count + 1);
    std::size_t total = 0;
    for (const Node& n : old->slots) {
      if (!n.used || n.key == key) continue;  // replacement drops the old copy
      items.push_back({n.key, n.value, n.cost,
                       n.tick.load(std::memory_order_relaxed)});
      total += n.cost;
    }
    items.push_back({key, std::move(value), cost,
                     tick_.fetch_add(1, std::memory_order_relaxed)});
    total += cost;

    // The just-inserted entry holds the highest tick, so while size > 1 the
    // minimum is always an older entry.
    std::size_t evicted = 0;
    while (budget_ > 0 && total > budget_ && items.size() > 1) {
      std::size_t victim = 0;
      for (std::size_t i = 1; i < items.size(); ++i) {
        if (items[i].tick < items[victim].tick) victim = i;
      }
      total -= items[victim].cost;
      items.erase(items.begin() + static_cast<std::ptrdiff_t>(victim));
      ++evicted;
    }

    Table* next = build_table(items);
    next->cost = total;
    table_.store(next, std::memory_order_seq_cst);
    size_.store(next->count, std::memory_order_relaxed);
    cost_.store(total, std::memory_order_relaxed);
    retired_.push_back({old, domain_->retire_epoch()});
    reclaim_locked();
    return evicted;
  }

  /// Drops every entry by publishing an empty table; the old table is
  /// retired to the epoch domain like any other write, so concurrent get()
  /// calls stay safe (they see either the old table or the empty one).
  /// Used by the serving layer to invalidate a shard's caches when a new
  /// model bank is published — cached choices embed the old bank's configs.
  void clear() {
    std::lock_guard<std::mutex> lock(write_mutex_);
    Table* old = table_.load(std::memory_order_relaxed);
    std::vector<Item> none;
    Table* next = build_table(none);
    table_.store(next, std::memory_order_seq_cst);
    size_.store(0, std::memory_order_relaxed);
    cost_.store(0, std::memory_order_relaxed);
    retired_.push_back({old, domain_->retire_epoch()});
    reclaim_locked();
  }

  std::size_t size() const { return size_.load(std::memory_order_relaxed); }
  std::size_t total_cost() const {
    return cost_.load(std::memory_order_relaxed);
  }
  std::size_t budget() const { return budget_; }

  /// Tables retired but not yet reclaimed (tests/diagnostics).
  std::size_t retired_count() const {
    std::lock_guard<std::mutex> lock(write_mutex_);
    return retired_.size();
  }

 private:
  struct Node {
    Key key{};
    Value value{};
    std::size_t cost = 0;
    bool used = false;
    mutable std::atomic<std::uint64_t> tick{0};
  };

  struct Item {
    Key key;
    Value value;
    std::size_t cost;
    std::uint64_t tick;
  };

  /// Immutable after publication (only the recency ticks mutate, and they
  /// are atomics). Linear probing at <= 50% load.
  struct Table {
    std::vector<Node> slots;
    std::size_t count = 0;
    std::size_t cost = 0;

    const Node* find(const Key& key) const {
      if (slots.empty()) return nullptr;
      const std::size_t mask = slots.size() - 1;
      std::size_t i = Hash{}(key) & mask;
      while (slots[i].used) {
        if (slots[i].key == key) return &slots[i];
        i = (i + 1) & mask;
      }
      return nullptr;
    }
  };

  struct Retired {
    Table* table;
    std::uint64_t epoch;
  };

  static Table* build_table(std::vector<Item>& items) {
    Table* t = new Table();
    std::size_t cap = 4;
    while (cap < items.size() * 2) cap *= 2;
    t->slots = std::vector<Node>(cap);
    const std::size_t mask = cap - 1;
    for (Item& item : items) {
      std::size_t i = Hash{}(item.key) & mask;
      while (t->slots[i].used) i = (i + 1) & mask;
      Node& n = t->slots[i];
      n.key = std::move(item.key);
      n.value = std::move(item.value);
      n.cost = item.cost;
      n.used = true;
      n.tick.store(item.tick, std::memory_order_relaxed);
    }
    t->count = items.size();
    return t;
  }

  /// Caller holds write_mutex_. Frees every retired table whose grace
  /// period has elapsed.
  void reclaim_locked() {
    const std::uint64_t min = domain_->min_active();
    std::size_t keep = 0;
    for (Retired& r : retired_) {
      if (min >= r.epoch) {
        delete r.table;
      } else {
        retired_[keep++] = r;
      }
    }
    retired_.resize(keep);
  }

  const std::size_t budget_;
  EpochDomain* domain_;
  std::atomic<Table*> table_;
  std::atomic<std::uint64_t> tick_{0};
  std::atomic<std::size_t> size_{0};
  std::atomic<std::size_t> cost_{0};
  mutable std::mutex write_mutex_;
  std::vector<Retired> retired_;  ///< guarded by write_mutex_
};

}  // namespace wise
