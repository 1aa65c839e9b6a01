#include "serve/cache.hpp"

#include "obs/metrics.hpp"

namespace wise::serve {
namespace {

// Counter ids interned once per process, at first cache construction.
// Interning goes through the registry mutex, so it must never happen on
// the lock-free get() path; recording through a pre-interned MetricId only
// touches the calling thread's slab (and no-ops when metrics are off).
struct CacheMetricIds {
  obs::MetricId hit;
  obs::MetricId miss;
  obs::MetricId choice_hit;
  obs::MetricId choice_miss;
  obs::MetricId evict;
};

const CacheMetricIds& cache_metric_ids() {
  static const CacheMetricIds ids = [] {
    auto& metrics = obs::MetricsRegistry::global();
    CacheMetricIds out;
    out.hit = metrics.counter_id("serve.cache.hit");
    out.miss = metrics.counter_id("serve.cache.miss");
    out.choice_hit = metrics.counter_id("serve.cache.choice.hit");
    out.choice_miss = metrics.counter_id("serve.cache.choice.miss");
    out.evict = metrics.counter_id("serve.cache.evict.count");
    return out;
  }();
  return ids;
}

}  // namespace

ChoiceCache::ChoiceCache(std::size_t max_entries) : map_(max_entries) {
  cache_metric_ids();  // intern off the hot path, before any get()
}

std::optional<WiseChoice> ChoiceCache::get(const Fingerprint& fp) {
  auto& metrics = obs::MetricsRegistry::global();
  WiseChoice choice;
  if (map_.get(fp, choice)) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    metrics.add(cache_metric_ids().choice_hit);
    return choice;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  metrics.add(cache_metric_ids().choice_miss);
  return std::nullopt;
}

void ChoiceCache::put(const Fingerprint& fp, const WiseChoice& choice) {
  map_.put(fp, choice, 1);  // count-bounded: every choice costs 1
}

const std::vector<double>& PreparedEntry::full_features() const {
  std::call_once(full_features_once_,
                 [this] { full_features_ = choice.full_features(*matrix); });
  return full_features_;
}

std::size_t prepared_entry_bytes(const CsrMatrix& m, const PreparedMatrix& pm) {
  return m.memory_bytes() + pm.owned_bytes();
}

PreparedCache::PreparedCache(std::size_t budget_bytes) : map_(budget_bytes) {
  cache_metric_ids();
}

std::shared_ptr<PreparedEntry> PreparedCache::get(const Fingerprint& fp) {
  auto& metrics = obs::MetricsRegistry::global();
  std::shared_ptr<PreparedEntry> entry;
  if (map_.get(fp, entry)) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    metrics.add(cache_metric_ids().hit);
    return entry;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  metrics.add(cache_metric_ids().miss);
  return nullptr;
}

std::shared_ptr<PreparedEntry> PreparedCache::peek(const Fingerprint& fp) {
  std::shared_ptr<PreparedEntry> entry;
  map_.get(fp, entry);
  return entry;
}

void PreparedCache::put(const Fingerprint& fp,
                        std::shared_ptr<PreparedEntry> entry) {
  const std::size_t cost = entry->bytes;
  const std::size_t evicted = map_.put(fp, std::move(entry), cost);
  if (evicted > 0) {
    evictions_.fetch_add(evicted, std::memory_order_relaxed);
    obs::MetricsRegistry::global().add(cache_metric_ids().evict, evicted);
  }
  // serve.cache.bytes / .entries gauges are exported by the server, which
  // aggregates its shards' tiers — per-shard writers would fight over one
  // global gauge here.
}

}  // namespace wise::serve
