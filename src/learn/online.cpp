#include "learn/online.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "features/extractor.hpp"
#include "obs/metrics.hpp"
#include "util/env.hpp"
#include "util/fault.hpp"
#include "wise/speedup_class.hpp"

namespace wise::learn {

namespace {

// Pre-interned once so observe() (called from server workers) records
// through thread-local slabs, same pattern as serve/server.cpp.
struct LearnMetricIds {
  obs::MetricId sample_count;
  obs::MetricId wal_error_count;
  obs::MetricId drift_count;
  obs::MetricId retrain_count;
  obs::MetricId swap_count;
  obs::MetricId rollback_count;
};

const LearnMetricIds& learn_metric_ids() {
  static const LearnMetricIds ids = [] {
    auto& metrics = obs::MetricsRegistry::global();
    LearnMetricIds out;
    out.sample_count = metrics.counter_id("learn.sample.count");
    out.wal_error_count = metrics.counter_id("learn.wal.error.count");
    out.drift_count = metrics.counter_id("learn.drift.count");
    out.retrain_count = metrics.counter_id("learn.retrain.count");
    out.swap_count = metrics.counter_id("learn.swap.count");
    out.rollback_count = metrics.counter_id("learn.rollback.count");
    return out;
  }();
  return ids;
}

/// ±1-class accuracy of `bank` over `samples` (re-predicting each sample's
/// config from its cached features). Samples naming configs the bank does
/// not have, or with a stale feature width, are skipped.
struct Validation {
  double accuracy = 0;
  std::size_t n = 0;
};

Validation bank_accuracy(const ModelBank& bank,
                         const std::vector<Sample>& samples) {
  std::unordered_map<std::string, std::size_t> index;
  const auto& configs = bank.configs();
  for (std::size_t i = 0; i < configs.size(); ++i) {
    index.emplace(configs[i].name(), i);
  }
  const std::size_t width = bank.feature_dim();
  Validation v;
  std::size_t good = 0;
  for (const Sample& s : samples) {
    const auto it = index.find(s.config_name);
    if (it == index.end() || s.features.size() != width) continue;
    const int pred = bank.predict_class(it->second, s.features);
    ++v.n;
    if (!DriftDetector::mispredicted(pred, s.observed_class)) ++good;
  }
  v.accuracy = v.n == 0 ? 0.0
                        : static_cast<double>(good) /
                              static_cast<double>(v.n);
  return v;
}

/// Per-config refit over `train`: configurations with at least
/// `min_config_samples` observations get a fresh tree fitted to the
/// OBSERVED classes; the rest keep the live bank's tree. Returns nullopt
/// when nothing had enough data to refit.
std::optional<ModelBank> build_candidate(const ModelBank& live,
                                         const std::vector<Sample>& train,
                                         const LearnOptions& opts,
                                         std::size_t* refit_out) {
  const auto& configs = live.configs();
  std::unordered_map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    index.emplace(configs[i].name(), i);
  }
  // Refits must match the live bank's width — a hardware-conditioned bank
  // (feature_dim > 67) trains its replacement trees on the same columns.
  const auto names = bank_feature_names(live.feature_dim());
  std::vector<std::vector<const Sample*>> buckets(configs.size());
  for (const Sample& s : train) {
    const auto it = index.find(s.config_name);
    if (it == index.end() || s.features.size() != names.size()) continue;
    buckets[it->second].push_back(&s);
  }

  std::vector<DecisionTree> trees = live.trees();
  std::size_t refit = 0;
  for (std::size_t c = 0; c < configs.size(); ++c) {
    if (buckets[c].size() < opts.min_config_samples) continue;
    Dataset ds(names, kNumSpeedupClasses);
    for (const Sample* s : buckets[c]) {
      ds.add(s->features, s->observed_class);
    }
    DecisionTree tree;
    tree.fit(ds, opts.tree_params);
    trees[c] = std::move(tree);
    ++refit;
  }
  if (refit == 0) return std::nullopt;
  if (refit_out != nullptr) *refit_out = refit;
  // Samples label only the speed head; the prep head rides along as is.
  return ModelBank::assemble(configs, std::move(trees), live.feature_dim(),
                             live.prep_trees());
}

/// The learner trains the SpMV bank — the only bank its Publisher can
/// publish — so only SpMV samples count. SpMM and SOLVE records stay in
/// the shared WAL but must never reach the SpMV trees, holdout, drift
/// window or guardrail.
constexpr auto kOwnClass = static_cast<std::uint8_t>(WorkloadClass::kSpmv);

/// The retraining corpus: the WAL's SpMV samples.
std::vector<Sample> own_class_samples(const std::vector<Sample>& all) {
  std::vector<Sample> out;
  out.reserve(all.size());
  for (const Sample& s : all) {
    if (s.workload_class == kOwnClass) out.push_back(s);
  }
  return out;
}

/// Temporal split: train on the oldest (1 - holdout) fraction, validate on
/// the newest — the distribution the next bank will actually serve.
std::size_t holdout_count(std::size_t n, double fraction) {
  if (n < 2) return 0;
  auto h = static_cast<std::size_t>(
      std::lround(static_cast<double>(n) * fraction));
  h = std::clamp<std::size_t>(h, 1, n - 1);
  return h;
}

}  // namespace

LearnOptions LearnOptions::from_env() {
  LearnOptions o;
  o.enabled = env_flag("WISE_LEARN", false);
  o.log_path = env_string("WISE_LEARN_LOG", "");
  o.sample_rate = env_double("WISE_LEARN_SAMPLE_RATE", o.sample_rate);
  o.log_max_records = static_cast<std::size_t>(env_int(
      "WISE_LEARN_LOG_MAX", static_cast<std::int64_t>(o.log_max_records)));
  o.window = static_cast<std::size_t>(
      env_int("WISE_LEARN_WINDOW", static_cast<std::int64_t>(o.window)));
  o.min_samples = static_cast<std::size_t>(env_int(
      "WISE_LEARN_MIN_SAMPLES", static_cast<std::int64_t>(o.min_samples)));
  o.drift_threshold =
      env_double("WISE_LEARN_DRIFT_THRESHOLD", o.drift_threshold);
  o.interval =
      std::chrono::milliseconds(env_int("WISE_LEARN_INTERVAL_MS", 0));
  o.min_config_samples = static_cast<std::size_t>(
      env_int("WISE_LEARN_MIN_CONFIG_SAMPLES",
              static_cast<std::int64_t>(o.min_config_samples)));
  o.holdout = env_double("WISE_LEARN_HOLDOUT", o.holdout);
  o.swap_margin = env_double("WISE_LEARN_SWAP_MARGIN", o.swap_margin);
  o.guard_min_samples = static_cast<std::size_t>(
      env_int("WISE_LEARN_GUARD_MIN",
              static_cast<std::int64_t>(o.guard_min_samples)));
  o.rollback_margin =
      env_double("WISE_LEARN_ROLLBACK_MARGIN", o.rollback_margin);
  return o;
}

OnlineLearner::OnlineLearner(LearnOptions opts)
    : opts_(std::move(opts)),
      log_(opts_.log_path.empty() ? data_dir() + "/samples.wal"
                                  : opts_.log_path,
           opts_.log_max_records),
      drift_(opts_.window, opts_.min_samples, opts_.drift_threshold) {
  learn_metric_ids();  // intern before the first observe() can record
}

OnlineLearner::~OnlineLearner() { stop(); }

void OnlineLearner::bind(Publisher publish, std::shared_ptr<const Wise> live,
                         std::uint64_t live_version) {
  std::lock_guard<std::mutex> lk(mutex_);
  publisher_ = std::move(publish);
  live_ = std::move(live);
  live_version_ = live_version;
}

void OnlineLearner::start() {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    if (started_) return;
    started_ = true;
    stop_ = false;
    try {
      const RecoveryStats rec = log_.open();
      stats_.samples_recovered = rec.records;
      stats_.wal_corrupt_skipped = rec.corrupt_skipped;
      stats_.wal_torn_bytes = rec.torn_tail_bytes;
      stats_.wal_legacy_records = rec.legacy_records;
      // Recovered samples are retrainable material that postdates the last
      // retrain (there was none in this process).
      samples_seen_ += rec.records;
      if (rec.corrupt_skipped > 0 || rec.torn_tail_bytes > 0 ||
          rec.header_rewritten) {
        std::fprintf(stderr,
                     "OnlineLearner: WAL recovery: %zu records, %zu corrupt "
                     "skipped, %zu torn bytes truncated%s\n",
                     rec.records, rec.corrupt_skipped, rec.torn_tail_bytes,
                     rec.header_rewritten ? ", header rewritten" : "");
      }
    } catch (const std::exception& e) {
      ++stats_.wal_errors;
      std::fprintf(stderr,
                   "OnlineLearner: WAL unavailable (%s); continuing without "
                   "durability\n",
                   e.what());
    }
  }
  thread_ = std::thread(&OnlineLearner::thread_main, this);
}

void OnlineLearner::stop() {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    if (!started_) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  std::lock_guard<std::mutex> lk(mutex_);
  started_ = false;
}

bool OnlineLearner::should_sample() {
  if (opts_.sample_rate >= 1.0) return true;
  if (opts_.sample_rate <= 0.0) return false;
  std::lock_guard<std::mutex> lk(sample_mutex_);
  const double u =
      static_cast<double>(sample_rng_.next() >> 11) * 0x1.0p-53;
  return u < opts_.sample_rate;
}

void OnlineLearner::observe(const Sample& s) {
  auto& metrics = obs::MetricsRegistry::global();
  const auto& ids = learn_metric_ids();
  std::lock_guard<std::mutex> lk(mutex_);
  ++samples_seen_;
  try {
    log_.append(s);
    ++stats_.samples_logged;
    metrics.add(ids.sample_count);
  } catch (const std::exception&) {
    // Degrade, don't die: a WAL that stops accepting writes costs
    // durability, never a request.
    ++stats_.wal_errors;
    metrics.add(ids.wal_error_count);
  }

  // Foreign workload classes (SpMM, SOLVE sessions) are durable in the
  // shared WAL above, but this learner's drift window, guardrail, and
  // retrains describe only the SpMV bank — don't let them pollute it.
  if (s.workload_class != kOwnClass) {
    ++stats_.samples_foreign_class;
    return;
  }

  // Only the live bank's predictions say anything about the live bank;
  // samples from a version that was swapped out mid-flight are logged
  // (they are still valid training data) but not window-tracked.
  if (s.bank_version != live_version_) return;
  drift_.observe(s.predicted_class, s.observed_class);

  if (guard_active_) {
    ++guard_n_;
    if (DriftDetector::mispredicted(s.predicted_class, s.observed_class)) {
      ++guard_misses_;
    }
    if (guard_n_ >= opts_.guard_min_samples) {
      const double rate = static_cast<double>(guard_misses_) /
                          static_cast<double>(guard_n_);
      if (rate > pre_swap_rate_ + opts_.rollback_margin) {
        rollback_pending_ = true;
        cv_.notify_all();
      } else {
        // The swap held up under live traffic: drop the rollback target.
        guard_active_ = false;
        prev_.reset();
      }
    }
    return;  // no drift-triggered retrain while the guard is deciding
  }

  if (!drift_pending_ && drift_.drifted() &&
      samples_seen_ > last_retrain_samples_) {
    drift_pending_ = true;
    ++stats_.drift_events;
    metrics.add(ids.drift_count);
    cv_.notify_all();
  }
}

void OnlineLearner::thread_main() {
  std::unique_lock<std::mutex> lk(mutex_);
  while (!stop_) {
    const auto timeout = opts_.interval.count() > 0
                             ? opts_.interval
                             : std::chrono::milliseconds(60'000);
    const bool signalled = cv_.wait_for(lk, timeout, [&] {
      return stop_ || drift_pending_ || rollback_pending_ || poked_;
    });
    if (stop_) break;
    const bool interval_due = !signalled && opts_.interval.count() > 0;
    const bool want_retrain = drift_pending_ || poked_ || interval_due;
    poked_ = false;
    if (rollback_pending_) {
      rollback(lk);
      continue;
    }
    if (want_retrain) retrain_cycle(lk);
  }
}

void OnlineLearner::retrain_cycle(std::unique_lock<std::mutex>& lk) {
  drift_pending_ = false;
  const std::vector<Sample> all = own_class_samples(log_.samples());
  if (all.size() < std::max<std::size_t>(2, opts_.min_samples)) return;
  if (samples_seen_ <= last_retrain_samples_) return;  // nothing new
  const std::uint64_t prev_retrain_mark = last_retrain_samples_;
  last_retrain_samples_ = samples_seen_;
  ++stats_.retrains;
  obs::MetricsRegistry::global().add(learn_metric_ids().retrain_count);
  const std::shared_ptr<const Wise> live = live_;

  lk.unlock();
  std::shared_ptr<const Wise> candidate;
  double cand_acc = 0;
  double live_acc = 0;
  bool accept = false;
  bool failed = false;
  try {
    FaultInjector::global().maybe_throw(stage::kRetrain,
                                        ErrorCategory::kModelBank);
    const std::size_t hold = holdout_count(all.size(), opts_.holdout);
    const std::vector<Sample> train(all.begin(),
                                    all.end() - static_cast<std::ptrdiff_t>(
                                                    hold));
    const std::vector<Sample> holdout(all.end() - static_cast<std::ptrdiff_t>(
                                                      hold),
                                      all.end());
    std::size_t refit = 0;
    auto built = build_candidate(live->bank(), train, opts_, &refit);
    if (built.has_value()) {
      candidate = make_wise(std::move(*built), live);
      const Validation cand_v = bank_accuracy(candidate->bank(), holdout);
      const Validation live_v = bank_accuracy(live->bank(), holdout);
      cand_acc = cand_v.accuracy;
      live_acc = live_v.accuracy;
      accept = cand_v.n > 0 && cand_acc > live_acc + opts_.swap_margin;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "OnlineLearner: retrain failed: %s\n", e.what());
    failed = true;
  }
  lk.lock();
  if (failed) {
    ++stats_.retrain_failures;
    // The samples were not consumed: a later trigger may retry them.
    last_retrain_samples_ = prev_retrain_mark;
    return;
  }
  stats_.last_candidate_accuracy = cand_acc;
  stats_.last_live_accuracy = live_acc;
  if (!accept) {
    ++stats_.candidates_rejected;
    return;
  }
  publish_and_guard(lk, std::move(candidate));
}

bool OnlineLearner::publish_and_guard(std::unique_lock<std::mutex>& lk,
                                      std::shared_ptr<const Wise> candidate) {
  const Publisher pub = publisher_;
  if (!pub || candidate == nullptr) {
    ++stats_.swap_failures;
    return false;
  }
  const std::shared_ptr<const Wise> old_live = live_;
  const double window_rate = drift_.rate();

  lk.unlock();
  std::uint64_t version = 0;
  bool failed = false;
  try {
    FaultInjector::global().maybe_throw(stage::kSwap,
                                        ErrorCategory::kResource);
    version = pub(candidate);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "OnlineLearner: publish failed: %s\n", e.what());
    failed = true;
  }
  lk.lock();
  if (failed) {
    ++stats_.swap_failures;
    return false;
  }
  prev_ = old_live;
  pre_swap_rate_ = window_rate;
  baseline_rate_ = window_rate;
  // Drift that fired while this candidate trained measured the old bank;
  // the new one starts with a fresh window and no pending retrain.
  drift_.reset();
  drift_pending_ = false;
  guard_active_ = true;
  guard_n_ = 0;
  guard_misses_ = 0;
  live_ = std::move(candidate);
  live_version_ = version;
  ++stats_.swaps;
  auto& metrics = obs::MetricsRegistry::global();
  metrics.add(learn_metric_ids().swap_count);
  metrics.set_gauge("learn.bank.version", static_cast<double>(version));
  return true;
}

void OnlineLearner::rollback(std::unique_lock<std::mutex>& lk) {
  rollback_pending_ = false;
  const std::shared_ptr<const Wise> target = prev_;
  const Publisher pub = publisher_;
  if (target == nullptr || !pub) {
    guard_active_ = false;
    return;
  }

  lk.unlock();
  std::uint64_t version = 0;
  bool failed = false;
  // No fault injection here: the rollback is the recovery path, and making
  // it fail alongside the forward swap would leave tests with no way to
  // exercise "swap fails, rollback succeeds".
  try {
    version = pub(target);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "OnlineLearner: rollback publish failed: %s\n",
                 e.what());
    failed = true;
  }
  lk.lock();
  guard_active_ = false;
  guard_n_ = 0;
  guard_misses_ = 0;
  prev_.reset();
  if (failed) {
    ++stats_.swap_failures;
    return;
  }
  live_ = target;
  live_version_ = version;
  drift_.reset();
  baseline_rate_ = pre_swap_rate_;
  ++stats_.rollbacks;
  auto& metrics = obs::MetricsRegistry::global();
  metrics.add(learn_metric_ids().rollback_count);
  metrics.set_gauge("learn.bank.version", static_cast<double>(version));
}

bool OnlineLearner::publish_candidate(ModelBank bank, bool validate) {
  std::unique_lock<std::mutex> lk(mutex_);
  const std::shared_ptr<const Wise> live = live_;
  std::shared_ptr<const Wise> candidate;
  try {
    lk.unlock();
    candidate = make_wise(std::move(bank), live);
    lk.lock();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "OnlineLearner: bad candidate bank: %s\n",
                 e.what());
    lk.lock();
    ++stats_.candidates_rejected;
    return false;
  }

  if (validate) {
    const std::vector<Sample> all = own_class_samples(log_.samples());
    lk.unlock();
    double cand_acc = 0;
    double live_acc = 0;
    bool accept = false;
    try {
      const Validation cand_v = bank_accuracy(candidate->bank(), all);
      const Validation live_v = live != nullptr
                                    ? bank_accuracy(live->bank(), all)
                                    : Validation{};
      cand_acc = cand_v.accuracy;
      live_acc = live_v.accuracy;
      accept = cand_v.n > 0 && cand_acc > live_acc + opts_.swap_margin;
    } catch (const std::exception&) {
      accept = false;
    }
    lk.lock();
    stats_.last_candidate_accuracy = cand_acc;
    stats_.last_live_accuracy = live_acc;
    if (!accept) {
      ++stats_.candidates_rejected;
      return false;
    }
  }
  return publish_and_guard(lk, std::move(candidate));
}

void OnlineLearner::poke() {
  std::lock_guard<std::mutex> lk(mutex_);
  poked_ = true;
  cv_.notify_all();
}

LearnStats OnlineLearner::stats() const {
  std::lock_guard<std::mutex> lk(mutex_);
  LearnStats s = stats_;
  s.wal_bytes = log_.bytes();
  s.wal_rotations = log_.rotations();
  s.mispredict_rate = drift_.rate();
  s.window_samples = drift_.size();
  s.baseline_mispredict_rate = baseline_rate_;
  s.bank_version = live_version_;
  return s;
}

std::shared_ptr<const Wise> OnlineLearner::make_wise(
    ModelBank bank, const std::shared_ptr<const Wise>& like) {
  auto wise = std::make_shared<Wise>(std::move(bank));
  if (like != nullptr) {
    // The candidate serves the same traffic the live predictor did: carry
    // its configuration knobs, not the environment defaults.
    wise->feature_params = like->feature_params;
    wise->memory_budget_bytes = like->memory_budget_bytes;
  }
  return wise;
}

}  // namespace wise::learn
