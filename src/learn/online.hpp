#pragma once
// The online learning loop: served measurements retrain the model bank
// (ROADMAP item 1; docs/LEARNING.md).
//
// The OnlineLearner sits beside serve::Server and closes the loop between
// prediction and measurement:
//
//   observe()   — called from the server's RUN, SPMM and SOLVE paths for
//                 sampled requests (WISE_LEARN_SAMPLE_RATE). Appends the
//                 labeled sample to the crash-safe WAL
//                 (learn/sample_log.hpp); SpMV samples also feed the
//                 sliding-window drift detector (learn/drift.hpp). A WAL
//                 write error is counted and serving continues.
//   background  — a retrain thread wakes when the misprediction rate
//                 crosses WISE_LEARN_DRIFT_THRESHOLD (or every
//                 WISE_LEARN_INTERVAL_MS), refits the per-config decision
//                 trees that have enough fresh samples (carrying the live
//                 trees for the rest, and the live prep head unchanged),
//                 reassembles the bank via
//                 ModelBank::assemble (the flat-tree recompile), and
//                 VALIDATES the candidate on a held-out newest slice of
//                 the WAL: both the candidate and the live bank re-predict
//                 every holdout sample, and only a candidate whose ±1-class
//                 accuracy beats the live bank's by WISE_LEARN_SWAP_MARGIN
//                 is published.
//   publish     — through the bound publisher (serve::Server::publish_bank):
//                 an atomic pointer swap under epoch reclamation. In-flight
//                 requests finish on the old bank; zero downtime, no lock
//                 on the warm path.
//   guardrail   — after a swap the learner watches the live misprediction
//                 rate of the NEW bank (samples are attributed by bank
//                 version). Once WISE_LEARN_GUARD_MIN samples accumulate,
//                 a rate worse than the pre-swap rate by more than
//                 WISE_LEARN_ROLLBACK_MARGIN triggers an automatic rollback
//                 publish of the previous bank, counted in stats.
//
// Every failure path — WAL write error, retrain exception, validation
// miss, publish fault — degrades to continued serving on the current bank
// and a counter; the learner never takes the server down. The `sample_log`,
// `retrain`, and `swap` fault stages (util/fault.hpp) make each path
// deterministic in tests.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "learn/drift.hpp"
#include "learn/sample_log.hpp"
#include "util/prng.hpp"
#include "wise/pipeline.hpp"

namespace wise::learn {

struct LearnOptions {
  bool enabled = false;       ///< master switch (daemon: WISE_LEARN)
  std::string log_path;       ///< WAL file; empty = <data_dir>/samples.wal
  double sample_rate = 1.0;   ///< fraction of RUN/SPMM/SOLVE observed
  std::size_t log_max_records = 4096;  ///< WAL cap before rotation

  std::size_t window = 256;        ///< drift window (observations)
  std::size_t min_samples = 64;    ///< window floor before drift can fire
  double drift_threshold = 0.35;   ///< mispredict rate that triggers retrain
  /// Also retrain on this cadence regardless of drift; 0 = drift-only.
  std::chrono::milliseconds interval{0};

  std::size_t min_config_samples = 8;  ///< per-config refit floor
  double holdout = 0.25;   ///< newest fraction of the WAL held out
  double swap_margin = 0.02;  ///< candidate must beat live accuracy by this

  std::size_t guard_min_samples = 32;  ///< post-swap observations before verdict
  double rollback_margin = 0.10;  ///< regression beyond this rolls back

  TreeParams tree_params;  ///< refit hyperparameters

  /// Reads WISE_LEARN, WISE_LEARN_LOG, WISE_LEARN_SAMPLE_RATE,
  /// WISE_LEARN_LOG_MAX, WISE_LEARN_WINDOW, WISE_LEARN_MIN_SAMPLES,
  /// WISE_LEARN_DRIFT_THRESHOLD, WISE_LEARN_INTERVAL_MS,
  /// WISE_LEARN_MIN_CONFIG_SAMPLES, WISE_LEARN_HOLDOUT,
  /// WISE_LEARN_SWAP_MARGIN, WISE_LEARN_GUARD_MIN,
  /// WISE_LEARN_ROLLBACK_MARGIN over these defaults.
  static LearnOptions from_env();
};

/// Point-in-time learner counters (the daemon's STATS `learn` object).
struct LearnStats {
  std::uint64_t samples_logged = 0;     ///< appended to the WAL this process
  std::uint64_t samples_recovered = 0;  ///< recovered from the WAL at start()
  std::uint64_t wal_bytes = 0;          ///< current WAL size on disk
  std::uint64_t wal_corrupt_skipped = 0;  ///< corrupt records skipped
  std::uint64_t wal_torn_bytes = 0;       ///< torn tail truncated at start()
  std::uint64_t wal_errors = 0;     ///< append failures (serving continued)
  std::uint64_t wal_rotations = 0;  ///< log compactions
  std::uint64_t wal_legacy_records = 0;  ///< v1 records read as spmv
  /// Samples logged but not SpMV (kept out of the drift window and
  /// retrains).
  std::uint64_t samples_foreign_class = 0;

  double mispredict_rate = 0;  ///< current sliding window (±1-class)
  std::size_t window_samples = 0;
  /// Window rate when the live bank was published (0 for the initial bank):
  /// mispredict_rate − baseline is the online accuracy drift.
  double baseline_mispredict_rate = 0;

  std::uint64_t bank_version = 1;
  std::uint64_t drift_events = 0;   ///< drift threshold crossings
  std::uint64_t retrains = 0;       ///< retrain cycles attempted
  std::uint64_t retrain_failures = 0;
  std::uint64_t candidates_rejected = 0;  ///< failed holdout validation
  std::uint64_t swaps = 0;          ///< banks published (excl. rollbacks)
  std::uint64_t swap_failures = 0;  ///< publish attempts that threw
  std::uint64_t rollbacks = 0;      ///< guardrail reverts
  double last_candidate_accuracy = 0;  ///< holdout, ±1-class
  double last_live_accuracy = 0;
};

class OnlineLearner {
 public:
  /// Swap sink; returns the version the new bank was published as.
  using Publisher =
      std::function<std::uint64_t(std::shared_ptr<const Wise>)>;

  explicit OnlineLearner(LearnOptions opts);

  /// stop()s.
  ~OnlineLearner();

  OnlineLearner(const OnlineLearner&) = delete;
  OnlineLearner& operator=(const OnlineLearner&) = delete;

  /// Wires the learner to a server: `publish` swaps a bank in, `live` /
  /// `live_version` describe the bank serving right now. Must be called
  /// before start() (serve::Server::attach_learner does all of this).
  void bind(Publisher publish, std::shared_ptr<const Wise> live,
            std::uint64_t live_version);

  /// Recovers the WAL and launches the retrain thread. A WAL that cannot
  /// be opened is counted (wal_errors) and the learner runs without
  /// durability — degrade, don't die.
  void start();

  /// Joins the retrain thread. Idempotent.
  void stop();

  /// Cheap sampling decision for the server's RUN path: true when this RUN
  /// should be measured against the CSR baseline and observed.
  bool should_sample();

  /// One labeled observation. Thread-safe; called from server workers.
  void observe(const Sample& s);

  /// Injects an externally built candidate bank (ops hook; also how tests
  /// force a regression to prove the guardrail). With `validate` the
  /// candidate faces the same holdout gate as a retrained one; without it
  /// the candidate publishes immediately — the post-swap guardrail is the
  /// only protection, which is exactly what the rollback test exercises.
  /// Returns true when the candidate was published.
  bool publish_candidate(ModelBank bank, bool validate = true);

  /// Wakes the retrain thread now (tests; avoids waiting on the interval).
  void poke();

  LearnStats stats() const;
  const LearnOptions& options() const { return opts_; }

 private:
  void thread_main();
  /// One retrain → validate → publish attempt. Called with `lk` held;
  /// releases it around the heavy work.
  void retrain_cycle(std::unique_lock<std::mutex>& lk);
  void rollback(std::unique_lock<std::mutex>& lk);
  /// Publishes `candidate` and arms the guardrail. Called with the lock
  /// held; releases it around the publisher call.
  bool publish_and_guard(std::unique_lock<std::mutex>& lk,
                         std::shared_ptr<const Wise> candidate);
  static std::shared_ptr<const Wise> make_wise(
      ModelBank bank, const std::shared_ptr<const Wise>& like);

  LearnOptions opts_;

  mutable std::mutex mutex_;  ///< guards everything below
  std::condition_variable cv_;
  SampleLog log_;
  DriftDetector drift_;
  Publisher publisher_;
  std::shared_ptr<const Wise> live_;
  std::uint64_t live_version_ = 1;
  std::shared_ptr<const Wise> prev_;  ///< rollback target while guarding
  bool guard_active_ = false;
  std::size_t guard_n_ = 0;
  std::size_t guard_misses_ = 0;
  double pre_swap_rate_ = 0;      ///< window rate when the swap happened
  double baseline_rate_ = 0;      ///< stats baseline for drift reporting
  std::uint64_t samples_seen_ = 0;          ///< monotonic observe() count
  std::uint64_t last_retrain_samples_ = 0;  ///< samples_seen_ at last cycle
  bool drift_pending_ = false;
  bool rollback_pending_ = false;
  bool poked_ = false;
  bool stop_ = false;
  LearnStats stats_;

  std::mutex sample_mutex_;  ///< only should_sample()'s PRNG
  SplitMix64 sample_rng_{0x5ab7'1e5eed'0001ull};

  std::thread thread_;
  bool started_ = false;
};

}  // namespace wise::learn
