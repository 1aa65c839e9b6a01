#pragma once
// Concurrent prediction server — the long-lived, multi-tenant front half of
// the WISE pipeline (ROADMAP: "serves heavy traffic").
//
// Execution: ONE ThreadPool of `workers` threads drains one FIFO of at most
// `queue_capacity` requests, so the server is work-conserving — no request
// waits in the queue while a worker is idle.
//
// State is SHARDED: the fingerprint space is partitioned across N shards
// (N = WISE_SERVE_SHARDS, default: hardware concurrency capped by the
// worker count, rounded down to a power of two). A shard owns only
// per-fingerprint state — a ChoiceCache, a byte-budgeted PreparedCache
// slice and an in-flight prepare table — so independent hot matrices never
// touch each other's locks or cache lines. The worker running a request
// resolves its home shard from the fingerprint: the request's precomputed
// one, or the hash the worker computes first.
//
// The warm path is lock-FREE, not merely lock-light: both cache tiers read
// through epoch-protected copy-on-write tables (util/epoch_lru.hpp), and
// cached entries execute SpMV through the const-thread-safe
// PreparedMatrix::run overload with a per-thread workspace — a warm PREDICT
// or RUN takes zero mutexes end to end. Server counters are one block of
// relaxed atomics, read by stats().
//
// Models: the SpMV bank and the SpMM bank live in ONE epoch-protected slot
// together with the SpMV bank's version. Requests read it under an epoch
// pin and copy out only the model they use, so no request kind takes a
// mutex to reach a model. publish_bank and set_spmm_bank install through
// the same copy-replace-retire swap; only publish_bank bumps the version
// and clears the cache tiers (cached entries embed SpMV choices, nothing
// else). SOLVE prepares for its max iteration count as the horizon; only
// unbounded-horizon choices enter the choice tier that answers PREDICT.
//
// Cold misses COALESCE: concurrent requests for the same not-yet-prepared
// fingerprint register on the shard's in-flight table and share one
// prepare — one leader converts the layout, the others park on a
// shared_future and reuse its entry (Response::coalesced). A stampede of
// K identical cold requests costs one conversion, not K.
//
// Request lifecycle:
//   submit() fingerprints nothing and copies nothing — it enqueues the
//   request (shared_ptr to the matrix) and returns a std::future<Response>.
//   When the queue is full the overflow policy decides: kBlock
//   parks the caller until a slot frees; kReject completes the future
//   immediately with a kResource error. A worker that dequeues an expired
//   request (its deadline passed while queued) completes it with a
//   kResource error without doing the work — deadlines are admission
//   control, not preemption. shutdown(drain=true) stops intake and
//   completes every queued request; shutdown(drain=false) stops intake and
//   completes the requests still queued with a "shutting down" error on the
//   calling thread (the work is skipped, the future is still fulfilled —
//   promises are never broken). A request a worker has already dequeued
//   runs to completion either way.
//
// Degradation: when a converted layout alone would overflow its shard's
// prepared-cache byte budget, the server re-prepares with the bank's
// best_csr_config (wise/pipeline.hpp) instead (fallback_reason "serve: ..."),
// mirroring the pipeline's degrade-don't-die contract. The "serve"
// fault-injection stage (WISE_FAULT_STAGES=serve) makes the overload error
// path deterministic in tests.
//
// Metrics (see docs/SERVING.md): serve.request.count/.reject/.expired,
// serve.degraded.count, serve.coalesced.count, serve.queue.wait +
// serve.request.service timers, the serve.cache.* family from cache.hpp,
// and the serve.shards/serve.workers/serve.queue.depth gauges (queue depth
// and cache gauges refresh on stats()/cache_stats(), keeping gauge writes
// off the request path).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "learn/online.hpp"
#include "serve/cache.hpp"
#include "serve/fingerprint.hpp"
#include "spmm/model.hpp"
#include "util/epoch.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"
#include "wise/pipeline.hpp"

namespace wise::serve {

enum class RequestKind {
  kPredict,  ///< choose() only: selection + predicted class
  kPrepare,  ///< choose() + layout conversion, result cached
  kRun,      ///< kPrepare + `iters` SpMV iterations on a seeded vector
  /// Blocked SpMM on a seeded `rhs_cols`-column dense RHS, configuration
  /// chosen by the SpMM bank (set_spmm_bank; src/spmm/). Served from the
  /// CSR arrays directly — no prepared-cache entry — so only the choice is
  /// model work.
  kSpmm,
  /// One whole iterative solve (src/solvers/) as a single request: prepare
  /// once through the SpMV bank with `iters` as the horizon
  /// (Wise::prepare), into the shard's prepared cache, then run every
  /// solver iteration on that layout. A warm session (fingerprint already
  /// prepared) skips choose AND prepare — the paper's "one-time selection,
  /// many iterations" amortization, measured by the solve-session perf
  /// stage.
  kSolve,
};

enum class OverflowPolicy {
  kBlock,   ///< submit() blocks until the queue has room
  kReject,  ///< submit() completes the future with a kResource error
};

struct ServerOptions {
  int workers = 4;  ///< worker threads (clamped to >= 1), shared by all shards
  std::size_t queue_capacity = 64;  ///< queued requests; 0 = unbounded
  OverflowPolicy overflow = OverflowPolicy::kBlock;
  std::size_t cache_bytes = 256u << 20;  ///< prepared-tier budget; 0 = unbounded
  std::size_t choice_entries = 1024;     ///< choice-tier entry cap
  bool fingerprint_values = false;  ///< hash values too (RUN-heavy loads)
  std::chrono::milliseconds default_deadline{0};  ///< 0 = none
  /// Shard count; non-powers-of-two round down, clamped to [1, 256].
  /// 0 = auto: hardware concurrency, capped by `workers`, rounded down to a
  /// power of two — so a workers=1 server keeps its caches in one shard.
  /// Shards split the cache budgets, not the workers or the queue. The
  /// resolved value is reported by options().shards after construction.
  int shards = 0;

  /// Reads WISE_SERVE_WORKERS, WISE_SERVE_QUEUE, WISE_SERVE_OVERFLOW
  /// (block|reject), WISE_SERVE_CACHE_BYTES, WISE_SERVE_CHOICE_ENTRIES,
  /// WISE_SERVE_HASH_VALUES, WISE_SERVE_DEADLINE_MS, WISE_SERVE_SHARDS
  /// over these defaults.
  static ServerOptions from_env();
};

struct Request {
  RequestKind kind = RequestKind::kPredict;
  std::shared_ptr<const CsrMatrix> matrix;
  std::string id;  ///< caller tag (e.g. file path), echoed in the response
  /// kRun: SpMV iterations. kSpmm: SpMM iterations. kSolve: the solver's
  /// max iteration count AND the horizon its layout is chosen for.
  int iters = 1;
  int rhs_cols = 4;  ///< kSpmm: dense RHS column count, clamped to [1, 64]
  /// kSolve: "cg" (default), "jacobi", or "bicgstab".
  std::string solver = "cg";
  /// Per-request deadline override; 0 uses ServerOptions::default_deadline.
  std::chrono::milliseconds deadline{0};
  /// Precomputed cache key, trusted verbatim. The hash is an O(nnz) pass,
  /// so callers that load a matrix once and send many requests against it
  /// (the daemon's loader, steady-state clients) compute it at load time;
  /// leave unset and the worker hashes per request.
  std::optional<Fingerprint> fingerprint;
};

struct Response {
  bool ok = false;
  std::string id;
  std::string error;  ///< empty when ok
  ErrorCategory category = ErrorCategory::kValidation;  ///< valid when !ok

  WiseChoice choice;        ///< selection outcome (kPredict/kPrepare/kRun)
  std::string config_name;  ///< choice.config.name()
  Fingerprint fingerprint;
  bool choice_cache_hit = false;
  bool prepared_cache_hit = false;
  /// This request's prepare was satisfied by another in-flight request for
  /// the same fingerprint (it waited instead of converting).
  bool coalesced = false;

  double queue_seconds = 0;    ///< time spent waiting for a worker
  double service_seconds = 0;  ///< worker time (fingerprint → done)
  /// kRun/kSpmm: mean seconds per iteration. kSolve: mean seconds per
  /// solver iteration (SpMV + vector work).
  double spmv_seconds = 0;
  /// kRun: sum of the final y. kSpmm: sum of the final Y block. kSolve:
  /// sum of the solution x. Bit-stable across cache temperature and shard
  /// count (the determinism contract).
  double checksum = 0;
  int solve_iterations = 0;  ///< kSolve: iterations the solver executed
  double residual_norm = 0;  ///< kSolve: final ||b - Ax||_2
  bool converged = false;    ///< kSolve: tolerance reached before `iters`
  /// Version of the model bank that served this request (hot-swap
  /// observability; the initial bank is version 1).
  std::uint64_t bank_version = 0;
};

/// Monotonic server counters (separate from the obs registry so STATS works
/// even with metrics disabled).
struct ServerStats {
  std::uint64_t accepted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;  ///< queue-full rejections
  std::uint64_t expired = 0;   ///< deadline passed while queued
  std::uint64_t failed = 0;    ///< completed with !ok (incl. expired)
  std::uint64_t degraded = 0;  ///< serve-level CSR demotions
  std::uint64_t coalesced = 0;  ///< requests that joined an in-flight prepare
  std::uint64_t prepares = 0;   ///< layout conversions actually executed
  std::uint64_t sampled = 0;    ///< requests observed by the online learner
  std::uint64_t spmm_requests = 0;   ///< kSpmm requests completed
  std::uint64_t sessions_active = 0;     ///< kSolve sessions running now
  std::uint64_t sessions_completed = 0;  ///< kSolve sessions finished
  std::uint64_t session_iters = 0;  ///< solver iterations across sessions
};

class Server {
 public:
  /// `predictor` is shared with the caller and must stay alive while the
  /// server runs; it is used strictly through const methods.
  explicit Server(std::shared_ptr<const Wise> predictor,
                  ServerOptions options = {});

  /// Drains and stops (shutdown(true)).
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Enqueues `req` (see class comment for backpressure/deadline rules).
  /// The returned future is always eventually completed with a Response —
  /// rejections and shutdowns produce !ok responses, never exceptions.
  std::future<Response> submit(Request req);

  /// submit() + wait.
  Response call(Request req);

  /// Stops intake; with `drain` runs every queued request to completion,
  /// without it completes the requests still queued with a shutdown error
  /// (requests a worker already dequeued still run). Idempotent.
  void shutdown(bool drain = true);

  ServerStats stats() const;
  CacheStats cache_stats() const;
  const ServerOptions& options() const { return options_; }
  std::size_t queue_depth() const;

  /// Resolved shard count (options().shards after auto-resolution).
  std::size_t shard_count() const { return shards_.size(); }
  /// Home shard index for a fingerprint — exposed so tests and benchmarks
  /// can construct colliding / non-colliding workloads deliberately.
  std::size_t shard_of(const Fingerprint& fp) const;

  /// Atomically replaces the serving model bank (the online-learning
  /// hot-swap). The swap is an atomic pointer exchange under util/epoch
  /// reclamation: requests already holding the old bank (or a cached entry
  /// built from it) finish on it — zero downtime, no lock on the warm
  /// path. Both cache tiers of every shard are cleared (their entries
  /// embed the old bank's choices); in-flight RUNs keep their entries
  /// alive through shared_ptr. Returns the new bank's version (the
  /// constructor-installed bank is version 1). Thread-safe.
  std::uint64_t publish_bank(std::shared_ptr<const Wise> wise);

  /// Version of the bank serving right now.
  std::uint64_t bank_version() const;

  /// The bank serving right now (epoch-protected snapshot).
  std::shared_ptr<const Wise> predictor() const;

  /// Attaches an online learner: binds it to publish_bank and the current
  /// bank, start()s it, and begins sampling RUN, SPMM and SOLVE
  /// completions into it at the learner's sample rate (each sampled request
  /// additionally times its workload's baseline to label the observation).
  /// Pass nullptr to detach.
  void attach_learner(std::shared_ptr<learn::OnlineLearner> learner);
  std::shared_ptr<learn::OnlineLearner> learner() const;

  /// Installs the SpMM model bank serving kSpmm requests (nullptr
  /// uninstalls). Independent of the SpMV bank (publish_bank never touches
  /// it — the §7 add-a-method separation) and unversioned: installing one
  /// neither bumps bank_version() nor clears the caches. Without one, kSpmm
  /// serves the kb=1 baseline with a fallback note. Thread-safe.
  void set_spmm_bank(std::shared_ptr<const spmm::SpmmBank> bank);
  std::shared_ptr<const spmm::SpmmBank> spmm_bank() const;

 private:
  /// Hot-path counters: relaxed atomics, each event one fetch_add; stats()
  /// copies them out.
  struct Counters {
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> completed{0};
    std::atomic<std::uint64_t> rejected{0};
    std::atomic<std::uint64_t> expired{0};
    std::atomic<std::uint64_t> failed{0};
    std::atomic<std::uint64_t> degraded{0};
    std::atomic<std::uint64_t> coalesced{0};
    std::atomic<std::uint64_t> prepares{0};
    std::atomic<std::uint64_t> sampled{0};
    std::atomic<std::uint64_t> spmm_requests{0};
    std::atomic<std::uint64_t> sessions_active{0};
    std::atomic<std::uint64_t> sessions_completed{0};
    std::atomic<std::uint64_t> session_iters{0};
  };

  /// The per-fingerprint serving state of one slice of the fingerprint
  /// space. The inflight table holds prepares currently executing for this
  /// shard's fingerprints; its mutex is cold-path only (taken on cache
  /// misses and prepare completion, never on a warm hit).
  struct Shard {
    Shard(std::size_t choice_entries, std::size_t cache_bytes)
        : choice_cache(choice_entries), prepared_cache(cache_bytes) {}

    ChoiceCache choice_cache;
    PreparedCache prepared_cache;
    std::mutex inflight_mutex;
    std::unordered_map<Fingerprint,
                       std::shared_future<std::shared_ptr<PreparedEntry>>,
                       FingerprintHash>
        inflight;
  };

  /// Every model the server chooses with, plus the SpMV bank's version,
  /// swapped as one unit so a reader never pairs a bank with another
  /// bank's version.
  struct BankSlot {
    std::shared_ptr<const Wise> wise;
    std::shared_ptr<const spmm::SpmmBank> spmm;
    std::uint64_t version = 1;
  };

  /// Reads the live slot under an epoch pin: `pick` copies out what the
  /// caller needs, and the copied shared_ptrs keep their models alive after
  /// the pin drops even if the slot itself is retired. Lock-free.
  template <typename Pick>
  auto read_bank(Pick pick) const {
    EpochDomain::Pin pin(EpochDomain::global());
    return pick(*bank_.load(std::memory_order_seq_cst));
  }

  /// The one writer: under publish_mutex_, copies the live slot, lets
  /// `edit` replace a field, publishes the copy and retires the old slot.
  /// A version change (publish_bank only) also clears both cache tiers of
  /// every shard. Returns the published version.
  std::uint64_t swap_bank(const std::function<void(BankSlot&)>& edit);

  Response process(const Request& req,
                   std::chrono::steady_clock::time_point enqueued,
                   std::chrono::steady_clock::time_point deadline);
  Response run_prepared(const Request& req, Response rsp,
                        const std::shared_ptr<PreparedEntry>& entry);
  /// kSpmm: choose from the SpMM bank, run the blocked kernel on a seeded
  /// RHS, optionally sample (workload class spmm).
  Response process_spmm(const Request& req, Response rsp);
  /// kSolve: cached prepare for `iters` SpMVs + full iterative solve.
  /// Samples carry workload class session.
  Response process_solve(Shard& home, const Request& req, Response rsp);
  /// The attached learner if its sampling draw picks this request, else
  /// null. One atomic load when no learner is attached.
  learn::OnlineLearner* sampling_learner();
  /// Labels a request `lr` (from sampling_learner()) sampled: times
  /// `iters` runs of the workload class's training baseline
  /// (`make_baseline()` returns one run of it on the request's own input),
  /// classifies the request's `chosen_per_iter` against it, and appends
  /// the observation with the fingerprint, bank version, predicted class
  /// and config name `rsp` carries and `full_features()`, the choice's
  /// vector with every matrix feature (a retrain may split on any). A
  /// no-op without a learner, a feature vector or a positive time;
  /// failures are swallowed — sampling never fails a request.
  template <typename FullFeatures, typename MakeBaseline>
  void sample(learn::OnlineLearner* lr, const Response& rsp,
              learn::WorkloadClass cls, int iters, double chosen_per_iter,
              FullFeatures full_features, MakeBaseline make_baseline);
  /// Cache-miss path: join the shard's in-flight prepare for `fp` or become
  /// its leader. Exactly one conversion runs per fingerprint no matter how
  /// many requests race. Marks rsp.coalesced on joiners.
  std::shared_ptr<PreparedEntry> prepare_or_join(Shard& home,
                                                 const Request& req,
                                                 const Fingerprint& fp,
                                                 Response& rsp);
  /// The leader's prepare: the bank chooses and converts for the request's
  /// horizon (kSolve: its max iterations; otherwise unbounded).
  std::shared_ptr<PreparedEntry> prepare_entry(Shard& home, const Request& req,
                                               const Fingerprint& fp,
                                               WiseChoice& choice);

  /// Current bank slot; readers go through read_bank(). Swapped-out slots
  /// are retired to the global epoch domain and reclaimed on later swaps
  /// (or at destruction, after the pool is joined).
  std::atomic<BankSlot*> bank_{nullptr};
  /// Serializes swap_bank() and the learner plumbing; never taken on the
  /// request path.
  mutable std::mutex publish_mutex_;
  std::vector<std::pair<BankSlot*, std::uint64_t>>
      retired_banks_;  ///< guarded by publish_mutex_; {slot, retire epoch}

  ServerOptions options_;  ///< with shards resolved to the actual count
  std::vector<std::unique_ptr<Shard>> shards_;
  Counters counters_;

  /// Learner plumbing: the hot path gates on one relaxed-ish atomic load;
  /// ownership lives in the vector (learners attached earlier are kept
  /// alive until destruction so an in-flight observe() can never race a
  /// re-attach). Guarded by publish_mutex_ except the atomic.
  std::atomic<learn::OnlineLearner*> learner_raw_{nullptr};
  std::vector<std::shared_ptr<learn::OnlineLearner>> learners_;

  std::atomic<bool> accepting_{true};
  /// Declared last, so destroyed first: its workers are joined before the
  /// state their tasks read goes away.
  ThreadPool pool_;
};

}  // namespace wise::serve
