// wise_served — long-lived WISE prediction daemon over the serving layer
// (src/serve/). Speaks a line-oriented request/response protocol on stdin
// (default) or a unix-domain socket, so any language with "open a socket,
// write a line" can use WISE without linking C++:
//
//   wise_served [--models DIR] [--socket PATH] [--verbose]
//
//   PREDICT <matrix.mtx>         selection only (feature + inference)
//   PREPARE <matrix.mtx>         selection + layout conversion (cached)
//   RUN <matrix.mtx> <iters>     PREPARE + <iters> SpMV iterations
//   SPMM <matrix.mtx> [k] [iters]
//                                multi-vector run Y = A·X with a k-column
//                                RHS (default 8), config chosen by the
//                                SpMM bank (its own models, never the
//                                SpMV bank's)
//   SOLVE <matrix.mtx> [solver] [max_iters]
//                                iterative-solve session (cg | jacobi |
//                                bicgstab, default cg/200): one
//                                choose+prepare for max_iters SpMVs serves
//                                every iteration; a warm session reuses
//                                the cached layout
//   STATS                        one-line JSON: server/cache counters plus
//                                the obs metrics snapshot for the batch of
//                                requests since the previous STATS
//   QUIT                         graceful drain-and-exit (EOF works too)
//
// Responses are single lines:
//   OK id=<path> config=<name> class=<n> cached=<none|choice|prepared>
//      queue_us=<..> service_us=<..> [spmv_us=<..> checksum=<..>]
//      [iters=<..> residual=<..> converged=<0|1>] [fallback=<reason>]
//   ERR <category> <message>
//
// Concurrency: every request goes through the shared serve::Server (worker
// pool + fingerprint caches). In socket mode each client connection gets a
// reader thread, so N clients exercise the pool concurrently; per
// connection, responses come back in request order. Parsed matrices are
// memoized by path in a small LRU so repeated requests for the same file
// measure the serve cache, not the Matrix Market parser.
//
// Configuration: all WISE_SERVE_* knobs (see docs/SERVING.md) plus
// WISE_METRICS for the metrics sink at exit.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <array>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "example_common.hpp"
#include "hw/probe.hpp"
#include "learn/online.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "serve/server.hpp"
#include "sparse/mmio.hpp"
#include "spmm/model.hpp"
#include "spmv/plan.hpp"
#include "util/lru.hpp"
#include "wise/model_bank.hpp"

using namespace wise;

namespace {

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true); }

int usage() {
  std::fprintf(stderr,
               "usage: wise_served [--models DIR] [--socket PATH] "
               "[--verbose]\n"
               "  protocol (one request per line):\n"
               "    PREDICT <matrix.mtx>\n"
               "    PREPARE <matrix.mtx>\n"
               "    RUN <matrix.mtx> <iters>\n"
               "    SPMM <matrix.mtx> [k] [iters]\n"
               "    SOLVE <matrix.mtx> [cg|jacobi|bicgstab] [max_iters]\n"
               "    STATS\n"
               "    QUIT\n"
               "  knobs: WISE_SERVE_WORKERS, WISE_SERVE_QUEUE, "
               "WISE_SERVE_OVERFLOW,\n"
               "         WISE_SERVE_CACHE_BYTES, WISE_SERVE_CHOICE_ENTRIES,\n"
               "         WISE_SERVE_HASH_VALUES, WISE_SERVE_DEADLINE_MS,\n"
               "         WISE_SERVE_SHARDS (docs/SERVING.md)\n"
               "         WISE_LEARN + WISE_LEARN_* for the online-learning "
               "loop (docs/LEARNING.md)\n");
  return 2;
}

/// Path-keyed memo of parsed matrices, shared by every connection. The
/// fingerprint is computed once at parse time and reused by every request
/// against the same file, so steady-state requests skip the O(nnz) hash.
class MatrixLoader {
 public:
  struct Loaded {
    std::shared_ptr<const CsrMatrix> matrix;
    serve::Fingerprint fingerprint;
  };

  explicit MatrixLoader(bool hash_values) : hash_values_(hash_values) {}

  Loaded load(const std::string& path) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (auto* hit = cache_.get(path)) return *hit;
    }
    Loaded loaded;
    loaded.matrix = std::make_shared<const CsrMatrix>(
        CsrMatrix::from_coo(read_matrix_market_file(path)));
    loaded.fingerprint = serve::fingerprint_matrix(*loaded.matrix, hash_values_);
    std::lock_guard<std::mutex> lock(mutex_);
    cache_.put(path, loaded, 1);
    return loaded;
  }

 private:
  const bool hash_values_;
  std::mutex mutex_;
  LruMap<std::string, Loaded> cache_{32};
};

std::string stats_line(serve::Server& server) {
  obs::JsonValue doc = obs::JsonValue::object();
  doc.set("schema", "wise-serve-stats");
  doc.set("version", 5);  // v5: adds `hw` (machine probe); v4 added
                          // `sessions` (SOLVE) + `spmm`; v3 added `plan`;
                          // v2 added sampled/bank_version+learn
  const serve::ServerStats st = server.stats();
  obs::JsonValue sv = obs::JsonValue::object();
  sv.set("accepted", st.accepted);
  sv.set("completed", st.completed);
  sv.set("rejected", st.rejected);
  sv.set("expired", st.expired);
  sv.set("failed", st.failed);
  sv.set("degraded", st.degraded);
  sv.set("coalesced", st.coalesced);
  sv.set("prepares", st.prepares);
  sv.set("sampled", st.sampled);
  sv.set("bank_version", server.bank_version());
  sv.set("shards", static_cast<std::uint64_t>(server.shard_count()));
  sv.set("queue_depth", static_cast<std::uint64_t>(server.queue_depth()));
  doc.set("server", std::move(sv));
  // v4: SOLVE-session and SpMM counters, their own groups so dashboards
  // (and tools/bench_compare.py) can track the workload mix.
  obs::JsonValue sessions = obs::JsonValue::object();
  sessions.set("active", st.sessions_active);
  sessions.set("completed", st.sessions_completed);
  sessions.set("iters", st.session_iters);
  doc.set("sessions", std::move(sessions));
  obs::JsonValue spmm_v = obs::JsonValue::object();
  spmm_v.set("requests", st.spmm_requests);
  spmm_v.set("bank_installed", server.spmm_bank() != nullptr);
  doc.set("spmm", std::move(spmm_v));
  // v5: the machine probe conditioning inference (src/hw/probe.hpp), so
  // operators can confirm which hardware the serving bank is seeing.
  const hw::MachineProbe& probe = hw::machine_probe();
  obs::JsonValue hw_v = obs::JsonValue::object();
  hw_v.set("source", probe.source);
  hw_v.set("measured", probe.measured);
  hw_v.set("threads", static_cast<std::uint64_t>(probe.hardware_threads));
  hw_v.set("l1d_kib", static_cast<std::uint64_t>(probe.l1d_bytes / 1024));
  hw_v.set("l2_kib", static_cast<std::uint64_t>(probe.l2_bytes / 1024));
  hw_v.set("llc_kib", static_cast<std::uint64_t>(probe.llc_bytes / 1024));
  hw_v.set("stream_gbs", probe.stream_triad_gbs);
  doc.set("hw", std::move(hw_v));
  if (auto lr = server.learner()) {
    const learn::LearnStats ls = lr->stats();
    obs::JsonValue lv = obs::JsonValue::object();
    lv.set("samples_logged", ls.samples_logged);
    lv.set("samples_recovered", ls.samples_recovered);
    lv.set("wal_bytes", ls.wal_bytes);
    lv.set("wal_corrupt_skipped", ls.wal_corrupt_skipped);
    lv.set("wal_torn_bytes", ls.wal_torn_bytes);
    lv.set("wal_errors", ls.wal_errors);
    lv.set("wal_rotations", ls.wal_rotations);
    lv.set("mispredict_rate", ls.mispredict_rate);
    lv.set("window_samples", static_cast<std::uint64_t>(ls.window_samples));
    lv.set("baseline_mispredict_rate", ls.baseline_mispredict_rate);
    // Online accuracy drift: how much worse (positive) or better (negative)
    // the live bank predicts now vs. the moment it was published.
    lv.set("accuracy_drift",
           ls.mispredict_rate - ls.baseline_mispredict_rate);
    lv.set("bank_version", ls.bank_version);
    lv.set("drift_events", ls.drift_events);
    lv.set("retrains", ls.retrains);
    lv.set("retrain_failures", ls.retrain_failures);
    lv.set("candidates_rejected", ls.candidates_rejected);
    lv.set("swaps", ls.swaps);
    lv.set("swap_failures", ls.swap_failures);
    lv.set("rollbacks", ls.rollbacks);
    lv.set("last_candidate_accuracy", ls.last_candidate_accuracy);
    lv.set("last_live_accuracy", ls.last_live_accuracy);
    doc.set("learn", std::move(lv));
  }
  const serve::CacheStats cs = server.cache_stats();
  obs::JsonValue cv = obs::JsonValue::object();
  cv.set("choice_hits", cs.choice_hits);
  cv.set("choice_misses", cs.choice_misses);
  cv.set("prepared_hits", cs.prepared_hits);
  cv.set("prepared_misses", cs.prepared_misses);
  cv.set("evictions", cs.evictions);
  cv.set("prepared_bytes", static_cast<std::uint64_t>(cs.prepared_bytes));
  cv.set("prepared_entries", static_cast<std::uint64_t>(cs.prepared_entries));
  doc.set("cache", std::move(cv));
  // Per-batch metrics: snapshot-then-reset, so each STATS line covers the
  // requests since the previous one.
  auto& metrics = obs::MetricsRegistry::global();
  const obs::MetricsSnapshot snap = metrics.snapshot();
  // Kernel-variant histogram (spmv.plan.variant.<name>, emitted once per
  // prepare). Unlike the per-batch `metrics` block this accumulates across
  // the daemon's lifetime — the mix of specialized plans in play is a
  // fleet-level property, not a batch-level one — so the counters are
  // folded into process-wide totals before the registry resets.
  {
    static std::mutex plan_mutex;
    static std::array<std::uint64_t, kNumKernelVariants> plan_totals{};
    std::lock_guard<std::mutex> lock(plan_mutex);
    for (const auto& c : snap.counters) {
      constexpr std::string_view kPrefix = "spmv.plan.variant.";
      if (c.name.size() <= kPrefix.size() ||
          c.name.compare(0, kPrefix.size(), kPrefix) != 0) {
        continue;
      }
      const std::string_view suffix(c.name.c_str() + kPrefix.size());
      for (std::size_t v = 0; v < kNumKernelVariants; ++v) {
        if (suffix == kernel_variant_name(static_cast<KernelVariant>(v))) {
          plan_totals[v] += c.value;
          break;
        }
      }
    }
    obs::JsonValue pv = obs::JsonValue::object();
    std::uint64_t total = 0;
    for (std::size_t v = 0; v < kNumKernelVariants; ++v) {
      pv.set(kernel_variant_name(static_cast<KernelVariant>(v)),
             plan_totals[v]);
      total += plan_totals[v];
    }
    pv.set("blocks_total", total);
    pv.set("specialize_enabled", plan_specialization_enabled());
    doc.set("plan", std::move(pv));
  }
  doc.set("metrics", obs::metrics_to_json(snap));
  metrics.reset();
  return doc.dump(0);
}

std::string render_response(const serve::Response& rsp, bool with_spmv,
                            bool with_solve = false) {
  if (!rsp.ok) {
    return std::string("ERR ") + error_category_name(rsp.category) + " " +
           rsp.error;
  }
  std::ostringstream out;
  out << "OK id=" << rsp.id << " config=" << rsp.config_name
      << " class=" << rsp.choice.predicted_class << " cached="
      << (rsp.prepared_cache_hit ? "prepared"
                                 : (rsp.choice_cache_hit ? "choice" : "none"))
      << " fingerprint=" << rsp.fingerprint.hex()
      << " queue_us=" << rsp.queue_seconds * 1e6
      << " service_us=" << rsp.service_seconds * 1e6;
  if (with_spmv) {
    out << " spmv_us=" << rsp.spmv_seconds * 1e6
        << " checksum=" << rsp.checksum;
  }
  if (with_solve) {
    out << " iters=" << rsp.solve_iterations
        << " residual=" << rsp.residual_norm
        << " converged=" << (rsp.converged ? 1 : 0);
  }
  if (rsp.choice.fell_back()) {
    out << " fallback=\"" << rsp.choice.fallback_reason << '"';
  }
  return out.str();
}

/// Executes one protocol line. Returns false when the connection should
/// close (QUIT). Never throws: failures render as ERR lines.
bool handle_line(const std::string& line, serve::Server& server,
                 MatrixLoader& loader, std::string& reply) {
  std::istringstream in(line);
  std::string cmd;
  in >> cmd;
  if (cmd.empty()) {
    reply.clear();
    return true;
  }
  if (cmd == "QUIT") {
    reply = "OK bye";
    return false;
  }
  if (cmd == "STATS") {
    reply = stats_line(server);
    return true;
  }

  serve::Request req;
  if (cmd == "PREDICT") {
    req.kind = serve::RequestKind::kPredict;
  } else if (cmd == "PREPARE") {
    req.kind = serve::RequestKind::kPrepare;
  } else if (cmd == "RUN") {
    req.kind = serve::RequestKind::kRun;
  } else if (cmd == "SPMM") {
    req.kind = serve::RequestKind::kSpmm;
  } else if (cmd == "SOLVE") {
    req.kind = serve::RequestKind::kSolve;
  } else {
    reply = "ERR validation unknown command '" + cmd + "'";
    return true;
  }
  std::string path;
  in >> path;
  if (path.empty()) {
    reply = "ERR validation " + cmd + " needs a matrix path";
    return true;
  }
  if (req.kind == serve::RequestKind::kRun) {
    req.iters = 10;
    in >> req.iters;
  } else if (req.kind == serve::RequestKind::kSpmm) {
    req.rhs_cols = 8;
    req.iters = 10;
    in >> req.rhs_cols >> req.iters;
  } else if (req.kind == serve::RequestKind::kSolve) {
    req.solver = "cg";
    req.iters = 200;  // max solver iterations == the selector's expected N
    in >> req.solver >> req.iters;
  }
  req.id = path;
  try {
    MatrixLoader::Loaded loaded = loader.load(path);
    req.matrix = std::move(loaded.matrix);
    req.fingerprint = loaded.fingerprint;
  } catch (const Error& e) {
    reply = std::string("ERR ") + error_category_name(e.category()) + " " +
            e.what();
    return true;
  } catch (const std::exception& e) {
    reply = std::string("ERR parse ") + e.what();
    return true;
  }
  const serve::Response rsp = server.call(std::move(req));
  reply = render_response(rsp, rsp.ok && (cmd == "RUN" || cmd == "SPMM"),
                          rsp.ok && cmd == "SOLVE");
  return true;
}

/// Reads protocol lines from `in_fd`, writes replies to `out_fd`.
void serve_stream(int in_fd, int out_fd, serve::Server& server,
                  MatrixLoader& loader) {
  std::string buffer;
  char chunk[4096];
  bool open = true;
  while (open && !g_stop.load()) {
    const ssize_t n = ::read(in_fd, chunk, sizeof chunk);
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n', start);
         nl != std::string::npos && open;
         start = nl + 1, nl = buffer.find('\n', start)) {
      std::string line = buffer.substr(start, nl - start);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      std::string reply;
      open = handle_line(line, server, loader, reply);
      if (!reply.empty()) {
        reply.push_back('\n');
        std::size_t off = 0;
        while (off < reply.size()) {
          const ssize_t w =
              ::write(out_fd, reply.data() + off, reply.size() - off);
          if (w <= 0) {
            open = false;
            break;
          }
          off += static_cast<std::size_t>(w);
        }
      }
    }
    buffer.erase(0, start);
  }
}

int serve_socket(const std::string& path, serve::Server& server,
                 MatrixLoader& loader) {
  ::unlink(path.c_str());
  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    std::perror("socket");
    return 1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    std::fprintf(stderr, "socket path too long: %s\n", path.c_str());
    ::close(listen_fd);
    return 2;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(listen_fd, 64) < 0) {
    std::perror("bind/listen");
    ::close(listen_fd);
    return 1;
  }
  std::fprintf(stderr, "[wise_served] listening on %s\n", path.c_str());

  std::vector<std::thread> clients;
  while (!g_stop.load()) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (g_stop.load()) break;
      continue;
    }
    clients.emplace_back([fd, &server, &loader] {
      serve_stream(fd, fd, server, loader);
      ::close(fd);
    });
  }
  ::close(listen_fd);
  ::unlink(path.c_str());
  for (auto& t : clients) {
    if (t.joinable()) t.join();
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string model_dir;
  std::string socket_path;
  bool verbose = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--models") == 0 && i + 1 < argc) {
      model_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--socket") == 0 && i + 1 < argc) {
      socket_path = argv[++i];
    } else if (std::strcmp(argv[i], "--verbose") == 0 ||
               std::strcmp(argv[i], "-v") == 0) {
      verbose = true;
    } else {
      return usage();
    }
  }

  obs::configure_metrics_from_env();
  // The serve metrics (and STATS batches) need the registry on.
  obs::MetricsRegistry::global().set_enabled(true);

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  std::signal(SIGPIPE, SIG_IGN);

  return examples::run_guarded([&]() -> int {
    auto predictor = std::make_shared<const Wise>(
        model_dir.empty() ? examples::make_mini_wise()
                          : Wise(ModelBank::load(model_dir)));
    const auto options = serve::ServerOptions::from_env();
    serve::Server server(predictor, options);
    std::fprintf(stderr,
                 "[wise_served] %d workers / %zu shards, queue %zu (%s), "
                 "cache budget %zu bytes\n",
                 server.options().workers, server.shard_count(),
                 server.options().queue_capacity,
                 server.options().overflow == serve::OverflowPolicy::kBlock
                     ? "block"
                     : "reject",
                 server.options().cache_bytes);

    // SpMM bank: loaded from the same --models directory when present
    // (spmm_models.txt, trained/saved independently of models.txt), else
    // trained quickly on small generated matrices. Either way the SpMV
    // bank is never touched — the §7 add-a-method separation.
    std::shared_ptr<const spmm::SpmmBank> spmm_bank;
    if (!model_dir.empty()) {
      try {
        spmm_bank = std::make_shared<const spmm::SpmmBank>(
            spmm::SpmmBank::load(model_dir));
        for (const auto& w : spmm_bank->warnings()) {
          std::fprintf(stderr, "[wise_served] spmm bank: %s\n", w.c_str());
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr,
                     "[wise_served] no usable SpMM bank in %s (%s); "
                     "training a mini one\n",
                     model_dir.c_str(), e.what());
      }
    }
    if (spmm_bank == nullptr) {
      std::vector<CsrMatrix> spmm_corpus;
      for (const auto& spec : examples::mini_corpus()) {
        if (spec.n <= 1024) spmm_corpus.push_back(spec.materialize());
      }
      spmm_bank = std::make_shared<const spmm::SpmmBank>(
          spmm::train_spmm_bank(spmm_corpus, {.k = 8, .iters = 1}));
    }
    server.set_spmm_bank(spmm_bank);

    const auto learn_opts = learn::LearnOptions::from_env();
    if (learn_opts.enabled) {
      server.attach_learner(
          std::make_shared<learn::OnlineLearner>(learn_opts));
      const auto& lo = server.learner()->options();
      std::fprintf(stderr,
                   "[wise_served] online learning on: wal=%s "
                   "sample_rate=%.2f window=%zu threshold=%.2f\n",
                   lo.log_path.c_str(), lo.sample_rate, lo.window,
                   lo.drift_threshold);
    }

    MatrixLoader loader(options.fingerprint_values);
    int rc = 0;
    if (!socket_path.empty()) {
      rc = serve_socket(socket_path, server, loader);
    } else {
      serve_stream(STDIN_FILENO, STDOUT_FILENO, server, loader);
    }
    server.shutdown(true);

    if (verbose) {
      const auto snap = obs::MetricsRegistry::global().snapshot();
      std::fprintf(stderr, "\n-- serve metrics --\n%s",
                   obs::render_metrics_table(snap).c_str());
    }
    obs::emit_metrics_from_env();
    return rc;
  });
}
