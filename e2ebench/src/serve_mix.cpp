// The `serve-mix` workload: a closed loop of two client threads against an
// in-process serve::Server. Each client sends its next request only after
// the previous one's future is ready.
//
// The request stream is fixed by the seed: 90% of requests go to a hot set
// of 16 matrices that fits the prepared-cache budget and carries
// precomputed fingerprints (as the daemon's loader does); 10% go to a cold
// tail in which every matrix appears exactly once per server. The kinds are
// exactly 60% RUN (10 iterations), 20% PREDICT, 10% SPMM (k = 8) and 10%
// SOLVE (CG). Cache misses are therefore a property of the stream, not of
// thread timing. A round builds a fresh server, warms the hot set with one
// PREPARE each, replays the stream and shuts the server down.
#include <omp.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "gen/generators.hpp"
#include "hw/probe.hpp"
#include "serve/server.hpp"
#include "solvers/solver_common.hpp"
#include "spmm/model.hpp"
#include "spmm/spmm.hpp"
#include "spmv/csr_kernels.hpp"
#include "spmv/executor.hpp"
#include "util/prng.hpp"

namespace e2e {
namespace {

namespace serve = wise::serve;
using serve::RequestKind;

constexpr int kRequestsPerRound = 400;
constexpr int kHot = 16;
constexpr int kHotStencils = 4;  ///< hot[0..3]; the SOLVE targets
constexpr int kRunIters = 10;
constexpr int kSpmmCols = 8;
constexpr int kSolveMaxIters = 3000;
constexpr int kMklIters = kRunIters;

struct Target {
  std::shared_ptr<const CsrMatrix> m;
  serve::Fingerprint fp;
  double run_checksum = 0;   ///< serial-reference sum of A x
  double spmm_checksum = 0;  ///< serial-reference sum of A X, k = 8
  std::string predicted;     ///< Wise::choose's config name
  Vec x;                     ///< the server's RUN vector (MKL timing)
};

struct Planned {
  RequestKind kind;
  int target;  ///< index into targets; >= kHot is the cold tail
};

Target make_target(std::shared_ptr<const CsrMatrix> m, RequestKind kind,
                   const wise::Wise& wise) {
  Target t;
  t.m = std::move(m);
  const CsrMatrix& a = *t.m;
  t.fp = serve::fingerprint_matrix(a);
  const std::uint64_t vseed = serve_vector_seed(t.fp.structure);
  t.predicted = wise.choose(a).config.name();
  if (kind == RequestKind::kRun || kind == RequestKind::kPrepare) {
    // Oracle: the chosen kernel on one thread (every kernel gives the same
    // bits at any thread count), summed in row order like the server.
    t.x = seeded_vector(static_cast<std::size_t>(a.ncols()), vseed);
    Vec y(static_cast<std::size_t>(a.nrows()));
    wise::PreparedMatrix pm = wise::PreparedMatrix::prepare(
        a, wise::parse_method_config(t.predicted));
    const int threads = omp_get_max_threads();
    omp_set_num_threads(1);
    pm.run(t.x, y);
    omp_set_num_threads(threads);
    t.run_checksum = sum({y.begin(), y.end()});
  }
  if (kind == RequestKind::kSpmm || kind == RequestKind::kPrepare) {
    const Vec x = seeded_vector(
        static_cast<std::size_t>(a.ncols()) * kSpmmCols, vseed);
    Vec y(static_cast<std::size_t>(a.nrows()) * kSpmmCols);
    wise::spmm::spmm_reference(a, x, y, kSpmmCols);
    t.spmm_checksum = sum({y.begin(), y.end()});
  }
  return t;
}

std::vector<Planned> plan_stream(std::uint64_t seed,
                                 std::vector<RequestKind>& cold_kinds) {
  const int cold = kRequestsPerRound / 10;
  auto split = [](int n) {
    std::vector<RequestKind> k;
    k.insert(k.end(), n * 6 / 10, RequestKind::kRun);
    k.insert(k.end(), n * 2 / 10, RequestKind::kPredict);
    k.insert(k.end(), n / 10, RequestKind::kSpmm);
    k.insert(k.end(), n - static_cast<int>(k.size()), RequestKind::kSolve);
    return k;
  };
  // Hot targets cycle through the hot set per kind, so every seed sends
  // each hot matrix the same number of requests of each kind; the seed
  // picks the matrices and the order.
  std::vector<Planned> stream;
  std::map<RequestKind, int> per_kind;
  for (RequestKind k : split(kRequestsPerRound - cold)) {
    const int n = k == RequestKind::kSolve ? kHotStencils : kHot;
    stream.push_back({k, per_kind[k]++ % n});
  }
  cold_kinds = split(cold);
  for (int i = 0; i < cold; ++i) stream.push_back({cold_kinds[i], kHot + i});
  wise::Xoshiro256 rng(mix_seed(seed, 0x5e7e));
  for (std::size_t i = stream.size(); i > 1; --i) {
    std::swap(stream[i - 1], stream[rng.next() % i]);
  }
  return stream;
}

/// Hot set: stencils first (SPD, so CG converges), then three each of the
/// other families at 2^14 rows. Fingerprints route requests to shards, so
/// hot matrices are drawn until the shards hold equal numbers of each
/// kind: the seed then cannot load one shard more than the other. Cold
/// tail: one fresh matrix per cold request, 2^13 rows; cold SOLVEs get
/// 49-row-high stencils, a shape no hot matrix has, so no two targets
/// share a fingerprint.
std::vector<Target> build_targets(std::uint64_t seed,
                                  const std::vector<RequestKind>& cold_kinds,
                                  const wise::Wise& wise,
                                  const serve::Server& router) {
  std::vector<Target> t;
  auto add = [&](CsrMatrix m, RequestKind k) {
    t.push_back(make_target(std::make_shared<const CsrMatrix>(std::move(m)),
                            k, wise));
  };
  const std::size_t shards = router.shard_count();
  auto shard = [&](const CsrMatrix& m) {
    return router.shard_of(serve::fingerprint_matrix(m));
  };
  std::vector<int> stencils_on(shards, 0);
  const auto per_shard = static_cast<int>((kHotStencils + shards - 1) / shards);
  for (index_t g = 48; static_cast<int>(t.size()) < kHotStencils; g += 2) {
    CsrMatrix m = CsrMatrix::from_coo(wise::generate_stencil2d(g, g, 9));
    if (stencils_on[shard(m)]++ < per_shard) {
      add(std::move(m), RequestKind::kPrepare);
    }
  }
  const Family others[] = {Family::kRmatHighSkew, Family::kRmatErdosRenyi,
                           Family::kRgg, Family::kBanded};
  for (int i = 0; i < kHot - kHotStencils; ++i) {
    const std::size_t want = static_cast<std::size_t>(i + i / 4) % shards;
    for (std::uint64_t draw = 0;; ++draw) {
      if (draw == 256) throw std::runtime_error("cannot balance the hot set");
      CsrMatrix m = make_matrix(others[i % 4], index_t{1} << 14, 12.0,
                                mix_seed(seed, 2000 + 1000 * draw + i));
      if (shard(m) == want) {
        add(std::move(m), RequestKind::kPrepare);
        break;
      }
    }
  }
  int solves = 0;
  for (std::size_t i = 0; i < cold_kinds.size(); ++i) {
    const RequestKind k = cold_kinds[i];
    if (k == RequestKind::kSolve) {
      add(CsrMatrix::from_coo(wise::generate_stencil2d(50 + solves++, 49, 9)),
          k);
    } else {
      add(make_matrix(others[i % 4], index_t{1} << 13, 12.0,
                      mix_seed(seed, 3000 + i)),
          k);
    }
  }
  return t;
}

struct Completed {
  int planned = 0;
  double latency = 0;
  std::int64_t submitted_ns = 0;
  serve::Response rsp;
};

struct Round {
  double wall = 0;
  std::vector<Completed> done;
  serve::ServerStats stats;
  serve::CacheStats cache;
  std::vector<std::string> warm_picks;
  std::vector<double> mkl_block;  ///< per hot matrix: kMklIters MKL SpMVs
};

serve::ServerOptions server_options() {
  serve::ServerOptions so;
  so.workers = serve_worker_count();
  // Room for the hot set and one round's cold tail on every shard, so no
  // entry is evicted and cache misses stay a property of the stream.
  so.cache_bytes = std::size_t{1} << 30;
  return so;
}

struct Banks {
  std::shared_ptr<const wise::Wise> wise;
  std::shared_ptr<const wise::spmm::SpmmBank> spmm;
};

Banks load_banks(const std::string& dir) {
  return {std::make_shared<const wise::Wise>(wise::ModelBank::load(dir)),
          std::make_shared<const wise::spmm::SpmmBank>(
              wise::spmm::SpmmBank::load(dir))};
}

serve::Request make_request(const Planned& p, const Target& t) {
  serve::Request req;
  req.kind = p.kind;
  req.matrix = t.m;
  if (p.target < kHot) req.fingerprint = t.fp;
  req.iters = p.kind == RequestKind::kRun     ? kRunIters
              : p.kind == RequestKind::kSolve ? kSolveMaxIters
                                              : 1;
  req.rhs_cols = kSpmmCols;
  req.solver = "cg";
  return req;
}

Round run_round(const Banks& banks, const std::vector<Target>& targets,
                const std::vector<Planned>& stream, Trace* trace,
                std::uint32_t& request_base, Result& res) {
  Round r;
  serve::Server server(banks.wise, server_options());
  server.set_spmm_bank(banks.spmm);

  // Warm the hot set: one PREPARE each, the state a long-lived server
  // holds for its hot matrices.
  std::vector<std::future<serve::Response>> warm;
  for (int i = 0; i < kHot; ++i) {
    warm.push_back(server.submit(make_request({RequestKind::kPrepare, i},
                                              targets[i])));
  }
  for (int i = 0; i < kHot; ++i) {
    serve::Response rsp = warm[i].get();
    res.check(rsp.ok && rsp.config_name == targets[i].predicted);
    r.warm_picks.push_back(rsp.config_name);
  }

  std::atomic<std::size_t> next{0};
  std::vector<std::vector<Completed>> per_client(2);
  auto client = [&](std::vector<Completed>& out) {
    for (std::size_t i = next++; i < stream.size(); i = next++) {
      const std::int64_t t0 = Trace::now_ns();
      std::future<serve::Response> fut =
          server.submit(make_request(stream[i], targets[stream[i].target]));
      serve::Response rsp = fut.get();
      out.push_back({static_cast<int>(i),
                     static_cast<double>(Trace::now_ns() - t0) * 1e-9, t0,
                     std::move(rsp)});
    }
  };
  const std::int64_t t_start = Trace::now_ns();
  {
    std::jthread a(client, std::ref(per_client[0]));
    client(per_client[1]);
  }
  r.wall = static_cast<double>(Trace::now_ns() - t_start) * 1e-9;
  r.stats = server.stats();
  r.cache = server.cache_stats();
  server.shutdown(true);

  for (auto& v : per_client) {
    for (auto& c : v) r.done.push_back(std::move(c));
  }
  std::sort(r.done.begin(), r.done.end(),
            [](const Completed& a, const Completed& b) {
              return a.planned < b.planned;
            });
  if (trace != nullptr) {
    for (const Completed& c : r.done) {
      const std::uint32_t req = request_base + 1 + c.planned;
      const std::int64_t end =
          c.submitted_ns + static_cast<std::int64_t>(c.latency * 1e9);
      const std::uint32_t root =
          trace->add("serve.request", c.submitted_ns, end, 0, req);
      const auto q = static_cast<std::int64_t>(c.rsp.queue_seconds * 1e9);
      const auto s = static_cast<std::int64_t>(c.rsp.service_seconds * 1e9);
      trace->add("serve.queue", c.submitted_ns, c.submitted_ns + q, root, req);
      trace->add("serve.service", c.submitted_ns + q,
                 c.submitted_ns + q + s, root, req);
    }
    request_base += static_cast<std::uint32_t>(stream.size());
  }

  // MKL stand-in block on every hot matrix, alternating with the rounds.
  for (int i = 0; i < kHot; ++i) {
    const Target& t = targets[i];
    Vec y(static_cast<std::size_t>(t.m->nrows()));
    const std::int64_t t0 = Trace::now_ns();
    for (int k = 0; k < kMklIters; ++k) wise::spmv_csr_mkl_like(*t.m, t.x, y);
    r.mkl_block.push_back(static_cast<double>(Trace::now_ns() - t0) * 1e-9);
  }
  return r;
}

/// Checks every response against the harness's own oracle. SOLVE
/// checksums that differ from the first seen for the same matrix are
/// counted in `mismatches`, not as failures.
void check_round(const Round& r, const std::vector<Target>& targets,
                 const std::vector<Planned>& stream,
                 std::map<int, double>& solve_checksums, int& mismatches,
                 Result& res) {
  const wise::SolverOptions solver_defaults;
  res.check(r.done.size() == stream.size());
  for (const Completed& c : r.done) {
    const Planned& p = stream[c.planned];
    const Target& t = targets[p.target];
    const serve::Response& rsp = c.rsp;
    bool ok = rsp.ok;
    switch (p.kind) {
      case RequestKind::kRun:
        ok = ok && rsp.checksum == t.run_checksum;
        break;
      case RequestKind::kSpmm:
        ok = ok && rsp.checksum == t.spmm_checksum;
        break;
      case RequestKind::kPredict:
        ok = ok && rsp.config_name == t.predicted;
        break;
      case RequestKind::kSolve: {
        ok = ok && rsp.converged &&
             rsp.residual_norm <= solver_defaults.tolerance;
        const auto [it, fresh] =
            solve_checksums.emplace(p.target, rsp.checksum);
        if (!fresh && it->second != rsp.checksum) ++mismatches;
        break;
      }
      case RequestKind::kPrepare:
        break;
    }
    res.check(ok);
  }
}

}  // namespace

int serve_worker_count() {
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  return static_cast<int>(
      std::clamp<long>(nproc / std::max(1, omp_get_max_threads()), 1, 2));
}

Result run_serve_mix(const Options& o) {
  Result res;
  // Set-up: load both pinned banks, build the predictor, and build and
  // shut down a server.
  auto set_up = [&] {
    Banks b = load_banks(o.bank_dir);
    serve::Server server(b.wise, server_options());
    server.set_spmm_bank(b.spmm);
    server.shutdown(true);
    return b;
  };
  std::vector<double> setup;
  Banks banks;
  time_setups(setup, [&] { banks = set_up(); });

  std::vector<RequestKind> cold_kinds;
  const std::vector<Planned> stream = plan_stream(o.seed, cold_kinds);
  std::vector<Target> targets;
  {
    serve::Server router(banks.wise, server_options());
    targets = build_targets(o.seed, cold_kinds, *banks.wise, router);
  }

  std::vector<Round> plain, traced;
  Trace trace;
  std::uint32_t request_base = 0;
  std::map<int, double> solve_checksums;
  int mismatches = 0;
  const std::int64_t t_start = Trace::now_ns();
  do {
    plain.push_back(
        run_round(banks, targets, stream, nullptr, request_base, res));
    check_round(plain.back(), targets, stream, solve_checksums, mismatches,
                res);
    if (o.trace) {
      traced.push_back(
          run_round(banks, targets, stream, &trace, request_base, res));
      check_round(traced.back(), targets, stream, solve_checksums, mismatches,
                  res);
    }
    time_setups(setup, [&] { set_up(); });
  } while (static_cast<double>(Trace::now_ns() - t_start) * 1e-9 < o.seconds);
  std::fprintf(stderr,
               "[e2e] %zu untraced + %zu traced rounds of %zu requests\n",
               plain.size(), traced.size(), stream.size());

  // Per hot matrix: MKL stand-in time for kRunIters SpMVs over the served
  // RUN kernel time for the same count.
  auto speedup = [&](const std::vector<Round>& rounds) {
    std::vector<double> out;
    for (int i = 0; i < kHot; ++i) {
      std::vector<double> mkl, served;
      for (const Round& r : rounds) {
        mkl.push_back(r.mkl_block[i]);
        for (const Completed& c : r.done) {
          const Planned& p = stream[c.planned];
          if (p.target == i && p.kind == RequestKind::kRun) {
            served.push_back(c.rsp.spmv_seconds * kRunIters);
          }
        }
      }
      out.push_back(median(mkl) / median(served));
    }
    return geomean(out);
  };

  if (!o.trace) {
    // Per round: stream wall time and latency percentiles; the run reports
    // the fastest decile of each over its rounds.
    std::vector<double> walls, p50, p95;
    for (const Round& r : plain) {
      std::vector<double> latency;
      for (const Completed& c : r.done) latency.push_back(c.latency);
      walls.push_back(r.wall);
      p50.push_back(quantile(latency, 0.50));
      p95.push_back(quantile(latency, 0.95));
    }
    const double wall = fast_decile(walls);
    res.set("time_to_result_s", wall);
    res.set("speedup_vs_mkl", speedup(plain));
    res.set("throughput_rps", static_cast<double>(stream.size()) / wall);
    res.set("latency_ms.p50", 1e3 * fast_decile(p50));
    res.set("latency_ms.p95", 1e3 * fast_decile(p95));
    res.set("setup_s", median(setup));
    return res;
  }

  // Per-layer figures from the traced rounds' responses and counters.
  std::vector<double> feature, run_us, spmm_ms, solve_us, queue,
      service, latency;
  double run_bytes = 0, run_time = 0, feature_total = 0;
  int fallbacks = 0;
  for (const Round& r : traced) {
    for (const Completed& c : r.done) {
      const Planned& p = stream[c.planned];
      const serve::Response& rsp = c.rsp;
      latency.push_back(c.latency);
      queue.push_back(rsp.queue_seconds);
      service.push_back(rsp.service_seconds);
      const bool cold = !rsp.choice_cache_hit && !rsp.prepared_cache_hit &&
                        !rsp.coalesced && p.kind != RequestKind::kSpmm;
      if (cold) {
        feature.push_back(rsp.choice.feature_seconds);
        feature_total += rsp.choice.feature_seconds;
      }
      if (p.kind != RequestKind::kSpmm && rsp.choice.fell_back()) ++fallbacks;
      if (p.kind == RequestKind::kRun) {
        run_us.push_back(rsp.spmv_seconds);
        run_time += rsp.spmv_seconds * kRunIters;
        run_bytes += spmv_bytes(*targets[p.target].m) * kRunIters;
      } else if (p.kind == RequestKind::kSpmm) {
        spmm_ms.push_back(rsp.spmv_seconds);
      } else if (p.kind == RequestKind::kSolve) {
        solve_us.push_back(rsp.spmv_seconds);
      }
    }
  }
  // Picks: one per distinct matrix for SpMV choices (hot warm-ups and
  // cold-tail requests), one per request for SpMM choices.
  const Round& first = traced.front();
  for (const std::string& pick : first.warm_picks) {
    res.values[pick_metric(pick)] += 1;
  }
  for (const Completed& c : first.done) {
    const Planned& p = stream[c.planned];
    if (p.kind == RequestKind::kSpmm) {
      const int kb = wise::spmm::parse_spmm_config(c.rsp.config_name).kb;
      res.values["spmm.picks.kb" + std::to_string(kb)] += 1;
    } else if (p.target >= kHot) {
      res.values[pick_metric(c.rsp.config_name)] += 1;
    }
  }

  // Cold-write costs the server does not report per request, timed by the
  // harness on the cold-tail inputs outside the rounds. Inference is timed
  // here too: the response's inference_seconds also covers the
  // applicability mask and selection.
  for (std::size_t i = kHot; i < targets.size(); ++i) {
    const Target& t = targets[i];
    const std::int64_t f0 = Trace::now_ns();
    (void)serve::fingerprint_matrix(*t.m);
    const std::int64_t f1 = Trace::now_ns();
    t.m->validate();
    const std::int64_t v1 = Trace::now_ns();
    const wise::PreparedMatrix pm = wise::PreparedMatrix::prepare(
        *t.m, wise::parse_method_config(t.predicted));
    const std::int64_t p1 = Trace::now_ns();
    const wise::FeatureVector fv = wise::extract_features(*t.m);
    const std::int64_t i0 = Trace::now_ns();
    (void)banks.wise->bank().predict_classes(fv.values);
    const std::int64_t i1 = Trace::now_ns();
    const std::uint32_t req = ++request_base;
    trace.add("serve.fingerprint", f0, f1, 0, req);
    trace.add("sparse.validate", f1, v1, 0, req);
    trace.add("spmv.prepare", v1, p1, 0, req);
    trace.add("wise.inference", i0, i1, 0, req);
  }

  const double total_latency = sum(latency);
  double unexplained = 0;
  for (const Round& r : traced) {
    for (const Completed& c : r.done) {
      unexplained += c.latency - c.rsp.queue_seconds - c.rsp.service_seconds;
    }
  }
  std::vector<double> walls_plain, walls_traced;
  for (const Round& r : plain) walls_plain.push_back(r.wall);
  for (const Round& r : traced) walls_traced.push_back(r.wall);
  const double stream_gbps = wise::hw::run_probe().stream_triad_gbs;
  const double gbps = run_bytes / run_time * 1e-9;

  res.set("sparse.validate_ms.p50", 1e3 * trace.median_of("sparse.validate"));
  res.set("features.extract_ms.p50", 1e3 * median(feature));
  res.set("features.share", feature_total / total_latency);
  res.set("wise.inference_us.p50", 1e6 * trace.median_of("wise.inference"));
  res.set("wise.fallbacks", fallbacks);
  res.set("spmv.prepare_ms.p50", 1e3 * trace.median_of("spmv.prepare"));
  res.set("spmv.prepared_bytes",
          static_cast<double>(first.cache.prepared_bytes));
  res.set("spmv.run_us.p50", 1e6 * median(run_us));
  res.set("spmv.run.share", run_time / total_latency);
  res.set("spmv.gbps_computed", gbps);
  res.set("spmv.roofline_frac", stream_gbps > 0 ? gbps / stream_gbps : 0.0);
  res.set("spmm.run_ms.p50", 1e3 * median(spmm_ms));
  res.set("solvers.iter_us.p50", 1e6 * median(solve_us));
  res.set("solvers.iterations", static_cast<double>(first.stats.session_iters));
  res.set("solvers.checksum_mismatch", mismatches);
  res.set("serve.latency_ms.p99", 1e3 * quantile(latency, 0.99));
  res.set("serve.queue_wait_ms.p50", 1e3 * quantile(queue, 0.50));
  res.set("serve.queue_wait_ms.p99", 1e3 * quantile(queue, 0.99));
  res.set("serve.service_ms.p50", 1e3 * quantile(service, 0.50));
  res.set("serve.service_ms.p99", 1e3 * quantile(service, 0.99));
  res.set("serve.fingerprint_ms.p50",
          1e3 * trace.median_of("serve.fingerprint"));
  const auto ratio = [](std::uint64_t hits, std::uint64_t misses) {
    return hits + misses == 0 ? 0.0
                              : static_cast<double>(hits) /
                                    static_cast<double>(hits + misses);
  };
  res.set("serve.prepared_hit_ratio",
          ratio(first.cache.prepared_hits, first.cache.prepared_misses));
  res.set("serve.choice_hit_ratio",
          ratio(first.cache.choice_hits, first.cache.choice_misses));
  res.set("serve.prepares", static_cast<double>(first.stats.prepares));
  res.set("serve.coalesced", static_cast<double>(first.stats.coalesced));
  res.set("serve.evictions", static_cast<double>(first.cache.evictions));
  res.set("hw.stream_gbps", stream_gbps);
  res.set("trace.unexplained_frac", unexplained / total_latency);
  res.set("trace.overhead_frac",
          median(walls_traced) / median(walls_plain) - 1);

  const std::string path = o.out_dir + "/trace-" + o.workload + "-seed" +
                           std::to_string(o.seed) + ".json";
  trace.write(path, stamp_json(o, serve_worker_count(), stream_gbps));
  std::fprintf(stderr, "[e2e] spans written to %s\n", path.c_str());
  return res;
}

}  // namespace e2e
