// The `oneshot` and `longrun` workloads: a fixed set of seeded matrices,
// each prepared once by Wise::prepare and then run N times, every SpMV
// alternating with the MKL stand-in (spmv_csr_mkl_like) on the same matrix
// and vector. `oneshot` has many mid-sized matrices and N = 20, so the
// decision path (validate, features, inference, conversion) dominates;
// `longrun` has five ~2M-nonzero matrices and N = 1000, so the kernels do
// (choose and prepare stay under 5% of the time).
//
// A round visits every matrix once. A visit is one Wise::prepare and a
// block of B alternating SpMV pairs; the fixed work of a matrix, prepare
// plus N SpMVs, is estimated per visit as prepare + (N / B) x block. In
// `oneshot` B = N, so a visit is the fixed work itself; in `longrun`
// B = 25, so a run holds many short visits instead of a few long rounds
// and its medians sample the whole run. Untraced visits time the public
// pipeline call; traced visits call each layer's public function in the
// order Wise::prepare does and record a span around each call.
#include <omp.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>

#include "common.hpp"
#include "hw/probe.hpp"
#include "spmv/applicability.hpp"
#include "spmv/csr_kernels.hpp"
#include "wise/baselines.hpp"
#include "wise/pipeline.hpp"
#include "wise/selector.hpp"

namespace e2e {
namespace {

using wise::MethodConfig;
using wise::PreparedMatrix;

struct Item {
  CsrMatrix m;
  Vec x;
  /// The same kernels run on one thread — the bit-identity oracles (every
  /// kernel gives the same bits at any thread count).
  Vec y_wise;
  Vec y_mkl;
};

struct Workload {
  std::vector<Item> items;
  int spmvs = 0;  ///< N: SpMVs of the fixed work per matrix (each side)
  int block = 0;  ///< B: SpMV pairs timed per visit
  /// N / B: scales a visit's block to the fixed work.
  double scale() const { return static_cast<double>(spmvs) / block; }
};

struct MatrixShape {
  Family family;
  index_t rows;
  double degree;
};

/// True when `y` is within rounding of `ref` (the serial spmv_reference,
/// whose plain loop may associate differently from a vectorized kernel).
bool near(const Vec& y, const Vec& ref) {
  double scale = 0, err = 0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    scale = std::max(scale, std::abs(ref[i]));
    err = std::max(err, std::abs(y[i] - ref[i]));
  }
  return y.size() == ref.size() && err <= 1e-12 * std::max(scale, 1.0);
}

/// Builds the matrices and their oracles: the serial kernel outputs,
/// each checked against spmv_reference to rounding.
Workload build(const std::vector<MatrixShape>& shapes, int spmvs, int block,
               std::uint64_t seed, const wise::Wise& wise, Result& res) {
  Workload w;
  w.spmvs = spmvs;
  w.block = block;
  const int threads = omp_get_max_threads();
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const MatrixShape& s = shapes[i];
    Item it{make_matrix(s.family, s.rows, s.degree, mix_seed(seed, i)), {},
            {}, {}};
    const auto rows = static_cast<std::size_t>(it.m.nrows());
    it.x = seeded_vector(static_cast<std::size_t>(it.m.ncols()),
                         mix_seed(seed, 1000 + i));
    Vec y_ref(rows);
    it.y_wise.resize(rows);
    it.y_mkl.resize(rows);
    wise::spmv_reference(it.m, it.x, y_ref);
    PreparedMatrix pm = wise.prepare(it.m);
    omp_set_num_threads(1);
    pm.run(it.x, it.y_wise);
    wise::spmv_csr_mkl_like(it.m, it.x, it.y_mkl);
    omp_set_num_threads(threads);
    res.check(near(it.y_wise, y_ref));
    res.check(near(it.y_mkl, y_ref));
    w.items.push_back(std::move(it));
  }
  return w;
}

/// 40 matrices, eight per family, rows 2^13 .. 2^16. Stencils ignore the
/// seed, so each gets its own small row offset: the two stencils of one
/// size class then have different grids.
std::vector<MatrixShape> oneshot_shapes() {
  std::vector<MatrixShape> s;
  for (int i = 0; i < 40; ++i) {
    const Family f = kFamilies[i % 5];
    index_t rows = index_t{1} << (13 + (i / 5) % 4);
    if (f == Family::kStencil9) rows += 64 * i;
    s.push_back({f, rows, 12.0});
  }
  return s;
}

/// Five matrices of ~2M nonzeros, one per family.
std::vector<MatrixShape> longrun_shapes() {
  return {{Family::kRmatHighSkew, 1 << 17, 20.0},
          {Family::kRmatErdosRenyi, 1 << 17, 16.0},
          {Family::kRgg, 1 << 17, 16.0},
          {Family::kStencil9, 471 * 471, 9.0},
          {Family::kBanded, 1 << 17, 16.0}};
}

bool same(const Vec& a, const Vec& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(value_t)) == 0;
}

double secs_since(std::int64_t t0) {
  return static_cast<double>(Trace::now_ns() - t0) * 1e-9;
}

/// Per-round outcome of one visit to every matrix.
struct Round {
  std::vector<double> wall;           ///< per matrix: the whole visit
  double time_to_result = 0;          ///< sum of WISE latencies
  double spans = 0;                   ///< traced: WISE span time as run
  std::vector<double> latency;        ///< per matrix: prepare + N SpMVs
  std::vector<double> ratio;          ///< per matrix: MKL time / WISE time
  std::vector<MethodConfig> picks;    ///< per matrix
  int fallbacks = 0;
  double prepared_bytes = 0;
};

/// `n` SpMVs alternating WISE and MKL stand-in; every result is compared
/// with the same kernel's one-thread output outside the timed calls.
template <typename Span>
void run_pairs(const Item& it, int n, PreparedMatrix& pm, Vec& y, Vec& y2,
               Result& res, double& wise_s, double& mkl_s, Span&& span) {
  for (int s = 0; s < n; ++s) {
    wise_s += span("spmv.run", [&] { pm.run(it.x, y); });
    mkl_s += span("spmv.mkl", [&] { wise::spmv_csr_mkl_like(it.m, it.x, y2); });
    span("bench.check", [&] {
      res.check(same(y, it.y_wise));
      res.check(same(y2, it.y_mkl));
    });
  }
}

Round untraced_round(const wise::Wise& wise, const Workload& w, Result& res) {
  Round r;
  auto time = [](const char*, auto&& fn) {
    const std::int64_t t0 = Trace::now_ns();
    fn();
    return secs_since(t0);
  };
  for (const Item& it : w.items) {
    Vec y(it.y_wise.size(), NAN), y2(it.y_wise.size(), NAN);
    wise::WiseChoice choice;
    const std::int64_t t0 = Trace::now_ns();
    PreparedMatrix pm = wise.prepare(it.m, choice);
    const double prepare_s = secs_since(t0);
    double run_s = 0, mkl_s = 0;
    run_pairs(it, w.block, pm, y, y2, res, run_s, mkl_s, time);
    r.wall.push_back(secs_since(t0));
    const double wise_s = prepare_s + w.scale() * run_s;
    r.latency.push_back(wise_s);
    r.ratio.push_back(w.scale() * mkl_s / wise_s);
    r.time_to_result += wise_s;
    r.picks.push_back(choice.config);
    r.fallbacks += choice.fell_back() ? 1 : 0;
    r.prepared_bytes +=
        static_cast<double>(pm.memory_bytes() + pm.plan_bytes());
  }
  return r;
}

/// The same pass with each layer called separately: sparse (validate),
/// features (extract), wise/ml (tree inference, then the applicability
/// mask and selection), spmv (prepare, run). The pick must equal the
/// untraced pipeline's.
Round traced_round(const wise::Wise& wise, const Workload& w,
                   const std::vector<MethodConfig>& expected, Trace& trace,
                   std::uint32_t& request, Result& res) {
  Round r;
  const wise::ModelBank& bank = wise.bank();
  for (std::size_t i = 0; i < w.items.size(); ++i) {
    const Item& it = w.items[i];
    const std::uint32_t req = ++request;
    const std::int64_t t_item = Trace::now_ns();
    struct Child {
      const char* name;
      std::int64_t start, end;
    };
    std::vector<Child> children;
    auto span = [&](const char* name, auto&& fn) {
      const std::int64_t t0 = Trace::now_ns();
      fn();
      const std::int64_t t1 = Trace::now_ns();
      children.push_back({name, t0, t1});
      return static_cast<double>(t1 - t0) * 1e-9;
    };
    Vec y(it.y_wise.size(), NAN), y2(it.y_wise.size(), NAN);
    wise::FeatureVector fv;
    MethodConfig cfg;
    double wise_s = 0, run_s = 0, mkl_s = 0;
    wise_s += span("sparse.validate", [&] { it.m.validate(); });
    wise_s += span("features.extract", [&] {
      fv = wise::extract_features(it.m, wise.feature_params);
    });
    std::vector<int> classes;
    wise_s += span("wise.inference",
                   [&] { classes = bank.predict_classes(fv.values); });
    wise_s += span("wise.select", [&] {
      const std::vector<char> applicable =
          wise::applicability_mask(bank.configs(), it.m);
      cfg = bank.configs()[wise::select_best_config(bank.configs(), classes,
                                                     applicable)];
    });
    std::optional<PreparedMatrix> pm;
    wise_s += span("spmv.prepare",
                   [&] { pm.emplace(PreparedMatrix::prepare(it.m, cfg)); });
    run_pairs(it, w.block, *pm, y, y2, res, run_s, mkl_s, span);
    res.check(cfg == expected[i]);

    const std::int64_t t_end = Trace::now_ns();
    const std::uint32_t root = trace.add("matrix", t_item, t_end, 0, req);
    for (const Child& c : children) {
      trace.add(c.name, c.start, c.end, root, req);
    }
    r.wall.push_back(static_cast<double>(t_end - t_item) * 1e-9);
    r.spans += wise_s + run_s;
    wise_s += w.scale() * run_s;
    r.latency.push_back(wise_s);
    r.ratio.push_back(w.scale() * mkl_s / wise_s);
    r.time_to_result += wise_s;
    r.picks.push_back(cfg);
    r.prepared_bytes +=
        static_cast<double>(pm->memory_bytes() + pm->plan_bytes());
  }
  return r;
}

/// Geometric mean over matrices of best-config time / picked-config time,
/// where the best config is oracle_select's over the bank's applicable
/// configs. oracle_select's own figure is a minimum over one-shot timings,
/// biased low, so the best and the picked config are timed again like for
/// like: alternately, with the same repeats. A pick that is the oracle's
/// best scores exactly 1.
double oracle_efficiency(const Workload& w,
                         const std::vector<MethodConfig>& picks,
                         const wise::ModelBank& bank) {
  constexpr int kIters = 10;
  constexpr int kRepeats = 5;
  std::vector<double> eff;
  for (std::size_t i = 0; i < w.items.size(); ++i) {
    const Item& it = w.items[i];
    std::vector<MethodConfig> configs;
    for (const auto& c : bank.configs()) {
      if (wise::config_applicable(c, it.m)) configs.push_back(c);
    }
    const MethodConfig best = wise::oracle_select(it.m, configs, kIters).best;
    if (best == picks[i]) {
      eff.push_back(1.0);
      continue;
    }
    PreparedMatrix pm_best = PreparedMatrix::prepare(it.m, best);
    PreparedMatrix pm_pick = PreparedMatrix::prepare(it.m, picks[i]);
    Vec y(it.y_wise.size());
    double t_best = 1e300, t_pick = 1e300;
    for (int r = 0; r < kRepeats; ++r) {
      t_best = std::min(t_best, wise::time_spmv(pm_best, it.x, y, kIters, 1));
      t_pick = std::min(t_pick, wise::time_spmv(pm_pick, it.x, y, kIters, 1));
    }
    eff.push_back(t_best / t_pick);
  }
  return geomean(eff);
}

Result run_kernel_workload(const Options& o,
                           const std::vector<MatrixShape>& shapes, int spmvs,
                           int block) {
  Result res;
  // Set-up: load the pinned bank and build the predictor.
  auto set_up = [&] {
    return std::make_unique<wise::Wise>(wise::ModelBank::load(o.bank_dir));
  };
  std::vector<double> setup;
  std::unique_ptr<wise::Wise> wise;
  time_setups(setup, [&] { wise = set_up(); });

  const Workload w = build(shapes, spmvs, block, o.seed, *wise, res);

  std::vector<Round> plain, traced;
  Trace trace;
  std::uint32_t request = 0;
  const std::int64_t t_start = Trace::now_ns();
  do {
    plain.push_back(untraced_round(*wise, w, res));
    if (o.trace) {
      traced.push_back(traced_round(*wise, w, plain.front().picks, trace,
                                    request, res));
    }
    // Every round must pick the same configs (choices are deterministic).
    for (std::size_t i = 0; i < w.items.size(); ++i) {
      res.check(plain.back().picks[i] == plain.front().picks[i]);
    }
    time_setups(setup, [&] { set_up(); });
  } while (secs_since(t_start) < o.seconds);
  std::fprintf(stderr, "[e2e] %zu untraced + %zu traced rounds\n",
               plain.size(), traced.size());

  const Round& first = plain.front();
  if (!o.trace) {
    // Per matrix: the median over visits of its latency and of its MKL /
    // WISE ratio; the sum, the percentiles and the geomean run across
    // matrices.
    std::vector<double> latency, speedup;
    for (std::size_t i = 0; i < w.items.size(); ++i) {
      std::vector<double> lat, ratio;
      for (const Round& r : plain) {
        lat.push_back(r.latency[i]);
        ratio.push_back(r.ratio[i]);
      }
      latency.push_back(median(lat));
      speedup.push_back(median(ratio));
    }
    const double t = sum(latency);
    res.set("time_to_result_s", t);
    res.set("speedup_vs_mkl", geomean(speedup));
    res.set("throughput_rps", static_cast<double>(w.items.size()) / t);
    res.set("latency_ms.p50", 1e3 * quantile(latency, 0.50));
    res.set("latency_ms.p95", 1e3 * quantile(latency, 0.95));
    res.set("setup_s", median(setup));
    return res;
  }

  // Shares are of WISE's own traced time_to_result: the sum of its layer
  // spans, with each visit's SpMV block scaled to the fixed work's N. The
  // MKL stand-in SpMVs and the harness's result checks are not WISE
  // layers: they are taken out of the traced wall time, and what is left
  // over beyond WISE's spans as run is the unexplained share.
  double wise_time = 0, wise_spans = 0, wall_traced = 0;
  for (const Round& r : traced) {
    wall_traced += sum(r.wall);
    wise_time += r.time_to_result;
    wise_spans += r.spans;
  }
  const double wise_wall =
      wall_traced - trace.total("spmv.mkl") - trace.total("bench.check");
  // Overhead: per matrix, the median traced visit over the median untraced
  // one, summed over matrices.
  double visit_plain = 0, visit_traced = 0;
  for (std::size_t i = 0; i < w.items.size(); ++i) {
    std::vector<double> a, b;
    for (const Round& r : plain) a.push_back(r.wall[i]);
    for (const Round& r : traced) b.push_back(r.wall[i]);
    visit_plain += median(a);
    visit_traced += median(b);
  }

  const std::vector<double> runs = trace.durations("spmv.run");
  double run_bytes = 0;
  for (const Item& it : w.items) run_bytes += spmv_bytes(it.m) * w.block;
  run_bytes *= static_cast<double>(traced.size());
  const double gbps = run_bytes / sum(runs) * 1e-9;
  const double stream = wise::hw::run_probe().stream_triad_gbs;

  res.set("sparse.validate_ms.p50", 1e3 * trace.median_of("sparse.validate"));
  res.set("features.extract_ms.p50", 1e3 * trace.median_of("features.extract"));
  res.set("features.share", trace.total("features.extract") / wise_time);
  for (const MethodConfig& c : first.picks) {
    res.values[pick_metric(c.name())] += 1;
  }
  if (o.workload == "longrun") {
    res.set("wise.oracle_efficiency",
            oracle_efficiency(w, first.picks, wise->bank()));
  }
  res.set("wise.inference_us.p50", 1e6 * trace.median_of("wise.inference"));
  res.set("wise.fallbacks", first.fallbacks);
  res.set("spmv.prepare_ms.p50", 1e3 * trace.median_of("spmv.prepare"));
  res.set("spmv.prepare.share", trace.total("spmv.prepare") / wise_time);
  res.set("spmv.prepared_bytes", first.prepared_bytes);
  res.set("spmv.run_us.p50", 1e6 * median(runs));
  res.set("spmv.run.share", w.scale() * sum(runs) / wise_time);
  res.set("spmv.gbps_computed", gbps);
  res.set("spmv.roofline_frac", stream > 0 ? gbps / stream : 0.0);
  res.set("hw.stream_gbps", stream);
  res.set("trace.unexplained_frac", (wise_wall - wise_spans) / wise_wall);
  res.set("trace.overhead_frac", visit_traced / visit_plain - 1);

  const std::string path = o.out_dir + "/trace-" + o.workload + "-seed" +
                           std::to_string(o.seed) + ".json";
  trace.write(path, stamp_json(o, 1, stream));
  std::fprintf(stderr, "[e2e] spans written to %s\n", path.c_str());
  return res;
}

}  // namespace

Result run_oneshot(const Options& o) {
  return run_kernel_workload(o, oneshot_shapes(), 20, 20);
}

Result run_longrun(const Options& o) {
  return run_kernel_workload(o, longrun_shapes(), 1000, 25);
}

}  // namespace e2e
