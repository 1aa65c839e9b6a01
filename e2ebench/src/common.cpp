#include "common.hpp"

#include <omp.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "gen/generators.hpp"
#include "spmv/method.hpp"
#include "util/prng.hpp"

extern char** environ;

namespace e2e {

const char* family_name(Family f) {
  switch (f) {
    case Family::kRmatHighSkew: return "rmat-hs";
    case Family::kRmatErdosRenyi: return "rmat-er";
    case Family::kRgg: return "rgg";
    case Family::kStencil9: return "stencil9";
    case Family::kBanded: return "banded";
  }
  return "?";
}

CsrMatrix make_matrix(Family f, index_t rows, double degree,
                      std::uint64_t seed) {
  switch (f) {
    case Family::kRmatHighSkew:
      return CsrMatrix::from_coo(wise::generate_rmat(
          wise::rmat_class_params(wise::RmatClass::kHighSkew, rows, degree),
          seed));
    case Family::kRmatErdosRenyi:
      return CsrMatrix::from_coo(wise::generate_rmat(
          wise::rmat_class_params(wise::RmatClass::kLowLoc, rows, degree),
          seed));
    case Family::kRgg:
      return CsrMatrix::from_coo(wise::generate_rgg(rows, degree, seed));
    case Family::kStencil9: {
      // Near-square grid with nx * ny ~= rows.
      const auto nx = static_cast<index_t>(std::lround(std::sqrt(rows)));
      const index_t ny = std::max<index_t>(1, (rows + nx - 1) / nx);
      return CsrMatrix::from_coo(wise::generate_stencil2d(nx, ny, 9));
    }
    case Family::kBanded: {
      // Band of 2h+1 diagonals at density 0.5 gives ~degree per row.
      const auto h = static_cast<index_t>(std::max(1.0, degree - 0.5));
      return CsrMatrix::from_coo(wise::generate_banded(rows, h, 0.5, seed));
    }
  }
  throw std::invalid_argument("make_matrix: unknown family");
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  wise::SplitMix64 sm(seed * 0x9e3779b97f4a7c15ull + salt);
  return sm.next();
}

Vec seeded_vector(std::size_t n, std::uint64_t seed) {
  Vec v(n);
  wise::Xoshiro256 rng(seed);
  for (auto& x : v) x = static_cast<value_t>(rng.next_double());
  return v;
}

std::uint64_t serve_vector_seed(std::uint64_t structure_fingerprint) {
  return 0x517e5eedull ^ structure_fingerprint;
}

double spmv_bytes(const CsrMatrix& m) {
  const double nnz = static_cast<double>(m.nnz());
  const double rows = static_cast<double>(m.nrows());
  const double cols = static_cast<double>(m.ncols());
  return nnz * (sizeof(value_t) + sizeof(index_t)) +
         (rows + 1) * sizeof(wise::nnz_t) + (rows + cols) * sizeof(value_t);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

// ---- tracing ----------------------------------------------------------------

std::int64_t Trace::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint32_t Trace::add(std::string name, std::int64_t start_ns,
                         std::int64_t end_ns, std::uint32_t parent,
                         std::uint32_t request) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
  spans_.push_back({std::move(name), start_ns, end_ns, id, parent, request});
  return id;
}

std::vector<double> Trace::durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const auto& s : spans_) {
    if (s.name == name) out.push_back(s.seconds());
  }
  return out;
}

void Trace::write(const std::string& path,
                  const std::string& stamp_json) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"stamp\": " << stamp_json << ",\n\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << (i + 1 < spans_.size() ? "},\n" : "}\n");
  }
  out << "]}\n";
}

// ---- metrics ----------------------------------------------------------------

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"time_to_result_s", "s"}, {"speedup_vs_mkl", "x"},
      {"throughput_rps", "1/s"}, {"latency_ms.p50", "ms"},
      {"latency_ms.p95", "ms"},  {"setup_s", "s"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"sparse.validate_ms.p50", "ms"},
        {"features.extract_ms.p50", "ms"},
        {"features.share", "ratio"},
    };
    for (int k = 0; k <= static_cast<int>(wise::MethodKind::kDia); ++k) {
      d.push_back({std::string("wise.picks.") +
                       wise::method_kind_name(static_cast<wise::MethodKind>(k)),
                   "count"});
    }
    const std::vector<MetricDef> rest = {
        {"wise.oracle_efficiency", "ratio"},
        {"wise.inference_us.p50", "us"},
        {"wise.fallbacks", "count"},
        {"spmv.prepare_ms.p50", "ms"},
        {"spmv.prepare.share", "ratio"},
        {"spmv.prepared_bytes", "B"},
        {"spmv.run_us.p50", "us"},
        {"spmv.run.share", "ratio"},
        {"spmv.gbps_computed", "GB/s"},
        {"spmv.roofline_frac", "ratio"},
        {"spmm.run_ms.p50", "ms"},
        {"spmm.picks.kb1", "count"},
        {"spmm.picks.kb2", "count"},
        {"spmm.picks.kb4", "count"},
        {"spmm.picks.kb8", "count"},
        {"solvers.iter_us.p50", "us"},
        {"solvers.iterations", "count"},
        {"solvers.checksum_mismatch", "count"},
        {"serve.latency_ms.p99", "ms"},
        {"serve.queue_wait_ms.p50", "ms"},
        {"serve.queue_wait_ms.p99", "ms"},
        {"serve.service_ms.p50", "ms"},
        {"serve.service_ms.p99", "ms"},
        {"serve.fingerprint_ms.p50", "ms"},
        {"serve.prepared_hit_ratio", "ratio"},
        {"serve.choice_hit_ratio", "ratio"},
        {"serve.prepares", "count"},
        {"serve.coalesced", "count"},
        {"serve.evictions", "count"},
        {"hw.stream_gbps", "GB/s"},
        {"trace.unexplained_frac", "ratio"},
        {"trace.overhead_frac", "ratio"},
    };
    d.insert(d.end(), rest.begin(), rest.end());
    return d;
  }();
  return defs;
}

std::string pick_metric(const std::string& config_name) {
  return std::string("wise.picks.") +
         wise::method_kind_name(wise::parse_method_config(config_name).kind);
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

}  // namespace

std::string stamp_json(const Options& o, int workers, double stream_gbps) {
  std::ostringstream s;
  s << "{\"workload\": " << json_string(o.workload) << ", \"seed\": " << o.seed
    << ", \"trace\": " << (o.trace ? 1 : 0)
    << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
    << ", \"omp_threads\": " << omp_get_max_threads()
    << ", \"workers\": " << workers
    << ", \"hw.stream_gbps\": " << json_number(stream_gbps)
    << ", \"compiler\": " << json_string(__VERSION__)
    << ", \"git_sha\": " << json_string(o.git_sha) << ", \"wise_env\": {";
  bool first = true;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "WISE_", 5) != 0) continue;
    const std::string kv = *e;
    const std::size_t eq = kv.find('=');
    s << (first ? "" : ", ") << json_string(kv.substr(0, eq)) << ": "
      << json_string(eq == std::string::npos ? "" : kv.substr(eq + 1));
    first = false;
  }
  s << "}}";
  return s.str();
}

void print_result(const Options& o, const Result& r) {
  const auto& defs = o.trace ? per_layer_metrics() : end_to_end_metrics();
  std::ostringstream s;
  s << "{\"correct\": " << (r.correct ? "true" : "false")
    << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
    << ", \"metrics\": {";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const auto it = r.values.find(defs[i].name);
    if (it == r.values.end() && !o.trace) {
      throw std::logic_error("metric never set: " + defs[i].name);
    }
    const double v = it == r.values.end() ? 0.0 : it->second;
    s << (i ? ", " : "") << json_string(defs[i].name)
      << ": {\"value\": " << json_number(v)
      << ", \"unit\": " << json_string(defs[i].unit) << "}";
  }
  s << "}}";
  std::printf("%s\n", s.str().c_str());
  std::fflush(stdout);
}

}  // namespace e2e
