#pragma once
// Shared pieces of the end-to-end benchmark harness: command-line options,
// the seeded matrix families, order statistics, the in-memory span trace,
// and the metric set every run prints as its last stdout line.
//
// The harness calls the library only through its public functions. Tracing
// is outside-in: spans are recorded around the calls the harness makes into
// each layer, never inside the library.
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "sparse/csr.hpp"
#include "util/aligned.hpp"

namespace e2e {

using wise::CsrMatrix;
using wise::index_t;
using wise::value_t;
using Vec = wise::aligned_vector<value_t>;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string bank_dir = "e2ebench/bank";
  std::string out_dir = ".bench_out";
  std::string git_sha = "unknown";
};

// ---- matrices -------------------------------------------------------------

enum class Family { kRmatHighSkew, kRmatErdosRenyi, kRgg, kStencil9, kBanded };
inline constexpr Family kFamilies[] = {Family::kRmatHighSkew,
                                       Family::kRmatErdosRenyi, Family::kRgg,
                                       Family::kStencil9, Family::kBanded};
const char* family_name(Family f);

/// A seeded matrix of about `rows` rows and `degree` nonzeros per row.
/// Stencils ignore the seed (their structure is fixed by the grid), so
/// callers that need distinct stencils vary `rows`.
CsrMatrix make_matrix(Family f, index_t rows, double degree,
                      std::uint64_t seed);

/// Mixes a workload seed with a per-item salt into an independent seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// Dense vector of `n` uniform [0, 1) values from Xoshiro256(seed) — the
/// same generator the server seeds its request vectors with.
Vec seeded_vector(std::size_t n, std::uint64_t seed);

/// Seed the server derives a request's vectors from (serve/server.cpp).
std::uint64_t serve_vector_seed(std::uint64_t structure_fingerprint);

/// Bytes one CSR SpMV moves, computed from the shape (values + column
/// indices + row pointers + x + y), not measured.
double spmv_bytes(const CsrMatrix& m);

// ---- statistics -----------------------------------------------------------

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}
/// The statistic of serve-mix's end-to-end times: the fastest decile of a
/// run's per-round values. On a shared host, phases in which the host takes
/// CPU time from the machine slow whole rounds by up to half; the median
/// then follows the host, while the fast rounds follow the program.
inline double fast_decile(std::vector<double> v) {
  return quantile(std::move(v), 0.1);
}
double geomean(const std::vector<double>& v);
double sum(const std::vector<double>& v);

/// Set-ups timed per batch. Workloads run a batch before the first round
/// and after every round, so the setup_s median samples the whole run
/// rather than one moment of it.
inline constexpr int kSetupBatch = 3;

/// Runs `fn` kSetupBatch times, appending each wall time in seconds.
template <typename Fn>
void time_setups(std::vector<double>& out, Fn&& fn) {
  for (int i = 0; i < kSetupBatch; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    out.push_back(std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count());
  }
}

// ---- tracing --------------------------------------------------------------

/// One timed call into a layer. `parent` is the id of the span that caused
/// it (0 for a root); spans of one request or one matrix share `request`.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  std::uint32_t request = 0;
  double seconds() const {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

/// In-memory span log, written out once when the benchmark ends. Thread
/// safe: serve-mix client threads record concurrently.
class Trace {
 public:
  static std::int64_t now_ns();

  /// Records a finished span and returns its id.
  std::uint32_t add(std::string name, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint32_t parent,
                    std::uint32_t request);

  /// Durations (seconds) of every span called `name`.
  std::vector<double> durations(const std::string& name) const;
  double total(const std::string& name) const { return sum(durations(name)); }
  double median_of(const std::string& name) const {
    return median(durations(name));
  }

  /// Writes {"stamp": ..., "spans": [...]} to `path`.
  void write(const std::string& path, const std::string& stamp_json) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// ---- results --------------------------------------------------------------

struct MetricDef {
  std::string name;
  std::string unit;
};

/// End-to-end metrics (printed with --trace 0) and per-layer metrics
/// (--trace 1), in BENCHMARK.json order. Every run prints every metric of
/// its mode; a per-layer metric of a layer the workload never calls
/// reads 0.
const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;

  void set(const std::string& name, double v) { values[name] = v; }
  /// Counts one checked operation; a failed check clears `correct`.
  void check(bool ok) {
    ++attempted;
    if (!ok) {
      ++failed;
      correct = false;
    }
  }
};

/// "wise.picks.<method family>" for a config name such as "Sell-c-s/c8/...".
std::string pick_metric(const std::string& config_name);

/// Run stamp: machine, threads, compiler, revision and WISE_* knobs.
std::string stamp_json(const Options& o, int workers, double stream_gbps);

/// Prints the final result line: {"correct", "attempted", "failed",
/// "metrics"} with exactly the metric set of the run's mode. Throws if an
/// end-to-end metric was never set.
void print_result(const Options& o, const Result& r);

// ---- workloads ------------------------------------------------------------

Result run_oneshot(const Options& o);
Result run_longrun(const Options& o);
Result run_serve_mix(const Options& o);

/// Server workers in serve-mix: nproc / OpenMP threads, clamped to [1, 2],
/// so workers x OpenMP threads stay within nproc.
int serve_worker_count();

/// Trains the pinned model banks from fresh timings on a seeded corpus
/// and saves them to `dir` (models.txt and spmm_models.txt).
int make_bank(const std::string& dir, std::uint64_t seed);

}  // namespace e2e
