// Kernel microbenchmarks (google-benchmark): SpMV throughput of every
// method family on fixed representative matrices, plus conversion cost.

#include <benchmark/benchmark.h>

#include "exp/spec.hpp"
#include "spmv/csr_kernels.hpp"
#include "spmv/executor.hpp"
#include "util/prng.hpp"

namespace {

using namespace wise;

/// Fixture matrices: a low-skew scientific-like matrix and a power-law one.
const CsrMatrix& scientific_matrix() {
  static const CsrMatrix m =
      CsrMatrix::from_coo(generate_banded(16384, 16, 0.5, 42));
  return m;
}

const CsrMatrix& powerlaw_matrix() {
  static const CsrMatrix m = CsrMatrix::from_coo(generate_rmat(
      rmat_class_params(RmatClass::kHighSkew, 16384, 16), 42));
  return m;
}

/// A banded matrix too big for one core's L2: 2^17 rows, ~16 nonzeros per
/// row, ~2M nonzeros. Its SpMVs stream the format's arrays from memory.
const CsrMatrix& out_of_cache_matrix() {
  static const CsrMatrix m =
      CsrMatrix::from_coo(generate_banded(1 << 17, 16, 0.5, 42));
  return m;
}

const CsrMatrix& pick(int which) {
  switch (which) {
    case 0: return scientific_matrix();
    case 1: return powerlaw_matrix();
    default: return out_of_cache_matrix();
  }
}

void run_config(benchmark::State& state, const MethodConfig& cfg) {
  const CsrMatrix& m = pick(static_cast<int>(state.range(0)));
  PreparedMatrix pm = PreparedMatrix::prepare(m, cfg);
  aligned_vector<value_t> x(static_cast<std::size_t>(m.ncols()));
  aligned_vector<value_t> y(static_cast<std::size_t>(m.nrows()));
  Xoshiro256 rng(1);
  for (auto& v : x) v = static_cast<value_t>(rng.next_double());

  for (auto _ : state) {
    pm.run(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * m.nnz());
  state.counters["nnz"] = static_cast<double>(m.nnz());
  state.counters["prep_ms"] = pm.prep_seconds() * 1e3;
}

void BM_CsrDyn(benchmark::State& s) {
  run_config(s, {.kind = MethodKind::kCsr, .sched = Schedule::kDyn});
}
void BM_CsrStCont(benchmark::State& s) {
  run_config(s, {.kind = MethodKind::kCsr, .sched = Schedule::kStCont});
}
void BM_Sellpack(benchmark::State& s) {
  run_config(s,
             {.kind = MethodKind::kSellpack, .sched = Schedule::kStCont, .c = 8});
}
/// SELLPACK at c = 4, whose slot loop is the AVX2 body (the others run the
/// c = 8 one).
void BM_Sellpack4(benchmark::State& s) {
  run_config(s,
             {.kind = MethodKind::kSellpack, .sched = Schedule::kStCont, .c = 4});
}
void BM_SellCSigma(benchmark::State& s) {
  run_config(s, {.kind = MethodKind::kSellCSigma,
                 .sched = Schedule::kStCont,
                 .c = 8,
                 .sigma = 4096});
}
void BM_SellCR(benchmark::State& s) {
  run_config(s, {.kind = MethodKind::kSellCR,
                 .sched = Schedule::kDyn,
                 .c = 8,
                 .sigma = kSigmaAll});
}
void BM_Lav1Seg(benchmark::State& s) {
  run_config(s, {.kind = MethodKind::kLav1Seg,
                 .sched = Schedule::kDyn,
                 .c = 8,
                 .sigma = kSigmaAll});
}
void BM_Lav(benchmark::State& s) {
  run_config(s, {.kind = MethodKind::kLav,
                 .sched = Schedule::kDyn,
                 .c = 8,
                 .sigma = kSigmaAll,
                 .T = 0.8});
}

void BM_MklLike(benchmark::State& state) {
  const CsrMatrix& m = pick(static_cast<int>(state.range(0)));
  aligned_vector<value_t> x(static_cast<std::size_t>(m.ncols()));
  aligned_vector<value_t> y(static_cast<std::size_t>(m.nrows()));
  Xoshiro256 rng(1);
  for (auto& v : x) v = static_cast<value_t>(rng.next_double());
  for (auto _ : state) {
    spmv_csr_mkl_like(m, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * m.nnz());
}

void BM_Convert(benchmark::State& state) {
  // Conversion (preprocessing) cost of the most expensive format, LAV.
  const CsrMatrix& m = pick(static_cast<int>(state.range(0)));
  const MethodConfig cfg{.kind = MethodKind::kLav,
                         .sched = Schedule::kDyn,
                         .c = 8,
                         .sigma = kSigmaAll,
                         .T = 0.8};
  for (auto _ : state) {
    PreparedMatrix pm = PreparedMatrix::prepare(m, cfg);
    benchmark::DoNotOptimize(pm.memory_bytes());
  }
}

// Arg 0 = scientific/banded, 1 = power-law, 2 = out-of-cache banded (only
// for the packed kernels whose streaming it tracks and the MKL stand-in).
#define WISE_BENCH(fn) BENCHMARK(fn)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond)
WISE_BENCH(BM_CsrDyn);
WISE_BENCH(BM_CsrStCont);
WISE_BENCH(BM_Sellpack)->Arg(2);
BENCHMARK(BM_Sellpack4)->Arg(2)->Unit(benchmark::kMicrosecond);
WISE_BENCH(BM_SellCSigma)->Arg(2);
WISE_BENCH(BM_SellCR);
WISE_BENCH(BM_Lav1Seg);
WISE_BENCH(BM_Lav);
WISE_BENCH(BM_MklLike)->Arg(2);
BENCHMARK(BM_Convert)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
