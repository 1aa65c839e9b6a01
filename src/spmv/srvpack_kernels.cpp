#include "spmv/srvpack_kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>

#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace wise {

namespace {

/// How far ahead of the slot being reduced the slot loop prefetches each
/// plane, in elements: 256 values (2 KiB) and 256 column ids (1 KiB). A
/// 1-thread sweep over the `longrun` matrices (docs/PERFORMANCE.md §
/// Streaming the SRVPack planes) gained least at 64 and 128 and plateaued
/// from 256 to 1024.
constexpr std::size_t kPrefetchAhead = 256;

/// Only widths whose slot holds at least a cache line of values prefetch.
/// At c = 4 the prefetches bought nothing on the `longrun` matrices and
/// cost 10-14% on `oneshot`-size ones (the slot loop lost its unrolling).
constexpr std::size_t kCacheLineBytes = 64;

/// Hints the cache line kPrefetchAhead elements past `p`. The address is
/// formed as an integer, so it may run past the end of the plane without
/// out-of-bounds pointer arithmetic; a prefetch never faults.
template <typename T>
inline void prefetch_ahead(const T* p) {
  __builtin_prefetch(reinterpret_cast<const void*>(
      reinterpret_cast<std::uintptr_t>(p) + kPrefetchAhead * sizeof(T)));
}

/// A chunk's lane count: a compile-time constant for the instantiated SIMD
/// widths, so the lane loop fully vectorizes, or a runtime value for the
/// others. kMax sizes the per-chunk accumulator.
template <int C>
struct FixedWidth {
  static constexpr int kMax = C;
  constexpr operator int() const { return C; }
};
struct RuntimeWidth {
  static constexpr int kMax = 64;  // SrvPackMatrix::build caps c at 64
  int c;
  operator int() const { return c; }
};

/// acc[l] = the sum over the slots j < len of v[j*c + l] * x[ci[j*c + l]],
/// with acc zeroed on entry, prefetching both planes ahead when a slot
/// spans a cache line. This
/// portable body serves the runtime widths, and c = 4 and c = 8 on builds
/// without the ISA of their register-resident bodies below. Every body adds
/// each lane's products in slot order, as spmv_reference adds a row's, so
/// all of them are bit-identical: where the build has FMA the compiler
/// contracts `acc += v * x` here and in spmv_reference to the fused
/// multiply-add that the vector bodies issue.
template <typename Width>
inline void reduce_slots(Width width, const value_t* v, const index_t* ci,
                         nnz_t len, const value_t* x, value_t* acc) {
  const int c = width;
  const bool prefetch = c * sizeof(value_t) >= kCacheLineBytes;
  for (nnz_t j = 0; j < len; ++j) {
    if (prefetch) {
      prefetch_ahead(v + j * c);
      prefetch_ahead(ci + j * c);
    }
#pragma omp simd
    for (int l = 0; l < c; ++l) {
      acc[l] += v[j * c + l] * x[ci[j * c + l]];
    }
  }
}

#if defined(__AVX2__) && defined(__FMA__)
/// c = 4: the four lane sums stay in one ymm register, and each slot is one
/// 4-lane gather of x and one FMA. It does not prefetch: at c = 4 that cost
/// more than it hid (docs/PERFORMANCE.md § Register-resident SRVPack slots).
inline void reduce_slots(FixedWidth<4>, const value_t* v, const index_t* ci,
                         nnz_t len, const value_t* x, value_t* acc) {
  // The masked gather with every lane set is the plain gather; its zeroed
  // source keeps GCC from warning about the plain form's undefined one.
  const __m256d zero = _mm256_setzero_pd();
  const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  __m256d sum = zero;
  for (nnz_t j = 0; j < len; ++j) {
    const __m128i idx =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ci + j * 4));
    const __m256d xs =
        _mm256_mask_i32gather_pd(zero, x, idx, all, sizeof(value_t));
    sum = _mm256_fmadd_pd(_mm256_loadu_pd(v + j * 4), xs, sum);
  }
  _mm256_storeu_pd(acc, sum);
}
#endif

#if defined(__AVX512F__)
/// c = 8: the eight lane sums stay in one zmm register, and each slot is one
/// 8-lane gather of x and one FMA, with both planes prefetched ahead.
inline void reduce_slots(FixedWidth<8>, const value_t* v, const index_t* ci,
                         nnz_t len, const value_t* x, value_t* acc) {
  const __m512d zero = _mm512_setzero_pd();
  __m512d sum = zero;
  for (nnz_t j = 0; j < len; ++j) {
    prefetch_ahead(v + j * 8);
    prefetch_ahead(ci + j * 8);
    const __m256i idx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ci + j * 8));
    const __m512d xs =
        _mm512_mask_i32gather_pd(zero, 0xFF, idx, x, sizeof(value_t));
    sum = _mm512_fmadd_pd(_mm512_loadu_pd(v + j * 8), xs, sum);
  }
  _mm512_storeu_pd(acc, sum);
}
#endif

/// reduce_slots for a segment whose padding column `pad` holds a non-finite
/// x. A padding entry (a zero value at `pad`) adds 0 * 0 where it would add
/// 0 * x[pad] = NaN, so padding cannot poison a lane's sum. Every other
/// entry adds exactly what reduce_slots adds.
template <typename Width>
void reduce_slots_guarded(Width width, const value_t* v, const index_t* ci,
                          nnz_t len, const value_t* x, index_t pad,
                          value_t* acc) {
  const int c = width;
  for (nnz_t j = 0; j < len; ++j) {
#pragma omp simd
    for (int l = 0; l < c; ++l) {
      const nnz_t e = j * c + l;
      const bool padding = ci[e] == pad && v[e] == value_t{0};
      acc[l] += v[e] * (padding ? value_t{0} : x[ci[e]]);
    }
  }
}

/// Processes the chunks of one segment. With `store` each lane's sum
/// overwrites its row of y; otherwise it is added to it. A `guard_pad` of
/// 0 or more names the segment's padding column and routes every chunk to
/// reduce_slots_guarded; -1 runs the fast reduce_slots.
template <typename Width>
void run_chunks(const SrvSegment& seg, Width width, const value_t* x,
                value_t* y, bool store, index_t guard_pad, Schedule sched,
                const SpmvPlan& plan) {
  const int c = width;
  const index_t nrows_seg = seg.num_rows();
  const nnz_t* off = seg.chunk_offset.data();
  const value_t* vals = seg.vals.data();
  const index_t* cols = seg.col_ids.data();
  const index_t* order = seg.row_order.data();

  // Reduces chunk k, whose slots start at `lo`, and writes its lanes out.
  auto chunk_at = [=](index_t k, nnz_t lo, nnz_t len) {
    value_t acc[Width::kMax] = {};
    if (guard_pad < 0) {
      reduce_slots(width, vals + lo * c, cols + lo * c, len, x, acc);
    } else {
      reduce_slots_guarded(width, vals + lo * c, cols + lo * c, len, x,
                           guard_pad, acc);
    }
    const index_t base = k * c;
    const int lanes = static_cast<int>(
        std::min<index_t>(c, nrows_seg - base));
    if (store) {
      for (int l = 0; l < lanes; ++l) y[order[base + l]] = acc[l];
    } else {
      for (int l = 0; l < lanes; ++l) y[order[base + l]] += acc[l];
    }
  };
  auto chunk = [=](index_t k) { chunk_at(k, off[k], off[k + 1] - off[k]); };

  auto run_block = [=](index_t blo, index_t bhi, KernelVariant var) {
    switch (var) {
      case KernelVariant::kUniform: {
        // Every chunk in the block has the same slot count: hoist it and
        // derive chunk starts arithmetically instead of loading offsets.
        const nnz_t len = off[blo + 1] - off[blo];
        nnz_t lo = off[blo];
        for (index_t k = blo; k < bhi; ++k, lo += len) chunk_at(k, lo, len);
        break;
      }
      // kWide and kMerge blocks run the generic loop. Interleaving two
      // chunks measured no gain over one, and a tiny-chunk unroll ~0.95x
      // of it on the packed format. The blocks keep their labels so the
      // variant histogram stays shape-stable across formats.
      case KernelVariant::kWide:
      case KernelVariant::kMerge:
      case KernelVariant::kGeneric:
      default:
        for (index_t k = blo; k < bhi; ++k) chunk(k);
        break;
    }
  };

  for_each_plan_block(plan, sched, run_block);
}

}  // namespace

void spmv_srvpack(const SrvPackMatrix& a, std::span<const value_t> x,
                  std::span<value_t> y, Schedule sched, SrvWorkspace& ws,
                  const SrvPlan& plan) {
  if (x.size() != static_cast<std::size_t>(a.ncols()) ||
      y.size() != static_cast<std::size_t>(a.nrows())) {
    throw std::invalid_argument("spmv_srvpack: dimension mismatch");
  }
  if (plan.segments.size() != a.segments().size()) {
    throw std::invalid_argument("spmv_srvpack: plan/segment count mismatch");
  }

  // With CFS the stored column ids live in permuted space; gather x into
  // that space once per multiplication.
  const value_t* xp = x.data();
  if (a.has_cfs()) {
    const auto& perm = a.col_order();
    ws.permuted_x.resize(perm.size());
#pragma omp parallel for schedule(static)
    for (index_t p = 0; p < static_cast<index_t>(perm.size()); ++p) {
      ws.permuted_x[static_cast<std::size_t>(p)] =
          x[static_cast<std::size_t>(perm[static_cast<std::size_t>(p)])];
    }
    xp = ws.permuted_x.data();
  }

  // When segment 0's row order covers every row (every SELLPACK and
  // Sell-c-σ layout), segment 0 stores its sums and each row is written
  // once. Otherwise some rows get no lane there (RFS drops empty rows), so
  // y is zeroed first and every segment adds. Both give the same bits: a
  // lane's sum starts at +0.0 and never becomes -0.0, so 0.0 + acc == acc.
  value_t* yp = y.data();
  const index_t n = a.nrows();
  const auto& segs = a.segments();
  const bool store_first = !segs.empty() && segs.front().num_rows() == n;
  if (!store_first) {
#pragma omp parallel for schedule(static)
    for (index_t i = 0; i < n; ++i) yp[i] = 0;
  }

  // Segments run back-to-back: each keeps its slice of the input vector hot
  // in the LLC before the next begins (the point of LAV segmentation).
  for (std::size_t s = 0; s < segs.size(); ++s) {
    const auto& seg = segs[s];
    const SpmvPlan& seg_plan = plan.segments[s];
    const bool store = s == 0 && store_first;
    // Padding is (pad_col, 0.0), and 0 * Inf is NaN: only a segment whose
    // padding column holds a non-finite x (permuted x under CFS) runs the
    // guarded reduction. One check per segment keeps the fast path as is.
    const index_t pad = seg.pad_col(a.ncols());
    const index_t guard_pad =
        seg.chunk_offset.back() > 0 && !std::isfinite(xp[pad]) ? pad : -1;
    switch (a.c()) {
      case 4:
        run_chunks(seg, FixedWidth<4>{}, xp, yp, store, guard_pad, sched,
                   seg_plan);
        break;
      case 8:
        run_chunks(seg, FixedWidth<8>{}, xp, yp, store, guard_pad, sched,
                   seg_plan);
        break;
      default:
        run_chunks(seg, RuntimeWidth{a.c()}, xp, yp, store, guard_pad, sched,
                   seg_plan);
        break;
    }
  }
}

}  // namespace wise
