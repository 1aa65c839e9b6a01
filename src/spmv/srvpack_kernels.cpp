#include "spmv/srvpack_kernels.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>

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

/// acc[l] += v[j*c + l] * x[ci[j*c + l]] over the slots j < len of one
/// chunk, prefetching both planes ahead when a slot spans a cache line.
/// Every chunk of every variant and width runs this one reduction, so all
/// of them stay bit-identical.
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

/// Processes the chunks of one segment. With `store` each lane's sum
/// overwrites its row of y; otherwise it is added to it.
template <typename Width>
void run_chunks(const SrvSegment& seg, Width width, const value_t* x,
                value_t* y, bool store, Schedule sched,
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
    reduce_slots(width, vals + lo * c, cols + lo * c, len, x, acc);
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
      case KernelVariant::kWide:
        // Long chunks: two chunks in flight so two accumulator sets overlap
        // their gather latencies.
        {
          index_t k = blo;
          for (; k + 2 <= bhi; k += 2) {
            chunk(k);
            chunk(k + 1);
          }
          if (k < bhi) chunk(k);
        }
        break;
      // kMerge blocks run the generic loop: a tiny-chunk unroll measured
      // ~0.95x of it on the packed format. The block keeps its kMerge label
      // so the variant histogram stays shape-stable across formats.
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
    switch (a.c()) {
      case 4:
        run_chunks(seg, FixedWidth<4>{}, xp, yp, store, sched, seg_plan);
        break;
      case 8:
        run_chunks(seg, FixedWidth<8>{}, xp, yp, store, sched, seg_plan);
        break;
      default:
        run_chunks(seg, RuntimeWidth{a.c()}, xp, yp, store, sched, seg_plan);
        break;
    }
  }
}

}  // namespace wise
