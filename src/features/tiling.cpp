#include "features/tiling.hpp"

#include <algorithm>
#include <bit>
#include <omp.h>

#include "util/reciprocal.hpp"

namespace wise {

namespace {

constexpr std::size_t kNumFactors = kGroupFactors.size();

/// log2 of each grouping factor; i / kGroupFactors[x] == i >> kGroupShifts[x].
constexpr std::array<int, kNumFactors> kGroupShifts = {0, 2, 3, 4, 5, 6};
static_assert([] {
  for (std::size_t x = 0; x < kNumFactors; ++x) {
    if (kGroupFactors[x] != 1 << kGroupShifts[x]) return false;
  }
  return true;
}());

// ---------------------------------------------------------------------------
// Fused transpose-free sweep.
//
// One row-major pass over a contiguous range of tile rows computes, for that
// range: the occupied-tile masses (flushed per tile row in first-touch
// order, exactly like the serial algorithm), the row-side presence sums, the
// column-side presence sums, and a column histogram.
//
// All presence counters are computed from bitmaps rather than per-nonzero
// marker probes, so the hot loop touches exactly four small arrays per
// nonzero (column histogram, column bitmap, tile mass, row bitmap). Nor
// does it branch on the data:
//
// Tile column: j / cols_per_tile is one 64×64→128 multiply by an exact
// reciprocal (ReciprocalDivider, util/reciprocal.hpp) in place of a
// division.
//
// Occupied tiles: every nonzero stores its tile column into the next free
// slot of the first-touch list, and only a first touch (tile mass was 0)
// advances the list's length, so recording the order costs no branch.
//
// Row side: each row ORs its touched tile columns into a k-bit bitmap.
// Per-row popcount gives the X=1 presence (a row determines its tile row).
// For coarser factors the row bitmap cascades through nested accumulators —
// acc[x] holds the union of tile columns touched by the currently open
// (group-of-X, tile-row) window. Because the factors are nested powers of
// two, a boundary at factor X is a boundary at every finer factor, so a
// flush pops fine accumulators into presence sums while ORing their bits
// into the next-coarser accumulator that remains open.
//
// Column side (this replaces the explicit transpose; skipped when no
// column-presence feature is wanted): the presence triple is (column group
// j/X, tile row tr, tile column tc). Within one stripe of rows sharing tr,
// a column bitmap marks every touched j. At the stripe boundary one scan
// counts, per tile-column segment, the nonempty X-wide bit groups via
// OR-fold + masked popcount. Groups are power-of-two sized
// and aligned, so they never straddle a 64-bit word; a group split by a
// tile-column boundary is counted once per side, which is exactly the
// (group, tc) refinement the triple demands.
//
// Chunks are aligned to tile-row boundaries, so each (.., tr, ..) triple is
// seen by exactly one chunk and fresh per-chunk bitmaps are correct. Every
// counter is an exact integer derived from set membership — no traversal
// order or thread count can change the result.
// ---------------------------------------------------------------------------

/// Cache-line aligned: the chunks' sweeps update their results
/// concurrently, row by row, and must not false-share.
struct alignas(64) ChunkResult {
  std::vector<nnz_t> tile_counts;
  std::array<nnz_t, kNumFactors> row_presence{};
  std::array<nnz_t, kNumFactors> col_presence{};
};

/// kColumnPresence false drops the column side (the column bitmap and the
/// stripe-end scan): out.col_presence stays zero and `colbits` is unused.
template <bool kColumnPresence>
void fused_chunk_sweep(const CsrMatrix& m, index_t k, index_t rows_per_tile,
                       index_t cols_per_tile, index_t row_begin,
                       index_t row_end, std::vector<nnz_t>& colhist,
                       std::vector<std::uint64_t>& colbits, ChunkResult& out) {
  const auto uk = static_cast<std::size_t>(k);
  const index_t ncols = m.ncols();
  const nnz_t* row_ptr = m.row_ptr().data();
  const index_t* col_idx = m.col_idx().data();
  nnz_t* hist = colhist.data();
  std::uint64_t* cb = colbits.data();
  const std::size_t nwc = colbits.size();

  const ReciprocalDivider tile_col(
      static_cast<std::uint32_t>(cols_per_tile));
  std::vector<nnz_t> block_count(uk, 0);
  // First-touch order of the tile row's occupied tiles. Every nonzero
  // stores its tile column at n_occ and only a first touch advances n_occ,
  // so the slot past the last tile (k + 1 in all) absorbs the other stores.
  std::vector<std::uint32_t> occupied(uk + 1);
  std::size_t n_occ = 0;

  // Tile-column bitmaps: one word per 64 tile columns (k <= 2048 → <= 32
  // words, L1-resident). acc[0] is unused; acc[x] covers factor x.
  const std::size_t nwr = (uk + 63) / 64;
  std::vector<std::uint64_t> row_bits(nwr, 0);
  std::array<std::vector<std::uint64_t>, kNumFactors> acc;
  for (std::size_t x = 1; x < kNumFactors; ++x) acc[x].assign(nwr, 0);

  auto flush_block = [&] {
    for (std::size_t t = 0; t < n_occ; ++t) {
      out.tile_counts.push_back(block_count[occupied[t]]);
      block_count[occupied[t]] = 0;
    }
    n_occ = 0;
  };

  // Pops accumulators 1..xmax (fine to coarse). Bits always propagate to the
  // next-coarser accumulator: either it is flushed right after (its group
  // boundary coincides) or it stays open and now owns those tile columns.
  auto flush_rows = [&](std::size_t xmax) {
    for (std::size_t x = 1; x <= xmax; ++x) {
      std::uint64_t* a = acc[x].data();
      std::uint64_t* up = (x + 1 < kNumFactors) ? acc[x + 1].data() : nullptr;
      nnz_t pop = 0;
      for (std::size_t w = 0; w < nwr; ++w) {
        const std::uint64_t v = a[w];
        if (v == 0) continue;
        pop += std::popcount(v);
        if (up != nullptr) up[w] |= v;
        a[w] = 0;
      }
      out.row_presence[x] += pop;
    }
  };

  // Stripe-end column scan: count nonempty X-wide groups per tile-column
  // segment by OR-folding each word so bit 4m (8m, ...) records whether any
  // bit of its group is set, then popcounting under a stride mask.
  const index_t n_tile_cols = (ncols + cols_per_tile - 1) / cols_per_tile;
  auto flush_stripe_cols = [&] {
    if constexpr (!kColumnPresence) return;
    std::array<nnz_t, kNumFactors> add{};
    for (index_t tc = 0; tc < n_tile_cols; ++tc) {
      const std::int64_t c0 = static_cast<std::int64_t>(tc) * cols_per_tile;
      const std::int64_t c1 = std::min<std::int64_t>(ncols, c0 + cols_per_tile);
      const std::size_t w0 = static_cast<std::size_t>(c0 >> 6);
      const std::size_t w1 = static_cast<std::size_t>((c1 - 1) >> 6);
      for (std::size_t w = w0; w <= w1; ++w) {
        std::uint64_t v = cb[w];
        if (v == 0) continue;
        // Mask the word down to this tile-column segment. A word shared by
        // two segments is visited once per segment with complementary masks.
        if (w == w0) {
          v &= ~std::uint64_t{0} << (c0 & 63);
        }
        if (w == w1) {
          const std::int64_t hi = c1 - static_cast<std::int64_t>(w) * 64;
          if (hi < 64) v &= (std::uint64_t{1} << hi) - 1;
        }
        if (v == 0) continue;
        add[0] += std::popcount(v);
        std::uint64_t f = v | (v >> 1);
        f |= f >> 2;  // bit 4m == any of bits [4m, 4m+3]
        add[1] += std::popcount(f & 0x1111111111111111ull);
        f |= f >> 4;
        add[2] += std::popcount(f & 0x0101010101010101ull);
        f |= f >> 8;
        add[3] += std::popcount(f & 0x0001000100010001ull);
        f |= f >> 16;
        add[4] += std::popcount(f & 0x0000000100000001ull);
        add[5] += 1;  // 64-wide groups align with words
      }
    }
    for (std::size_t w = 0; w < nwc; ++w) {
      if (cb[w] != 0) cb[w] = 0;
    }
    for (std::size_t x = 0; x < kNumFactors; ++x) out.col_presence[x] += add[x];
  };

  index_t current_tr = row_begin / rows_per_tile;
  std::int64_t tr_limit =
      (static_cast<std::int64_t>(current_tr) + 1) * rows_per_tile;
  for (index_t i = row_begin; i < row_end; ++i) {
    if (i >= tr_limit) {
      // New tile row: every (.., tr, ..) window closes at once.
      flush_block();
      flush_rows(kNumFactors - 1);
      flush_stripe_cols();
      current_tr = i / rows_per_tile;
      tr_limit = (static_cast<std::int64_t>(current_tr) + 1) * rows_per_tile;
    } else if ((i & 3) == 0 && i != row_begin) {
      // Group boundary: factor 1<<s closes when i is a multiple of 1<<s, so
      // the trailing-zero count of i picks the coarsest factor that closes.
      const auto tz =
          static_cast<std::size_t>(std::countr_zero(static_cast<std::uint32_t>(i)));
      flush_rows(std::min(kNumFactors - 1, tz - 1));
    }
    const nnz_t pend = row_ptr[i + 1];
    for (nnz_t p = row_ptr[i]; p < pend; ++p) {
      const index_t j = col_idx[p];
      const std::uint32_t tc = tile_col(static_cast<std::uint32_t>(j));
      ++hist[j];
      if constexpr (kColumnPresence) {
        cb[static_cast<std::size_t>(j) >> 6] |= std::uint64_t{1} << (j & 63);
      }
      occupied[n_occ] = tc;
      n_occ += block_count[tc]++ == 0;
      row_bits[tc >> 6] |= std::uint64_t{1} << (tc & 63);
    }
    if (row_ptr[i] != pend) {
      // End of row == X=1 boundary: pop the row bitmap and cascade it.
      nnz_t pop = 0;
      for (std::size_t w = 0; w < nwr; ++w) {
        const std::uint64_t v = row_bits[w];
        if (v == 0) continue;
        pop += std::popcount(v);
        acc[1][w] |= v;
        row_bits[w] = 0;
      }
      out.row_presence[0] += pop;
    }
  }
  flush_block();
  flush_rows(kNumFactors - 1);
  flush_stripe_cols();
}

// ---------------------------------------------------------------------------
// Serial reference: the original forward sweep + explicit transpose +
// backward sweep. Kept verbatim as the determinism/benchmark oracle.
// ---------------------------------------------------------------------------

struct RowSweep {
  std::vector<nnz_t> tile_counts;
  std::vector<nnz_t> rowblock;
  std::vector<nnz_t> colblock;
  std::array<nnz_t, kNumFactors> presence{};
};

RowSweep reference_row_sweep(const CsrMatrix& m, index_t k) {
  const index_t nrows = m.nrows();
  const index_t ncols = m.ncols();
  const index_t tile_rows = (nrows + k - 1) / k;
  const index_t tile_cols = (ncols + k - 1) / k;

  RowSweep out;
  out.rowblock.assign(static_cast<std::size_t>(k), 0);
  out.colblock.assign(static_cast<std::size_t>(k), 0);

  std::vector<nnz_t> block_count(static_cast<std::size_t>(k), 0);
  std::vector<index_t> occupied;

  std::array<std::vector<std::int64_t>, kNumFactors> marker;
  for (auto& v : marker) v.assign(static_cast<std::size_t>(k), -1);

  auto flush_block = [&] {
    for (index_t tc : occupied) {
      out.tile_counts.push_back(block_count[static_cast<std::size_t>(tc)]);
      block_count[static_cast<std::size_t>(tc)] = 0;
    }
    occupied.clear();
  };

  index_t current_tr = 0;
  for (index_t i = 0; i < nrows; ++i) {
    const index_t tr = i / tile_rows;
    if (tr != current_tr) {
      flush_block();
      current_tr = tr;
    }
    for (index_t j : m.row_cols(i)) {
      const index_t tc = j / tile_cols;
      if (block_count[static_cast<std::size_t>(tc)] == 0) {
        occupied.push_back(tc);
      }
      ++block_count[static_cast<std::size_t>(tc)];
      ++out.rowblock[static_cast<std::size_t>(tr)];
      ++out.colblock[static_cast<std::size_t>(tc)];

      for (std::size_t xi = 0; xi < kNumFactors; ++xi) {
        const index_t g = i / kGroupFactors[xi];
        const std::int64_t key = static_cast<std::int64_t>(g) * k + tr;
        if (marker[xi][static_cast<std::size_t>(tc)] != key) {
          marker[xi][static_cast<std::size_t>(tc)] = key;
          ++out.presence[xi];
        }
      }
    }
  }
  flush_block();
  return out;
}

/// Clamps the requested grid exactly like the original implementation and
/// fills the size/group metadata shared by both analysis paths.
index_t prepare_result_header(const CsrMatrix& m, index_t k,
                              TilingResult& res) {
  if (k <= 0) k = default_tile_grid(m.nrows(), m.ncols());
  k = std::max<index_t>(1, std::min({k, m.nrows(), m.ncols()}));

  res.k = k;
  res.tile_rows = (m.nrows() + k - 1) / k;
  res.tile_cols = (m.ncols() + k - 1) / k;
  res.total_tiles = static_cast<nnz_t>(k) * k;

  for (std::size_t xi = 0; xi < kNumFactors; ++xi) {
    const auto x = static_cast<index_t>(kGroupFactors[xi]);
    res.row_groups[xi] = (m.nrows() + x - 1) / x;
    res.col_groups[xi] = (m.ncols() + x - 1) / x;
  }
  return k;
}

}  // namespace

index_t default_tile_grid(index_t nrows, index_t ncols) {
  // Keep ~512 rows per tile (the paper's smallest-matrix ratio: K=2048 for
  // 2^20 rows), clamped to [4, 2048] and floored to a power of two.
  const index_t base = std::min(nrows, ncols) / 512;
  const index_t clamped = std::clamp<index_t>(base, 4, 2048);
  return static_cast<index_t>(
      std::bit_floor(static_cast<std::uint64_t>(clamped)));
}

TilingResult analyze_tiling(const CsrMatrix& m, index_t k,
                            bool column_presence) {
  TilingResult res;
  k = prepare_result_header(m, k, res);

  const index_t nrows = m.nrows();
  const index_t ncols = m.ncols();
  res.rowblock_counts.assign(static_cast<std::size_t>(k), 0);
  res.colblock_counts.assign(static_cast<std::size_t>(k), 0);
  res.col_counts.assign(static_cast<std::size_t>(std::max<index_t>(0, ncols)),
                        0);
  if (nrows <= 0 || ncols <= 0 || m.nnz() == 0) return res;

  const index_t rows_per_tile = res.tile_rows;
  const index_t cols_per_tile = res.tile_cols;
  const index_t n_tile_rows = (nrows + rows_per_tile - 1) / rows_per_tile;
  const auto rp = m.row_ptr();

  // RB masses come straight from row_ptr prefix differences — no per-nonzero
  // work and no reduction needed.
  for (index_t tr = 0; tr < n_tile_rows; ++tr) {
    const auto lo = static_cast<std::size_t>(tr) *
                    static_cast<std::size_t>(rows_per_tile);
    const auto hi = std::min<std::size_t>(static_cast<std::size_t>(nrows),
                                          lo + rows_per_tile);
    res.rowblock_counts[static_cast<std::size_t>(tr)] = rp[hi] - rp[lo];
  }

  // Contiguous chunks of whole tile rows, balanced by estimated cost. The
  // per-chunk results are invariant to the chunking (each tile row's
  // contribution depends only on its own rows), so any thread count yields
  // identical output. A row costs the sweep about kRowCost nonzeros' worth
  // (its row-end pop, its share of the group flushes, a mispredicted loop
  // exit; measured on the 2^20-row RMAT benchmark fixture), and on skewed
  // matrices chunks of equal nonzero count hold very different row counts.
  constexpr double kRowCost = 4.0;
  const auto cost_before = [&](index_t tr) {  // tile rows [0, tr)
    const std::size_t row = std::min<std::size_t>(
        static_cast<std::size_t>(nrows),
        static_cast<std::size_t>(tr) * static_cast<std::size_t>(rows_per_tile));
    return static_cast<double>(rp[row]) + kRowCost * static_cast<double>(row);
  };
  const int nchunks = static_cast<int>(std::min<index_t>(
      n_tile_rows, std::max(1, omp_get_max_threads())));
  std::vector<index_t> bounds(static_cast<std::size_t>(nchunks) + 1, 0);
  bounds[static_cast<std::size_t>(nchunks)] = n_tile_rows;
  const double total_cost = cost_before(n_tile_rows);
  for (int c = 1; c < nchunks; ++c) {
    const double target = total_cost * c / static_cast<double>(nchunks);
    index_t tr = bounds[static_cast<std::size_t>(c) - 1];
    while (tr < n_tile_rows && cost_before(tr + 1) < target) ++tr;
    bounds[static_cast<std::size_t>(c)] = tr;
  }

  const std::size_t nwc = (static_cast<std::size_t>(ncols) + 63) / 64;
  std::vector<ChunkResult> chunk(static_cast<std::size_t>(nchunks));
  std::vector<std::vector<nnz_t>> colhists(static_cast<std::size_t>(nchunks));
  std::vector<std::vector<std::uint64_t>> colbits(
      static_cast<std::size_t>(nchunks));
#pragma omp parallel for schedule(static, 1) if (nchunks > 1)
  for (int c = 0; c < nchunks; ++c) {
    const auto uc = static_cast<std::size_t>(c);
    const index_t row_begin = static_cast<index_t>(std::min<std::int64_t>(
        nrows, static_cast<std::int64_t>(bounds[uc]) * rows_per_tile));
    const index_t row_end = static_cast<index_t>(std::min<std::int64_t>(
        nrows, static_cast<std::int64_t>(bounds[uc + 1]) * rows_per_tile));
    if (row_begin >= row_end) continue;
    colhists[uc].assign(static_cast<std::size_t>(ncols), 0);
    if (column_presence) {
      colbits[uc].assign(nwc, 0);
      fused_chunk_sweep<true>(m, k, rows_per_tile, cols_per_tile, row_begin,
                              row_end, colhists[uc], colbits[uc], chunk[uc]);
    } else {
      fused_chunk_sweep<false>(m, k, rows_per_tile, cols_per_tile, row_begin,
                               row_end, colhists[uc], colbits[uc], chunk[uc]);
    }
  }

  // Merge the per-chunk column histograms (ordered integer sums → exact and
  // thread-count independent), then derive the CB masses from them.
  auto& cc = res.col_counts;
#pragma omp parallel for schedule(static) if (ncols > (1 << 15))
  for (index_t j = 0; j < ncols; ++j) {
    nnz_t sum = 0;
    for (const auto& h : colhists) {
      if (!h.empty()) sum += h[static_cast<std::size_t>(j)];
    }
    cc[static_cast<std::size_t>(j)] = sum;
  }
  for (index_t tc = 0; tc < k; ++tc) {
    const auto lo = static_cast<std::size_t>(tc) *
                    static_cast<std::size_t>(cols_per_tile);
    const auto hi = std::min<std::size_t>(static_cast<std::size_t>(ncols),
                                          lo + cols_per_tile);
    nnz_t sum = 0;
    for (std::size_t j = lo; j < hi; ++j) sum += cc[j];
    res.colblock_counts[static_cast<std::size_t>(tc)] = sum;
  }

  // Concatenate in chunk order: chunks own disjoint, ascending tile-row
  // ranges, so this reproduces the serial flush order exactly.
  std::size_t total_occupied = 0;
  for (const auto& c : chunk) total_occupied += c.tile_counts.size();
  res.tile_counts.reserve(total_occupied);
  for (const auto& c : chunk) {
    res.tile_counts.insert(res.tile_counts.end(), c.tile_counts.begin(),
                           c.tile_counts.end());
    for (std::size_t x = 0; x < kNumFactors; ++x) {
      res.row_presence[x] += c.row_presence[x];
      res.col_presence[x] += c.col_presence[x];
    }
  }
  return res;
}

TilingResult analyze_tiling_reference(const CsrMatrix& m, index_t k) {
  TilingResult res;
  k = prepare_result_header(m, k, res);

  RowSweep fwd = reference_row_sweep(m, k);
  res.tile_counts = std::move(fwd.tile_counts);
  res.rowblock_counts = std::move(fwd.rowblock);
  res.colblock_counts = std::move(fwd.colblock);
  res.row_presence = fwd.presence;

  const CsrMatrix mt = m.transpose();
  RowSweep bwd = reference_row_sweep(mt, k);
  res.col_presence = bwd.presence;
  return res;
}

}  // namespace wise
