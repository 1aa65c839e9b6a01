#pragma once
// 2-D tiling analysis of a sparse matrix (paper §4.2, Fig 9).
//
// The matrix is logically split into K×K tiles of ceil(nR/K) × ceil(nC/K)
// elements. One fused, OpenMP row-partitioned pass over the nonzeros
// produces:
//   * the T distribution  — nonzeros per tile (sparse: only occupied tiles),
//   * the RB distribution — nonzeros per row block (row of tiles),
//   * the CB distribution — nonzeros per column block,
//   * per-column nonzero counts (the C distribution, a free by-product of
//     the per-thread column histograms),
//   * presence sums for the uniq/potReuse features: for every grouping
//     factor X in {1, 4, 8, 16, 32, 64},
//       row_presence[X]  = Σ over groups of X adjacent rows of the number
//                          of distinct tiles the group touches,
//       col_presence[X]  = Σ over groups of X adjacent columns likewise.
//
// These presence sums serve double duty (§4.2): divided by nnz they are the
// paper's uniqR/uniqC/GrX_uniq* features (unique rows/columns per tile,
// summed over tiles); divided by the group count they are potReuseR /
// potReuseC / GrX_potReuse* (tiles touched per row/column group). The
// identity holds because both count the same set of (group, tile) presence
// pairs, only aggregated along different axes.
//
// Parallelization and determinism: rows are partitioned into contiguous
// chunks aligned to tile-row boundaries and balanced by an estimated cost
// that counts rows as well as nonzeros, so every (group, tile-row,
// tile-column) presence triple is counted by exactly one chunk. All
// per-chunk counters are integers merged in chunk order, which makes every
// field of TilingResult — including the order of tile_counts — a pure
// function of the matrix, independent of the OpenMP thread count. The
// column side is computed in the same sweep: each stripe of rows sharing a
// tile row marks its touched columns in a per-stripe column bitmap, and at
// the stripe's end an OR-fold plus masked popcount counts the nonempty
// (column-group × tile-column) cells; no transpose is ever materialized. A
// caller that needs no column presence turns the column side off.

#include <array>
#include <vector>

#include "sparse/csr.hpp"
#include "util/types.hpp"

namespace wise {

/// Grouping factors: index 0 is X=1 (ungrouped uniqR/potReuseR), the rest
/// are the paper's X values {4, 8, 16, 32, 64}.
inline constexpr std::array<int, 6> kGroupFactors = {1, 4, 8, 16, 32, 64};

struct TilingResult {
  index_t k = 0;         ///< tiles per side actually used
  index_t tile_rows = 0; ///< rows per tile (ceil)
  index_t tile_cols = 0; ///< columns per tile (ceil)

  std::vector<nnz_t> tile_counts;  ///< occupied tiles only (T distribution)
  nnz_t total_tiles = 0;           ///< K^2 (for implicit-zero statistics)

  std::vector<nnz_t> rowblock_counts;  ///< dense, K entries (RB)
  std::vector<nnz_t> colblock_counts;  ///< dense, K entries (CB)

  /// Per-column nonzero counts (C distribution). Filled by the fused
  /// analyze_tiling sweep so extract_features needs no separate column
  /// pass; left empty by analyze_tiling_reference.
  std::vector<nnz_t> col_counts;

  /// presence sums per grouping factor, same order as kGroupFactors.
  /// col_presence is left zero when the column side is turned off.
  std::array<nnz_t, kGroupFactors.size()> row_presence{};
  std::array<nnz_t, kGroupFactors.size()> col_presence{};

  /// Number of row/column groups per factor (denominator of potReuse).
  std::array<nnz_t, kGroupFactors.size()> row_groups{};
  std::array<nnz_t, kGroupFactors.size()> col_groups{};
};

/// Default tile-grid resolution. The paper fixes K=2048 for matrices of
/// 2^20..2^26 rows, i.e. 512..32768 rows per tile. For the smaller matrices
/// this repository evaluates, a fixed 2048 would leave most tiles empty and
/// wash out the statistics, so K scales to keep ~512 rows per tile, clamped
/// to [4, 2048] and floored to a power of two.
index_t default_tile_grid(index_t nrows, index_t ncols);

/// Runs the fused single-pass tiling analysis (parallel, transpose-free).
/// k == 0 selects default_tile_grid. With `column_presence` false the sweep
/// skips the column side of the presence sums — no column bitmap is
/// allocated or stored to and no stripe-end scan runs — and col_presence
/// stays zero; every other field is unchanged.
TilingResult analyze_tiling(const CsrMatrix& m, index_t k = 0,
                            bool column_presence = true);

/// Serial reference implementation: the original forward sweep plus an
/// explicit transpose and backward sweep. Kept as the oracle for the
/// cross-thread-count determinism tests and the before/after benchmarks.
/// Does not fill TilingResult::col_counts.
TilingResult analyze_tiling_reference(const CsrMatrix& m, index_t k = 0);

}  // namespace wise
