// Tests for the 2-D tiling analysis backing the locality features.

#include <gtest/gtest.h>

#include <set>

#include "features/tiling.hpp"
#include "test_util.hpp"
#include "util/prng.hpp"
#include "util/reciprocal.hpp"

namespace wise {
namespace {

using testing::random_csr;

/// Brute-force presence computation for verification: counts distinct
/// (group, tile) pairs.
nnz_t brute_row_presence(const CsrMatrix& m, index_t k, int x) {
  const index_t tile_rows = (m.nrows() + k - 1) / k;
  const index_t tile_cols = (m.ncols() + k - 1) / k;
  std::set<std::tuple<index_t, index_t, index_t>> pairs;  // (group, tr, tc)
  for (index_t i = 0; i < m.nrows(); ++i) {
    for (index_t j : m.row_cols(i)) {
      pairs.insert({i / x, i / tile_rows, j / tile_cols});
    }
  }
  return static_cast<nnz_t>(pairs.size());
}

nnz_t brute_col_presence(const CsrMatrix& m, index_t k, int x) {
  const index_t tile_rows = (m.nrows() + k - 1) / k;
  const index_t tile_cols = (m.ncols() + k - 1) / k;
  std::set<std::tuple<index_t, index_t, index_t>> pairs;  // (group, tr, tc)
  for (index_t i = 0; i < m.nrows(); ++i) {
    for (index_t j : m.row_cols(i)) {
      pairs.insert({j / x, i / tile_rows, j / tile_cols});
    }
  }
  return static_cast<nnz_t>(pairs.size());
}

TEST(Tiling, BlockCountsSumToNnz) {
  const CsrMatrix m = random_csr(128, 96, 5.0, 1);
  const TilingResult t = analyze_tiling(m, 8);
  nnz_t tile_sum = 0, rb_sum = 0, cb_sum = 0;
  for (auto c : t.tile_counts) tile_sum += c;
  for (auto c : t.rowblock_counts) rb_sum += c;
  for (auto c : t.colblock_counts) cb_sum += c;
  EXPECT_EQ(tile_sum, m.nnz());
  EXPECT_EQ(rb_sum, m.nnz());
  EXPECT_EQ(cb_sum, m.nnz());
}

TEST(Tiling, TileCountsAreAllPositive) {
  const CsrMatrix m = random_csr(64, 64, 4.0, 2);
  const TilingResult t = analyze_tiling(m, 4);
  for (auto c : t.tile_counts) EXPECT_GT(c, 0);
  EXPECT_LE(static_cast<nnz_t>(t.tile_counts.size()), t.total_tiles);
  EXPECT_EQ(t.total_tiles, 16);
}

TEST(Tiling, HandComputedSmallExample) {
  // 4x4 matrix, k=2 → 2x2 tiles of 2x2 elements.
  CooMatrix coo(4, 4);
  coo.add(0, 0, 1);  // tile (0,0)
  coo.add(0, 1, 1);  // tile (0,0)
  coo.add(1, 3, 1);  // tile (0,1)
  coo.add(3, 0, 1);  // tile (1,0)
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  const TilingResult t = analyze_tiling(m, 2);
  EXPECT_EQ(t.tile_rows, 2);
  EXPECT_EQ(t.tile_cols, 2);
  ASSERT_EQ(t.tile_counts.size(), 3u);  // three occupied tiles
  // Occupied tile masses (in block scan order): (0,0)=2, (0,1)=1, (1,0)=1.
  EXPECT_EQ(t.tile_counts[0] + t.tile_counts[1] + t.tile_counts[2], 4);
  EXPECT_EQ(t.rowblock_counts, (std::vector<nnz_t>{3, 1}));
  EXPECT_EQ(t.colblock_counts, (std::vector<nnz_t>{3, 1}));
}

TEST(Tiling, PresenceMatchesBruteForce) {
  for (std::uint64_t seed : {3u, 4u, 5u}) {
    const CsrMatrix m = random_csr(200, 160, 6.0, seed);
    const index_t k = 8;
    const TilingResult t = analyze_tiling(m, k);
    for (std::size_t xi = 0; xi < kGroupFactors.size(); ++xi) {
      const int x = kGroupFactors[xi];
      EXPECT_EQ(t.row_presence[xi], brute_row_presence(m, k, x))
          << "row X=" << x << " seed " << seed;
      EXPECT_EQ(t.col_presence[xi], brute_col_presence(m, k, x))
          << "col X=" << x << " seed " << seed;
    }
  }
}

TEST(Tiling, PresenceDecreasesWithGrouping) {
  // Coarser groups can only merge presence pairs.
  const CsrMatrix m = random_csr(256, 256, 8.0, 6);
  const TilingResult t = analyze_tiling(m, 8);
  for (std::size_t xi = 1; xi < kGroupFactors.size(); ++xi) {
    EXPECT_LE(t.row_presence[xi], t.row_presence[xi - 1]);
    EXPECT_LE(t.col_presence[xi], t.col_presence[xi - 1]);
  }
}

TEST(Tiling, PresenceBoundedByNnzAndGroups) {
  const CsrMatrix m = random_csr(100, 100, 4.0, 7);
  const TilingResult t = analyze_tiling(m, 4);
  for (std::size_t xi = 0; xi < kGroupFactors.size(); ++xi) {
    EXPECT_LE(t.row_presence[xi], m.nnz());
    EXPECT_GT(t.row_presence[xi], 0);
    EXPECT_LE(t.col_presence[xi], m.nnz());
  }
  EXPECT_EQ(t.row_groups[0], 100);
  EXPECT_EQ(t.row_groups[1], 25);   // X=4
  EXPECT_EQ(t.row_groups[5], 2);    // X=64 → ceil(100/64)
}

TEST(Tiling, DiagonalMatrixTouchesDiagonalTilesOnly) {
  CooMatrix coo(16, 16);
  for (index_t i = 0; i < 16; ++i) coo.add(i, i, 1.0);
  const TilingResult t = analyze_tiling(CsrMatrix::from_coo(coo), 4);
  EXPECT_EQ(t.tile_counts.size(), 4u);  // only the 4 diagonal tiles
  for (auto c : t.tile_counts) EXPECT_EQ(c, 4);
  // Each row touches exactly 1 tile.
  EXPECT_EQ(t.row_presence[0], 16);
}

TEST(Tiling, DefaultGridScalesWithMatrixSize) {
  EXPECT_EQ(default_tile_grid(1 << 20, 1 << 20), 2048);
  EXPECT_EQ(default_tile_grid(1 << 26, 1 << 26), 2048);  // capped
  EXPECT_EQ(default_tile_grid(4096, 4096), 8);           // 4096/512
  EXPECT_EQ(default_tile_grid(100, 100), 4);             // floor
  EXPECT_GE(default_tile_grid(1, 1), 1);
}

TEST(Tiling, GridClampedToMatrixDimensions) {
  const CsrMatrix m = random_csr(3, 3, 1.0, 8);
  const TilingResult t = analyze_tiling(m, 100);
  EXPECT_LE(t.k, 3);
}

TEST(Tiling, FusedMatchesReferenceOnVariedShapes) {
  // The fused transpose-free sweep must reproduce the serial
  // reference (forward sweep + transpose + backward sweep) exactly,
  // including the first-touch order of tile_counts. The shapes cover
  // tile widths that are not multiples of 64 (517/8 → 65 columns per
  // tile), which exercises the masked word-straddle path, and the tile
  // widths the sweep's reciprocal divider treats apart: one column per
  // tile (divisor 1), powers of two, 2^m + 1, and a wide matrix whose
  // column ids need more than 20 bits.
  struct Case {
    CsrMatrix m;
    index_t k;
    index_t tile_cols;  ///< expected columns per tile (0: not checked)
  };
  const std::vector<Case> cases = {
      {random_csr(200, 160, 6.0, 11), 8, 20},
      {random_csr(300, 517, 5.0, 12), 8, 65},
      {random_csr(129, 1000, 3.0, 13), 16, 63},
      {CsrMatrix::from_coo(generate_banded(512, 9, 0.7, 14)), 16, 32},
      {CsrMatrix::from_coo(generate_stencil2d(40, 31)), 8, 155},
      {random_csr(70, 70, 2.0, 15), 0, 0},  // default grid
      {random_csr(100, 64, 4.0, 17), 64, 1},
      {random_csr(90, 37, 3.0, 18), 37, 1},
      {random_csr(256, 512, 5.0, 19), 8, 64},
      {random_csr(256, 512, 5.0, 20), 16, 32},
      {random_csr(160, 264, 4.0, 21), 8, 33},
      {random_csr(300, 2064, 6.0, 22), 16, 129},
      {random_csr(64, index_t{1} << 21, 40.0, 23), 4, index_t{1} << 19},
      {random_csr(48, (index_t{1} << 20) + 3, 30.0, 24), 3, 349527},
  };
  for (const auto& c : cases) {
    const TilingResult fused = analyze_tiling(c.m, c.k);
    const TilingResult ref = analyze_tiling_reference(c.m, c.k);
    if (c.tile_cols != 0) {
      EXPECT_EQ(fused.tile_cols, c.tile_cols);
    }
    EXPECT_EQ(fused.k, ref.k);
    EXPECT_EQ(fused.tile_counts, ref.tile_counts);
    EXPECT_EQ(fused.rowblock_counts, ref.rowblock_counts);
    EXPECT_EQ(fused.colblock_counts, ref.colblock_counts);
    EXPECT_EQ(fused.row_presence, ref.row_presence);
    EXPECT_EQ(fused.col_presence, ref.col_presence);
  }
}

TEST(Tiling, WideGridsMatchReference) {
  // Grids up to 5000 tile columns: the row bitmaps span many words, and
  // past 4096 columns more than 64. The skewed case puts most nonzeros in
  // a few rows, so the cost-balanced chunks differ from nonzero-balanced
  // ones.
  const std::vector<std::pair<CsrMatrix, index_t>> cases = {
      {random_csr(3000, 2500, 4.0, 31), 200},
      {random_csr(6000, 6000, 3.0, 32), 1000},
      {random_csr(6000, 5000, 3.0, 33), 5000},
      {CsrMatrix::from_coo(generate_rmat(
           rmat_class_params(RmatClass::kHighSkew, 8192, 6), 34)),
       2048},
  };
  const int saved_threads = omp_get_max_threads();
  for (const auto& [m, k] : cases) {
    const TilingResult ref = analyze_tiling_reference(m, k);
    for (int threads : {1, 2, 3, 8}) {
      omp_set_num_threads(threads);
      const TilingResult fused = analyze_tiling(m, k);
      EXPECT_EQ(fused.tile_counts, ref.tile_counts) << k << " " << threads;
      EXPECT_EQ(fused.row_presence, ref.row_presence) << k << " " << threads;
      EXPECT_EQ(fused.col_presence, ref.col_presence) << k << " " << threads;
    }
  }
  omp_set_num_threads(saved_threads);
}

TEST(Tiling, ColumnPresenceOffLeavesEveryOtherFieldUnchanged) {
  for (const auto& [m, k] : std::vector<std::pair<CsrMatrix, index_t>>{
           {random_csr(300, 517, 5.0, 35), 8},
           {random_csr(3000, 2500, 4.0, 36), 300}}) {
    const TilingResult full = analyze_tiling(m, k);
    const TilingResult rows_only = analyze_tiling(m, k, false);
    EXPECT_EQ(rows_only.tile_counts, full.tile_counts);
    EXPECT_EQ(rows_only.rowblock_counts, full.rowblock_counts);
    EXPECT_EQ(rows_only.colblock_counts, full.colblock_counts);
    EXPECT_EQ(rows_only.col_counts, full.col_counts);
    EXPECT_EQ(rows_only.row_presence, full.row_presence);
    EXPECT_EQ(rows_only.row_groups, full.row_groups);
    EXPECT_EQ(rows_only.col_groups, full.col_groups);
    for (nnz_t p : rows_only.col_presence) EXPECT_EQ(p, 0);
  }
}

TEST(Tiling, ReciprocalDividerIsExact) {
  std::vector<std::uint32_t> divisors;
  for (std::uint32_t d = 1; d <= 4096; ++d) divisors.push_back(d);
  for (int m = 12; m < 32; ++m) {
    const std::uint32_t p = std::uint32_t{1} << m;
    divisors.insert(divisors.end(), {p - 1, p, p + 1});
  }
  divisors.push_back(0x7fffffffu);
  divisors.push_back(0xffffffffu);
  Xoshiro256 rng(25);
  for (int i = 0; i < 2000; ++i) {
    divisors.push_back(1 + static_cast<std::uint32_t>(rng.next_below(0xffffffffu)));
  }
  for (const std::uint32_t d : divisors) {
    const ReciprocalDivider div(d);
    std::vector<std::uint32_t> numerators = {
        0, d - 1, d, d + 1, 2 * d - 1, 2 * d, 0x7fffffffu, 0xffffffffu};
    for (int i = 0; i < 8; ++i) {
      numerators.push_back(static_cast<std::uint32_t>(rng.next()));
    }
    for (const std::uint32_t n : numerators) {
      ASSERT_EQ(div(n), n / d) << n << " / " << d;
    }
  }
}

TEST(Tiling, FusedColCountsMatchMatrix) {
  const CsrMatrix m = random_csr(150, 333, 4.0, 16);
  const TilingResult t = analyze_tiling(m, 8);
  EXPECT_EQ(t.col_counts, m.col_counts());
  // The reference path does not fill col_counts (documented contract).
  EXPECT_TRUE(analyze_tiling_reference(m, 8).col_counts.empty());
}

TEST(Tiling, BandedMatrixHasFewerTilesThanUniform) {
  const CsrMatrix banded =
      CsrMatrix::from_coo(generate_banded(512, 4, 0.8, 1));
  const CsrMatrix uniform = random_csr(512, 512, 7.0, 9);
  const auto tb = analyze_tiling(banded, 16);
  const auto tu = analyze_tiling(uniform, 16);
  EXPECT_LT(tb.tile_counts.size(), tu.tile_counts.size());
}

}  // namespace
}  // namespace wise
