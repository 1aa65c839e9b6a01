// Tests for RFS/CFS/σ-sorting/segmentation transforms.

#include <gtest/gtest.h>

#include <numeric>

#include "sparse/transforms.hpp"
#include "test_util.hpp"

namespace wise {
namespace {

using testing::expect_vectors_near;
using testing::random_csr;
using testing::random_vector;

TEST(Permutation, ValidateAcceptsBijection) {
  EXPECT_NO_THROW(validate_permutation({2, 0, 1}, 3));
}

TEST(Permutation, ValidateRejectsBadInputs) {
  EXPECT_THROW(validate_permutation({0, 1}, 3), std::invalid_argument);
  EXPECT_THROW(validate_permutation({0, 0, 1}, 3), std::invalid_argument);
  EXPECT_THROW(validate_permutation({0, 1, 3}, 3), std::invalid_argument);
  EXPECT_THROW(validate_permutation({0, 1, -1}, 3), std::invalid_argument);
}

TEST(Permutation, InvertIsCorrect) {
  const std::vector<index_t> perm = {2, 0, 3, 1};
  const auto inv = invert_permutation(perm);
  for (std::size_t p = 0; p < perm.size(); ++p) {
    EXPECT_EQ(inv[static_cast<std::size_t>(perm[p])], static_cast<index_t>(p));
  }
}

TEST(SigmaSort, SigmaOneKeepsNaturalOrder) {
  const CsrMatrix m = random_csr(20, 20, 3.0, 1);
  const auto order = sigma_sorted_row_order(m.row_counts(), 1);
  std::vector<index_t> identity(20);
  std::iota(identity.begin(), identity.end(), 0);
  EXPECT_EQ(order, identity);
}

TEST(SigmaSort, SortsDescendingWithinWindows) {
  const CsrMatrix m = random_csr(32, 32, 4.0, 2);
  const index_t sigma = 8;
  const auto order = sigma_sorted_row_order(m.row_counts(), sigma);
  for (index_t w = 0; w < 32; w += sigma) {
    for (index_t i = w + 1; i < w + sigma; ++i) {
      EXPECT_GE(m.row_nnz(order[static_cast<std::size_t>(i - 1)]),
                m.row_nnz(order[static_cast<std::size_t>(i)]))
          << "window " << w;
    }
    // Rows must stay within their window.
    for (index_t i = w; i < w + sigma; ++i) {
      EXPECT_GE(order[static_cast<std::size_t>(i)], w);
      EXPECT_LT(order[static_cast<std::size_t>(i)], w + sigma);
    }
  }
}

TEST(SigmaSort, IsStableForEqualCounts) {
  // All rows have equal nnz: stable sort must preserve the natural order.
  CooMatrix coo(8, 8);
  for (index_t i = 0; i < 8; ++i) coo.add(i, i, 1.0);
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  const auto order = sigma_sorted_row_order(m.row_counts(), 4);
  std::vector<index_t> identity(8);
  std::iota(identity.begin(), identity.end(), 0);
  EXPECT_EQ(order, identity);
}

TEST(SigmaSort, EqualsAStableSortPerWindow) {
  // Short rows with many ties, empty rows, and one very long row (a window
  // whose length range far exceeds its row count).
  Xoshiro256 rng(7);
  std::vector<nnz_t> len(1000);
  for (auto& l : len) l = static_cast<nnz_t>(rng.next_below(6));
  len[517] = 100000;
  for (index_t sigma : {1, 2, 3, 7, 64, 512, 999, 1000, 1 << 30}) {
    std::vector<index_t> expect(len.size());
    std::iota(expect.begin(), expect.end(), 0);
    const auto window = static_cast<std::size_t>(sigma);
    for (std::size_t b = 0; b < expect.size(); b += window) {
      const auto e = std::min(expect.size(), b + window);
      std::stable_sort(expect.begin() + static_cast<std::ptrdiff_t>(b),
                       expect.begin() + static_cast<std::ptrdiff_t>(e),
                       [&len](index_t x, index_t y) {
                         return len[static_cast<std::size_t>(x)] >
                                len[static_cast<std::size_t>(y)];
                       });
    }
    EXPECT_EQ(sigma_sorted_row_order(len, sigma), expect) << "sigma " << sigma;
  }
  EXPECT_TRUE(sigma_sorted_row_order(std::vector<nnz_t>{}, 4).empty());
}

TEST(Rfs, SortsAllRowsDescending) {
  const CsrMatrix m = random_csr(64, 64, 5.0, 3);
  const auto order = sigma_sorted_row_order(m.row_counts(), m.nrows());
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_GE(m.row_nnz(order[i - 1]), m.row_nnz(order[i]));
  }
}

TEST(Cfs, OrdersColumnsByDescendingCount) {
  const CsrMatrix m = random_csr(64, 48, 5.0, 4);
  const auto order = cfs_col_order(m);
  const auto counts = m.col_counts();
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_GE(counts[static_cast<std::size_t>(order[i - 1])],
              counts[static_cast<std::size_t>(order[i])]);
  }
}

TEST(PermuteRows, ReordersRowsExactly) {
  const CsrMatrix m = random_csr(10, 10, 3.0, 5);
  std::vector<index_t> order(10);
  std::iota(order.begin(), order.end(), 0);
  std::reverse(order.begin(), order.end());
  const CsrMatrix p = permute_rows(m, order);
  for (index_t i = 0; i < 10; ++i) {
    EXPECT_EQ(p.row_nnz(i), m.row_nnz(9 - i));
    const auto pc = p.row_cols(i);
    const auto mc = m.row_cols(9 - i);
    EXPECT_TRUE(std::equal(pc.begin(), pc.end(), mc.begin(), mc.end()));
  }
}

TEST(PermuteColumns, PreservesSpmvUnderPermutedInput) {
  // (P_c A)(P_c x) must equal A x: column p of the permuted matrix holds
  // original column order[p], and xp[p] = x[order[p]].
  const CsrMatrix m = random_csr(30, 25, 4.0, 6);
  const auto order = cfs_col_order(m);
  const CsrMatrix pm = permute_columns(m, order);

  const auto x = random_vector(25, 99);
  std::vector<value_t> xp(25);
  for (std::size_t p = 0; p < xp.size(); ++p) {
    xp[p] = x[static_cast<std::size_t>(order[p])];
  }
  std::vector<value_t> y_ref(30), y_perm(30);
  spmv_reference(m, x, y_ref);
  spmv_reference(pm, xp, y_perm);
  expect_vectors_near(y_ref, y_perm);
}

TEST(PermuteColumns, KeepsRowsSorted) {
  const CsrMatrix m = random_csr(15, 20, 3.0, 7);
  const CsrMatrix pm = permute_columns(m, cfs_col_order(m));
  EXPECT_NO_THROW(pm.validate());
}

TEST(SegmentBoundaries, SplitsAtRequestedFraction) {
  // 10 columns with descending counts 10,9,...,1 — total 55.
  std::vector<nnz_t> counts(10);
  for (int i = 0; i < 10; ++i) counts[static_cast<std::size_t>(i)] = 10 - i;
  const auto b = segment_boundaries(counts, {0.7});
  ASSERT_EQ(b.size(), 1u);
  // 10+9+8+7 = 34 < 38.5 <= 10+9+8+7+6 = 40 → boundary after 5 columns.
  EXPECT_EQ(b[0], 5);
}

TEST(SegmentBoundaries, AlwaysLeavesColumnsForLaterSegments) {
  // All mass in the first column: boundary must still leave the tail
  // segment at least one column.
  std::vector<nnz_t> counts = {100, 0, 0, 0};
  const auto b = segment_boundaries(counts, {0.9});
  ASSERT_EQ(b.size(), 1u);
  EXPECT_GE(b[0], 1);
  EXPECT_LE(b[0], 3);
}

TEST(SegmentBoundaries, NoColumnsGivesEmptySegmentsAtZero) {
  // A boundary past the last column would make segments that do not tile
  // [0, ncols), and SrvPackMatrix::validate rejects such a layout.
  EXPECT_EQ(segment_boundaries({}, {0.7}), std::vector<index_t>{0});
  EXPECT_EQ(segment_boundaries({}, {0.5, 0.8}), (std::vector<index_t>{0, 0}));
}

TEST(SegmentBoundaries, RejectsBadFractions) {
  std::vector<nnz_t> counts = {1, 2, 3};
  EXPECT_THROW(segment_boundaries(counts, {0.0}), std::invalid_argument);
  EXPECT_THROW(segment_boundaries(counts, {1.0}), std::invalid_argument);
  EXPECT_THROW(segment_boundaries(counts, {0.8, 0.7}), std::invalid_argument);
}

TEST(SegmentBoundaries, MultipleFractionsAreMonotone) {
  std::vector<nnz_t> counts(100, 1);
  const auto b = segment_boundaries(counts, {0.25, 0.5, 0.75});
  ASSERT_EQ(b.size(), 3u);
  EXPECT_LT(b[0], b[1]);
  EXPECT_LT(b[1], b[2]);
  EXPECT_NEAR(b[0], 25, 1);
  EXPECT_NEAR(b[1], 50, 1);
  EXPECT_NEAR(b[2], 75, 1);
}

}  // namespace
}  // namespace wise
