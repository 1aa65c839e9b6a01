// Tests for the COO/CSR substrate and Matrix Market I/O.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "sparse/mmio.hpp"
#include "test_util.hpp"
#include "util/error.hpp"

namespace wise {
namespace {

using testing::expect_vectors_near;
using testing::random_csr;
using testing::random_vector;

TEST(Coo, CanonicalizeSortsAndMergesDuplicates) {
  CooMatrix coo(3, 3);
  coo.add(2, 1, 1.0);
  coo.add(0, 0, 2.0);
  coo.add(2, 1, 3.0);
  coo.add(0, 2, 4.0);
  coo.canonicalize();
  ASSERT_EQ(coo.nnz(), 3);
  EXPECT_TRUE(coo.is_canonical());
  EXPECT_EQ(coo.entries()[0], (Triplet{0, 0, 2.0}));
  EXPECT_EQ(coo.entries()[1], (Triplet{0, 2, 4.0}));
  EXPECT_EQ(coo.entries()[2], (Triplet{2, 1, 4.0}));  // 1.0 + 3.0 merged
}

TEST(Coo, CanonicalizeKeepsExactZeroSums) {
  CooMatrix coo(2, 2);
  coo.add(0, 0, 1.0);
  coo.add(0, 0, -1.0);
  coo.canonicalize();
  ASSERT_EQ(coo.nnz(), 1);  // structural nonzero with stored value 0
  EXPECT_EQ(coo.entries()[0].val, 0.0);
}

TEST(Coo, ValidateRejectsOutOfRange) {
  CooMatrix coo(2, 2);
  coo.add(2, 0, 1.0);
  EXPECT_THROW(coo.validate(), Error);
  CooMatrix coo2(2, 2);
  coo2.add(0, -1, 1.0);
  EXPECT_THROW(coo2.validate(), Error);
}

TEST(Coo, ValidateRejectsNonFiniteValues) {
  CooMatrix coo(2, 2);
  coo.add(0, 0, std::numeric_limits<value_t>::quiet_NaN());
  try {
    coo.validate();
    FAIL() << "expected wise::Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kValidation);
  }
}

TEST(Coo, IsCanonicalDetectsUnsortedAndDuplicates) {
  CooMatrix coo(2, 2);
  coo.add(1, 0, 1.0);
  coo.add(0, 0, 1.0);
  EXPECT_FALSE(coo.is_canonical());
  CooMatrix dup(2, 2);
  dup.add(0, 0, 1.0);
  dup.add(0, 0, 1.0);
  EXPECT_FALSE(dup.is_canonical());
}

TEST(Csr, FromCooBuildsCorrectArrays) {
  CooMatrix coo(3, 4);
  coo.add(0, 1, 1.0);
  coo.add(0, 3, 2.0);
  coo.add(2, 0, 3.0);
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  EXPECT_EQ(m.nrows(), 3);
  EXPECT_EQ(m.ncols(), 4);
  EXPECT_EQ(m.nnz(), 3);
  EXPECT_EQ(m.row_nnz(0), 2);
  EXPECT_EQ(m.row_nnz(1), 0);
  EXPECT_EQ(m.row_nnz(2), 1);
  EXPECT_EQ(m.row_cols(0)[0], 1);
  EXPECT_EQ(m.row_cols(0)[1], 3);
  EXPECT_EQ(m.row_vals(2)[0], 3.0);
}

TEST(Csr, RoundTripsThroughCoo) {
  const CsrMatrix m = random_csr(50, 40, 5.0, 1);
  const CsrMatrix back = CsrMatrix::from_coo(m.to_coo());
  EXPECT_EQ(m, back);
}

TEST(Csr, TransposeTwiceIsIdentity) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const CsrMatrix m = random_csr(60, 30, 4.0, seed);
    EXPECT_EQ(m, m.transpose().transpose()) << "seed " << seed;
  }
}

TEST(Csr, TransposeSwapsCoordinates) {
  CooMatrix coo(2, 3);
  coo.add(0, 2, 5.0);
  const CsrMatrix t = CsrMatrix::from_coo(coo).transpose();
  EXPECT_EQ(t.nrows(), 3);
  EXPECT_EQ(t.ncols(), 2);
  EXPECT_EQ(t.row_nnz(2), 1);
  EXPECT_EQ(t.row_cols(2)[0], 0);
  EXPECT_EQ(t.row_vals(2)[0], 5.0);
}

TEST(Csr, ColCountsMatchTransposeRowCounts) {
  const CsrMatrix m = random_csr(40, 70, 6.0, 9);
  const CsrMatrix t = m.transpose();
  const auto counts = m.col_counts();
  for (index_t j = 0; j < m.ncols(); ++j) {
    EXPECT_EQ(counts[static_cast<std::size_t>(j)], t.row_nnz(j));
  }
}

TEST(Csr, ValidateCatchesCorruptMatrices) {
  // Non-monotone row_ptr.
  EXPECT_THROW(CsrMatrix(2, 2, {0, 2, 1}, {0, 1}, {1.0, 1.0}), Error);
  // Column out of range.
  EXPECT_THROW(CsrMatrix(1, 2, {0, 1}, {5}, {1.0}), Error);
  // Unsorted columns within a row.
  EXPECT_THROW(CsrMatrix(1, 3, {0, 2}, {2, 1}, {1.0, 1.0}), Error);
  // Length mismatch.
  EXPECT_THROW(CsrMatrix(1, 3, {0, 2}, {0, 1}, {1.0}), Error);
  // Non-finite value.
  EXPECT_THROW(
      CsrMatrix(1, 2, {0, 1}, {0},
                {std::numeric_limits<value_t>::infinity()}),
      Error);
}

/// A banded CSR with nine nonzeros per row, large enough (36864 nonzeros)
/// for validate()'s parallel fast pass; copied and corrupted by the
/// error-identity tests below.
struct RawCsr {
  static constexpr index_t kN = 4096;
  static constexpr index_t kPerRow = 9;
  std::vector<nnz_t> row_ptr;
  aligned_vector<index_t> cols;
  aligned_vector<value_t> vals;

  RawCsr() {
    row_ptr.push_back(0);
    for (index_t i = 0; i < kN; ++i) {
      const index_t c0 = std::min(i, kN - kPerRow);
      for (index_t j = 0; j < kPerRow; ++j) {
        cols.push_back(c0 + j);
        vals.push_back(1.0 + 0.001 * static_cast<double>(j));
      }
      row_ptr.push_back(static_cast<nnz_t>(cols.size()));
    }
  }
  /// Position of the k-th nonzero of row i.
  std::size_t at(index_t i, index_t k) const {
    return static_cast<std::size_t>(row_ptr[static_cast<std::size_t>(i)] + k);
  }
  /// The message of the error that construction throws, or "" if none.
  std::string error() const {
    try {
      CsrMatrix(kN, kN, row_ptr, cols, vals);
    } catch (const Error& e) {
      EXPECT_EQ(e.category(), ErrorCategory::kValidation);
      return e.message();
    }
    return "";
  }
};

TEST(Csr, ValidateFastPathKeepsSerialErrorMessages) {
  const index_t last = RawCsr::kN - 1;
  const value_t nan = std::numeric_limits<value_t>::quiet_NaN();
  const value_t inf = std::numeric_limits<value_t>::infinity();
  ASSERT_EQ(RawCsr().error(), "");
  for (const index_t row : {index_t{0}, RawCsr::kN / 2, last}) {
    SCOPED_TRACE("defect in row " + std::to_string(row));
    const std::string in_row = " in row " + std::to_string(row);
    struct Defect {
      const char* name;
      std::function<void(RawCsr&)> apply;
      std::string message;
    };
    const std::size_t mid = RawCsr().at(row, 4);
    const std::vector<Defect> defects = {
        {"column < 0", [&](RawCsr& r) { r.cols[r.at(row, 0)] = -1; },
         "CsrMatrix: column index out of range" + in_row},
        {"column >= ncols",
         [&](RawCsr& r) { r.cols[r.at(row, 8)] = RawCsr::kN; },
         "CsrMatrix: column index out of range" + in_row},
        {"duplicate column",
         [&](RawCsr& r) { r.cols[r.at(row, 4)] = r.cols[r.at(row, 3)]; },
         "CsrMatrix: columns not strictly sorted" + in_row},
        {"descending column",
         [&](RawCsr& r) {
           std::swap(r.cols[r.at(row, 3)], r.cols[r.at(row, 4)]);
         },
         "CsrMatrix: columns not strictly sorted" + in_row},
        {"NaN", [&](RawCsr& r) { r.vals[mid] = nan; },
         "CsrMatrix: non-finite value at nonzero " + std::to_string(mid)},
        {"+Inf", [&](RawCsr& r) { r.vals[mid] = inf; },
         "CsrMatrix: non-finite value at nonzero " + std::to_string(mid)},
    };
    for (const Defect& d : defects) {
      RawCsr r;
      d.apply(r);
      EXPECT_EQ(r.error(), d.message) << d.name;
    }
  }
}

TEST(Csr, ValidateReportsTheFirstOfTwoDefects) {
  // Same kind: the lower row (or nonzero) is named.
  RawCsr sorted;
  std::swap(sorted.cols[sorted.at(3000, 1)], sorted.cols[sorted.at(3000, 2)]);
  std::swap(sorted.cols[sorted.at(17, 5)], sorted.cols[sorted.at(17, 6)]);
  EXPECT_EQ(sorted.error(), "CsrMatrix: columns not strictly sorted in row 17");
  RawCsr finite;
  finite.vals[finite.at(2000, 0)] = std::numeric_limits<value_t>::infinity();
  finite.vals[finite.at(40, 2)] = std::numeric_limits<value_t>::quiet_NaN();
  EXPECT_EQ(finite.error(), "CsrMatrix: non-finite value at nonzero " +
                                std::to_string(finite.at(40, 2)));
  // Mixed: the column scan precedes the value scan, so a bad column in the
  // last row is reported before a NaN in the first.
  RawCsr mixed;
  mixed.vals[0] = std::numeric_limits<value_t>::quiet_NaN();
  mixed.cols[mixed.at(RawCsr::kN - 1, 8)] = RawCsr::kN + 5;
  EXPECT_EQ(mixed.error(), "CsrMatrix: column index out of range in row " +
                               std::to_string(RawCsr::kN - 1));
}

TEST(Csr, EmptyMatrixIsValid) {
  const CsrMatrix m;
  EXPECT_EQ(m.nrows(), 0);
  EXPECT_EQ(m.nnz(), 0);
}

TEST(Csr, MemoryBytesCountsAllArrays) {
  const CsrMatrix m = random_csr(10, 10, 3.0, 4);
  const std::size_t expected = 11 * sizeof(nnz_t) +
                               static_cast<std::size_t>(m.nnz()) *
                                   (sizeof(index_t) + sizeof(value_t));
  EXPECT_EQ(m.memory_bytes(), expected);
}

TEST(SpmvReference, ComputesKnownProduct) {
  CooMatrix coo(2, 3);
  coo.add(0, 0, 1.0);
  coo.add(0, 2, 2.0);
  coo.add(1, 1, 3.0);
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  const std::vector<value_t> x = {1.0, 2.0, 3.0};
  std::vector<value_t> y(2);
  spmv_reference(m, x, y);
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(y[1], 6.0);
}

TEST(SpmvReference, RejectsDimensionMismatch) {
  const CsrMatrix m = random_csr(4, 5, 2.0, 2);
  std::vector<value_t> x(4), y(4);
  EXPECT_THROW(spmv_reference(m, x, y), std::invalid_argument);
}

// ---------------------------------------------------------------- mmio ----

TEST(Mmio, ParsesGeneralRealMatrix) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "% a comment\n"
      "3 3 2\n"
      "1 1 1.5\n"
      "3 2 -2.0\n");
  const CooMatrix coo = read_matrix_market(in);
  EXPECT_EQ(coo.nrows(), 3);
  EXPECT_EQ(coo.nnz(), 2);
  EXPECT_EQ(coo.entries()[0], (Triplet{0, 0, 1.5}));
  EXPECT_EQ(coo.entries()[1], (Triplet{2, 1, -2.0}));
}

TEST(Mmio, ExpandsSymmetricStorage) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "3 3 2\n"
      "2 1 4.0\n"
      "3 3 1.0\n");
  const CooMatrix coo = read_matrix_market(in);
  EXPECT_EQ(coo.nnz(), 3);  // off-diagonal mirrored, diagonal not duplicated
  EXPECT_EQ(coo.entries()[0], (Triplet{0, 1, 4.0}));
  EXPECT_EQ(coo.entries()[1], (Triplet{1, 0, 4.0}));
}

TEST(Mmio, ExpandsSkewSymmetricWithNegation) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real skew-symmetric\n"
      "2 2 1\n"
      "2 1 3.0\n");
  const CooMatrix coo = read_matrix_market(in);
  ASSERT_EQ(coo.nnz(), 2);
  EXPECT_EQ(coo.entries()[0], (Triplet{0, 1, -3.0}));
  EXPECT_EQ(coo.entries()[1], (Triplet{1, 0, 3.0}));
}

TEST(Mmio, PatternEntriesGetUnitValues) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 1\n"
      "1 2\n");
  const CooMatrix coo = read_matrix_market(in);
  EXPECT_EQ(coo.entries()[0], (Triplet{0, 1, 1.0}));
}

TEST(Mmio, ParsesIntegerField) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate integer general\n"
      "1 1 1\n"
      "1 1 7\n");
  EXPECT_EQ(read_matrix_market(in).entries()[0].val, 7.0);
}

TEST(Mmio, RejectsMalformedInput) {
  std::istringstream bad_banner("%%NotMM matrix coordinate real general\n");
  EXPECT_THROW(read_matrix_market(bad_banner), std::runtime_error);

  std::istringstream complex_field(
      "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n");
  EXPECT_THROW(read_matrix_market(complex_field), std::runtime_error);

  std::istringstream array_fmt("%%MatrixMarket matrix array real general\n");
  EXPECT_THROW(read_matrix_market(array_fmt), std::runtime_error);

  std::istringstream oob(
      "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n");
  EXPECT_THROW(read_matrix_market(oob), std::runtime_error);

  std::istringstream truncated(
      "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n");
  EXPECT_THROW(read_matrix_market(truncated), std::runtime_error);
}

TEST(Mmio, WriteReadRoundTrip) {
  const CsrMatrix m = random_csr(20, 25, 3.0, 7);
  std::stringstream buf;
  write_matrix_market(buf, m.to_coo());
  const CooMatrix back = read_matrix_market(buf);
  EXPECT_EQ(CsrMatrix::from_coo(back), m);
}

}  // namespace
}  // namespace wise
