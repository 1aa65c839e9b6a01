// Tests for the COO/CSR substrate and Matrix Market I/O.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "sparse/mmio.hpp"
#include "sparse/validate_scan.hpp"
#include "test_util.hpp"
#include "util/error.hpp"
#include "util/prng.hpp"

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

/// A CSR given row by row (all values 1), for the edge cases of
/// validate()'s flat column check: empty rows, single-nonzero rows and
/// descents where one row ends and the next begins.
struct RowsCsr {
  index_t ncols = 0;
  std::vector<nnz_t> row_ptr{0};
  aligned_vector<index_t> cols;
  aligned_vector<value_t> vals;

  RowsCsr(index_t nc, const std::vector<std::vector<index_t>>& rows)
      : ncols(nc) {
    for (const auto& r : rows) add_row(r);
  }
  void add_row(const std::vector<index_t>& r) {
    for (const index_t c : r) {
      cols.push_back(c);
      vals.push_back(1.0);
    }
    row_ptr.push_back(static_cast<nnz_t>(cols.size()));
  }
  index_t nrows() const { return static_cast<index_t>(row_ptr.size() - 1); }
  nnz_t nnz() const { return row_ptr.back(); }
  /// The message of the error that construction throws, or "" if none.
  std::string error() const {
    try {
      CsrMatrix(nrows(), ncols, row_ptr, cols, vals);
    } catch (const Error& e) {
      EXPECT_EQ(e.category(), ErrorCategory::kValidation);
      return e.message();
    }
    return "";
  }
  /// The plain serial reading of the column and value invariants: the
  /// message of the first defect in row order, or "" when there is none.
  std::string serial_verdict() const {
    for (index_t i = 0; i < nrows(); ++i) {
      const auto b = row_ptr[static_cast<std::size_t>(i)];
      const auto e = row_ptr[static_cast<std::size_t>(i) + 1];
      for (nnz_t k = b; k < e; ++k) {
        const index_t c = cols[static_cast<std::size_t>(k)];
        if (c < 0 || c >= ncols) {
          return "CsrMatrix: column index out of range in row " +
                 std::to_string(i);
        }
        if (k > b && c <= cols[static_cast<std::size_t>(k) - 1]) {
          return "CsrMatrix: columns not strictly sorted in row " +
                 std::to_string(i);
        }
      }
    }
    for (std::size_t k = 0; k < vals.size(); ++k) {
      if (!std::isfinite(vals[k])) {
        return "CsrMatrix: non-finite value at nonzero " + std::to_string(k);
      }
    }
    return "";
  }
};

const std::string kUnsorted = "CsrMatrix: columns not strictly sorted in row ";
const std::string kOutOfRange = "CsrMatrix: column index out of range in row ";

TEST(Csr, FlatColumnCheckAcceptsDescentsBetweenRows) {
  const std::vector<std::pair<const char*, RowsCsr>> valid = {
      {"descent at a row start after empty rows",
       RowsCsr(8, {{5, 6}, {}, {}, {1, 2}})},
      {"same column ends one row and starts the next nonempty row",
       RowsCsr(8, {{1, 3}, {}, {3, 4}})},
      {"single-nonzero rows, descending and repeated",
       RowsCsr(8, {{7}, {6}, {6}, {}, {0}, {7}})},
      {"leading empty rows", RowsCsr(8, {{}, {}, {3}, {2, 7}})},
      {"trailing empty rows", RowsCsr(8, {{4, 5}, {0}, {}, {}})},
      {"one nonzero", RowsCsr(1, {{}, {0}})},
  };
  for (const auto& [name, r] : valid) {
    EXPECT_EQ(r.error(), "") << name;
    EXPECT_EQ(r.serial_verdict(), "") << name;
  }
}

TEST(Csr, FlatColumnCheckNamesTheRowOfEachDefect) {
  const std::vector<std::tuple<const char*, RowsCsr, std::string>> invalid = {
      {"duplicate in the first row after an empty row",
       RowsCsr(8, {{1, 2}, {}, {4, 4}}), kUnsorted + "2"},
      {"descent in the first row after empty rows",
       RowsCsr(8, {{1, 2}, {}, {}, {5, 3}}), kUnsorted + "3"},
      {"descent in a first row that starts at 0",
       RowsCsr(8, {{}, {}, {2, 1}, {0}}), kUnsorted + "2"},
      {"descent after a cross-row descent",
       RowsCsr(8, {{6, 7}, {0, 1, 1}}), kUnsorted + "1"},
      {"single nonzero >= ncols", RowsCsr(8, {{3}, {8}}), kOutOfRange + "1"},
      {"single nonzero < 0", RowsCsr(8, {{-1}}), kOutOfRange + "0"},
      {"out of range at the last nonzero", RowsCsr(8, {{0, 1}, {}, {2, 9}}),
       kOutOfRange + "2"},
      {"out of range with every row sorted", RowsCsr(4, {{0, 5}}),
       kOutOfRange + "0"},
  };
  for (const auto& [name, r, message] : invalid) {
    EXPECT_EQ(r.serial_verdict(), message) << name;
    EXPECT_EQ(r.error(), message) << name;
  }
}

/// A valid matrix of exactly `nnz` nonzeros. Its row lengths cycle through
/// {0, 2, 1, 1, 0, 0, 3, 5}, so it holds empty rows, single-nonzero rows,
/// rows of two or more right after empty ones (rows 1 and 6), and a
/// descent at most row starts.
RowsCsr cycling_rows(nnz_t nnz, index_t ncols) {
  constexpr index_t kLens[] = {0, 2, 1, 1, 0, 0, 3, 5};
  RowsCsr r(ncols, {});
  for (index_t i = 0; r.nnz() < nnz; ++i) {
    const auto len = static_cast<index_t>(
        std::min<nnz_t>(kLens[i % 8], nnz - r.nnz()));
    const index_t c0 = (i * 37) % (ncols - len);
    std::vector<index_t> row(static_cast<std::size_t>(len));
    for (index_t j = 0; j < len; ++j) row[static_cast<std::size_t>(j)] = c0 + j;
    r.add_row(row);
  }
  return r;
}

TEST(Csr, FlatColumnCheckAroundTheParallelThreshold) {
  for (const nnz_t nnz :
       {detail::kParallelScanMin - 1, detail::kParallelScanMin,
        detail::kParallelScanMin + 1}) {
    SCOPED_TRACE("nnz " + std::to_string(nnz));
    const RowsCsr base = cycling_rows(nnz, 1000);
    ASSERT_EQ(base.nnz(), nnz);
    ASSERT_EQ(base.error(), "");
    index_t last = base.nrows() - 1;
    while (base.row_ptr[static_cast<std::size_t>(last)] == base.nnz()) --last;
    const auto start = [&](index_t i) {
      return static_cast<std::size_t>(base.row_ptr[static_cast<std::size_t>(i)]);
    };
    // An empty message means: whatever the serial predicate says.
    const std::vector<std::pair<std::function<void(RowsCsr&)>, std::string>>
        defects = {
            {[&](RowsCsr& r) { r.cols[start(6) + 1] = r.cols[start(6)]; },
             kUnsorted + "6"},
            {[&](RowsCsr& r) { std::swap(r.cols[0], r.cols[1]); },
             kUnsorted + "1"},
            {[&](RowsCsr& r) { r.cols[0] = -1; },
             kOutOfRange + std::to_string(1)},
            {[&](RowsCsr& r) { r.cols.back() = 1000; },
             kOutOfRange + std::to_string(last)},
            {[&](RowsCsr& r) {
               r.cols[static_cast<std::size_t>(nnz) - 1] =
                   r.cols[static_cast<std::size_t>(nnz) - 2] - 1;
             },
             ""},
        };
    for (const auto& [apply, message] : defects) {
      RowsCsr r = base;
      apply(r);
      const std::string expected = r.serial_verdict();
      if (!message.empty()) {
        EXPECT_EQ(expected, message);
      }
      EXPECT_EQ(r.error(), expected);
    }
  }
}

TEST(Csr, ValidateFastPathCatchesADescendingRowPtr) {
  // The array lengths agree with row_ptr.back(), so only the parallel pass
  // can see the descent; the serial loop then names it. Row 1 of the
  // second case points past nnz and must not be read as a row start.
  RowsCsr small(8, {{0, 1}, {}, {}});
  small.row_ptr = {0, 5, 2, 2};
  EXPECT_EQ(small.error(), "CsrMatrix: row_ptr not monotone at row 1");
  small.row_ptr = {0, 5, 7, 2};
  EXPECT_EQ(small.error(), "CsrMatrix: row_ptr not monotone at row 2");
  for (const nnz_t nnz :
       {detail::kParallelScanMin - 1, detail::kParallelScanMin + 1}) {
    RowsCsr r = cycling_rows(nnz, 1000);
    r.row_ptr[10] = r.row_ptr[11] + 1;
    EXPECT_EQ(r.error(), "CsrMatrix: row_ptr not monotone at row 10");
    r.row_ptr[10] = r.nnz() + 7;
    EXPECT_EQ(r.error(), "CsrMatrix: row_ptr not monotone at row 10");
  }
}

TEST(Csr, FlatColumnCheckMatchesASerialPredicateOnSeededCorruptions) {
  // Two bases: one below kParallelScanMin and one above it, each with
  // empty and single-nonzero rows. Every trial corrupts one or two
  // nonzeros; validate() must throw exactly when the serial predicate
  // finds a defect, with the same message.
  Xoshiro256 rng(20231001);
  const auto random_base = [&](index_t nrows, index_t ncols, int max_len) {
    RowsCsr r(ncols, {});
    for (index_t i = 0; i < nrows; ++i) {
      const auto len = static_cast<index_t>(
          rng.next_below(static_cast<std::uint64_t>(max_len) + 1));
      std::vector<index_t> row;
      for (index_t j = 0; j < len; ++j) {
        row.push_back(static_cast<index_t>(
            rng.next_below(static_cast<std::uint64_t>(ncols))));
      }
      std::sort(row.begin(), row.end());
      row.erase(std::unique(row.begin(), row.end()), row.end());
      r.add_row(row);
    }
    return r;
  };
  const RowsCsr small = random_base(300, 40, 5);
  const RowsCsr large = random_base(6000, 3000, 12);
  ASSERT_LT(small.nnz(), detail::kParallelScanMin);
  ASSERT_GE(large.nnz(), detail::kParallelScanMin);
  ASSERT_EQ(small.error(), "");
  ASSERT_EQ(large.error(), "");

  int invalid = 0;
  constexpr int kTrials = 1200;
  for (int t = 0; t < kTrials; ++t) {
    RowsCsr r = (t % 2 == 0) ? small : large;
    const auto n = static_cast<std::uint64_t>(r.nnz());
    const int edits = 1 + static_cast<int>(rng.next_below(4) == 0);
    for (int e = 0; e < edits; ++e) {
      const auto p = static_cast<std::size_t>(rng.next_below(n));
      index_t& c = r.cols[p];
      switch (rng.next_below(5)) {
        case 0:  // out of range, low
          c = rng.next_below(2) ? std::numeric_limits<index_t>::min()
                                : -1 - static_cast<index_t>(rng.next_below(5));
          break;
        case 1:  // out of range, high
          c = rng.next_below(2) ? std::numeric_limits<index_t>::max()
                                : r.ncols +
                                      static_cast<index_t>(rng.next_below(5));
          break;
        case 2:  // duplicate of the previous nonzero (maybe across rows)
          if (p > 0) c = r.cols[p - 1];
          break;
        case 3:  // adjacent swap (maybe across rows)
          if (p + 1 < r.cols.size()) std::swap(c, r.cols[p + 1]);
          break;
        default:  // random overwrite inside the column range
          c = static_cast<index_t>(
              rng.next_below(static_cast<std::uint64_t>(r.ncols)));
          break;
      }
    }
    const std::string expected = r.serial_verdict();
    invalid += !expected.empty();
    ASSERT_EQ(r.error(), expected) << "trial " << t;
  }
  // The corruptions must exercise both verdicts.
  EXPECT_GT(invalid, kTrials / 2);
  EXPECT_LT(invalid, kTrials);
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
