#include "sparse/csr.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include <omp.h>

#include "sparse/validate_scan.hpp"
#include "util/error.hpp"

namespace wise {

namespace {

/// True when a matrix whose array lengths agree with row_ptr.back() breaks
/// an O(nnz) invariant: row_ptr descends somewhere, a column lies outside
/// [0, ncols), some row's columns do not strictly increase, or a value is
/// NaN or +-Inf. One OpenMP region with no early exit; CsrMatrix::validate
/// names the defect only when this finds one.
///
/// The column tests are flat scans over col_idx, so they vectorize whatever
/// the row lengths. `flat` counts every descent c[k] <= c[k-1] of the whole
/// array plus every out-of-range column; `at_starts` counts the descents at
/// the first nonzero of each nonempty row. With a monotone row_ptr those
/// row starts are distinct positions in 1..nnz-1, so `at_starts` counts a
/// subset of the descents that `flat` counts, each once: the two are equal
/// exactly when every column is in range and every descent sits where one
/// row ends and the next begins, i.e. every row is strictly sorted. A
/// descending row_ptr sets `bad`, which decides the verdict by itself.
bool any_bad_entry(const CsrMatrix& m) {
  const nnz_t* rp = m.row_ptr().data();
  const index_t* ci = m.col_idx().data();
  const value_t* v = m.vals().data();
  const nnz_t nnz = m.nnz();
  const auto n = static_cast<std::int64_t>(m.nrows());
  // c < 0 || c >= ncols in one unsigned compare; |v| <= max is false
  // exactly for NaN and the infinities.
  const auto ncols = static_cast<std::uint32_t>(m.ncols());
  constexpr value_t kMax = std::numeric_limits<value_t>::max();
  nnz_t flat = 0;
  nnz_t at_starts = 0;
  int bad = 0;
  if (nnz > 0) {
    flat = static_cast<std::uint32_t>(ci[0]) >= ncols;
    bad = !(std::fabs(v[0]) <= kMax);
  }
#pragma omp parallel if (nnz >= detail::kParallelScanMin)
  {
#pragma omp for simd schedule(static) reduction(+ : flat) \
    reduction(| : bad) nowait
    for (nnz_t k = 1; k < nnz; ++k) {
      flat += (ci[k] <= ci[k - 1]) +
              (static_cast<std::uint32_t>(ci[k]) >= ncols);
      bad |= !(std::fabs(v[k]) <= kMax);
    }
#pragma omp for schedule(static) reduction(+ : at_starts) \
    reduction(| : bad) nowait
    for (std::int64_t i = 0; i < n; ++i) {
      const nnz_t b = rp[i];
      const nnz_t e = rp[i + 1];
      bad |= e < b;
      const bool row_start = (b > 0) & (b < e) & (b < nnz);
      at_starts += row_start && ci[b] <= ci[b - 1];
    }
  }
  return bad != 0 || flat != at_starts;
}

}  // namespace

CsrMatrix::CsrMatrix(index_t nrows, index_t ncols, std::vector<nnz_t> row_ptr,
                     aligned_vector<index_t> col_idx,
                     aligned_vector<value_t> vals)
    : nrows_(nrows),
      ncols_(ncols),
      row_ptr_(std::move(row_ptr)),
      col_idx_(std::move(col_idx)),
      vals_(std::move(vals)) {
  validate();
}

CsrMatrix CsrMatrix::from_coo(const CooMatrix& coo) {
  coo.validate();
  CooMatrix canon = coo;
  if (!canon.is_canonical()) canon.canonicalize();
  const auto& es = canon.entries();

  CsrMatrix m;
  m.nrows_ = canon.nrows();
  m.ncols_ = canon.ncols();
  m.row_ptr_.assign(static_cast<std::size_t>(m.nrows_) + 1, 0);
  m.col_idx_.resize(es.size());
  m.vals_.resize(es.size());

  for (const auto& e : es) {
    ++m.row_ptr_[static_cast<std::size_t>(e.row) + 1];
  }
  for (std::size_t i = 1; i < m.row_ptr_.size(); ++i) {
    m.row_ptr_[i] += m.row_ptr_[i - 1];
  }
  for (std::size_t k = 0; k < es.size(); ++k) {
    m.col_idx_[k] = es[k].col;
    m.vals_[k] = es[k].val;
  }
  return m;
}

CooMatrix CsrMatrix::to_coo() const {
  CooMatrix coo(nrows_, ncols_);
  coo.entries().reserve(static_cast<std::size_t>(nnz()));
  for (index_t i = 0; i < nrows_; ++i) {
    const auto cols = row_cols(i);
    const auto vals = row_vals(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      coo.add(i, cols[k], vals[k]);
    }
  }
  return coo;
}

CsrMatrix CsrMatrix::transpose() const {
  CsrMatrix t;
  t.nrows_ = ncols_;
  t.ncols_ = nrows_;
  t.row_ptr_.assign(static_cast<std::size_t>(ncols_) + 1, 0);
  t.col_idx_.resize(static_cast<std::size_t>(nnz()));
  t.vals_.resize(static_cast<std::size_t>(nnz()));

  for (nnz_t k = 0; k < nnz(); ++k) {
    ++t.row_ptr_[static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(k)]) + 1];
  }
  for (std::size_t i = 1; i < t.row_ptr_.size(); ++i) {
    t.row_ptr_[i] += t.row_ptr_[i - 1];
  }
  std::vector<nnz_t> cursor(t.row_ptr_.begin(), t.row_ptr_.end() - 1);
  for (index_t i = 0; i < nrows_; ++i) {
    const auto cols = row_cols(i);
    const auto vals = row_vals(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      const auto pos = static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(cols[k])]++);
      t.col_idx_[pos] = i;
      t.vals_[pos] = vals[k];
    }
  }
  return t;
}

std::vector<nnz_t> CsrMatrix::col_counts() const {
  std::vector<nnz_t> counts(static_cast<std::size_t>(ncols_), 0);
  const auto n = static_cast<std::int64_t>(col_idx_.size());
  if (n < (1 << 16) || omp_get_max_threads() <= 1) {
    for (auto c : col_idx_) ++counts[static_cast<std::size_t>(c)];
    return counts;
  }
  // Per-thread histograms merged with ordered integer sums: exact and
  // bit-identical at any thread count.
#pragma omp parallel
  {
    std::vector<nnz_t> local(static_cast<std::size_t>(ncols_), 0);
#pragma omp for nowait schedule(static)
    for (std::int64_t i = 0; i < n; ++i) {
      ++local[static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(i)])];
    }
#pragma omp critical(wise_csr_col_counts_merge)
    for (std::size_t j = 0; j < counts.size(); ++j) counts[j] += local[j];
  }
  return counts;
}

std::vector<nnz_t> CsrMatrix::row_counts() const {
  std::vector<nnz_t> counts(static_cast<std::size_t>(nrows_));
  const nnz_t* rp = row_ptr_.data();
  const auto n = static_cast<std::int64_t>(counts.size());
#pragma omp parallel for schedule(static) if (n > (1 << 16))
  for (std::int64_t i = 0; i < n; ++i) {
    counts[static_cast<std::size_t>(i)] = rp[i + 1] - rp[i];
  }
  return counts;
}

void CsrMatrix::validate() const {
  if (nrows_ < 0 || ncols_ < 0) {
    throw Error(ErrorCategory::kValidation, "CsrMatrix: negative dimensions");
  }
  if (row_ptr_.size() != static_cast<std::size_t>(nrows_) + 1 ||
      row_ptr_.front() != 0) {
    throw Error(ErrorCategory::kValidation, "CsrMatrix: malformed row_ptr");
  }
  // Fast path: when the array lengths agree, one parallel pass says
  // whether anything is bad. Only then do the serial checks below run, in
  // their fixed order, to name the first defect with the message it has
  // always given.
  const nnz_t nnz = row_ptr_.back();
  const nnz_t capacity = static_cast<nnz_t>(nrows_) * ncols_;
  const bool lengths_agree = nnz >= 0 && nnz <= capacity &&
                             col_idx_.size() == static_cast<std::size_t>(nnz) &&
                             vals_.size() == col_idx_.size();
  if (lengths_agree && !any_bad_entry(*this)) return;
  for (std::size_t i = 1; i < row_ptr_.size(); ++i) {
    if (row_ptr_[i] < row_ptr_[i - 1]) {
      throw Error(ErrorCategory::kValidation,
                  "CsrMatrix: row_ptr not monotone at row " +
                      std::to_string(i - 1));
    }
  }
  if (nnz < 0 || nnz > capacity) {
    throw Error(ErrorCategory::kValidation,
                "CsrMatrix: nnz " + std::to_string(nnz) +
                    " overflows rows*cols");
  }
  if (!lengths_agree) {
    throw Error(ErrorCategory::kValidation,
                "CsrMatrix: array length mismatch");
  }
  for (index_t i = 0; i < nrows_; ++i) {
    const auto cols = row_cols(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      if (cols[k] < 0 || cols[k] >= ncols_) {
        throw Error(ErrorCategory::kValidation,
                    "CsrMatrix: column index out of range in row " +
                        std::to_string(i));
      }
      if (k > 0 && cols[k] <= cols[k - 1]) {
        throw Error(ErrorCategory::kValidation,
                    "CsrMatrix: columns not strictly sorted in row " +
                        std::to_string(i));
      }
    }
  }
  for (std::size_t k = 0; k < vals_.size(); ++k) {
    if (!std::isfinite(vals_[k])) {
      throw Error(ErrorCategory::kValidation,
                  "CsrMatrix: non-finite value at nonzero " +
                      std::to_string(k));
    }
  }
}

std::size_t CsrMatrix::memory_bytes() const {
  return row_ptr_.size() * sizeof(nnz_t) + col_idx_.size() * sizeof(index_t) +
         vals_.size() * sizeof(value_t);
}

void spmv_reference(const CsrMatrix& a, std::span<const value_t> x,
                    std::span<value_t> y) {
  if (x.size() != static_cast<std::size_t>(a.ncols()) ||
      y.size() != static_cast<std::size_t>(a.nrows())) {
    throw std::invalid_argument("spmv_reference: dimension mismatch");
  }
  for (index_t i = 0; i < a.nrows(); ++i) {
    const auto cols = a.row_cols(i);
    const auto vals = a.row_vals(i);
    value_t acc = 0;
    for (std::size_t k = 0; k < cols.size(); ++k) {
      acc += vals[k] * x[static_cast<std::size_t>(cols[k])];
    }
    y[static_cast<std::size_t>(i)] = acc;
  }
}

}  // namespace wise
