#include "sparse/dia.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/error.hpp"

namespace wise {

namespace {

/// Number of in-band cells on diagonal `off` of an nrows x ncols matrix:
/// rows i with 0 <= i + off < ncols.
nnz_t diagonal_length(index_t nrows, index_t ncols, std::int64_t off) {
  const std::int64_t lo = std::max<std::int64_t>(0, -off);
  const std::int64_t hi =
      std::min<std::int64_t>(nrows, static_cast<std::int64_t>(ncols) - off);
  return hi > lo ? static_cast<nnz_t>(hi - lo) : 0;
}

}  // namespace

DiaAnalysis DiaMatrix::analyze(const CsrMatrix& m) {
  DiaAnalysis a;
  if (m.nnz() == 0) {
    a.accepted = true;
    a.fill = 0.0;
    return a;
  }

  const auto vals = m.vals();
  for (std::size_t k = 0; k < vals.size(); ++k) {
    if (vals[k] == 0.0) {
      a.reason = "explicit stored zero (indistinguishable from fill)";
      return a;
    }
  }
  // One bit per possible offset, shifted by nrows-1 to make it an index.
  std::vector<char> seen(
      static_cast<std::size_t>(m.nrows()) + static_cast<std::size_t>(m.ncols()),
      0);
  for (index_t i = 0; i < m.nrows(); ++i) {
    for (const index_t c : m.row_cols(i)) {
      seen[static_cast<std::size_t>(
          static_cast<std::int64_t>(c) - i + m.nrows() - 1)] = 1;
    }
  }

  nnz_t in_band = 0;
  for (std::size_t s = 0; s < seen.size(); ++s) {
    if (!seen[s]) continue;
    const std::int64_t off = static_cast<std::int64_t>(s) - (m.nrows() - 1);
    // A scattered matrix touches O(nrows) diagonals; keep only as many
    // offsets as an accepted matrix can have.
    if (++a.ndiags <= kDiaMaxDiagonals) a.offsets.push_back(off);
    in_band += diagonal_length(m.nrows(), m.ncols(), off);
  }
  a.fill = static_cast<double>(m.nnz()) / static_cast<double>(in_band);

  if (a.ndiags > kDiaMaxDiagonals) {
    a.reason = "too many populated diagonals";
    a.offsets.clear();
    return a;
  }
  if (a.fill < kDiaMinFillRatio) {
    a.reason = "diagonal fill ratio below threshold";
    return a;
  }
  a.accepted = true;
  return a;
}

DiaMatrix DiaMatrix::from_csr(const CsrMatrix& m) {
  DiaAnalysis a = analyze(m);
  if (!a.accepted) {
    throw std::invalid_argument(
        std::string("DiaMatrix: ") + a.reason + " (diagonals " +
        std::to_string(a.ndiags) + ", fill " + std::to_string(a.fill) + ")");
  }

  DiaMatrix d;
  d.nrows_ = m.nrows();
  d.ncols_ = m.ncols();
  d.nnz_ = m.nnz();
  d.offsets_ = std::move(a.offsets);

  const std::size_t n = static_cast<std::size_t>(d.nrows_);
  d.vals_.assign(d.offsets_.size() * n, 0.0);
  for (index_t i = 0; i < m.nrows(); ++i) {
    const auto cols = m.row_cols(i);
    const auto vals = m.row_vals(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      const std::int64_t off = static_cast<std::int64_t>(cols[k]) - i;
      const auto di = static_cast<std::size_t>(
          std::lower_bound(d.offsets_.begin(), d.offsets_.end(), off) -
          d.offsets_.begin());
      d.vals_[di * n + static_cast<std::size_t>(i)] = vals[k];
    }
  }

  d.lane_dense_.assign(d.offsets_.size(), 0);
  for (std::size_t di = 0; di < d.offsets_.size(); ++di) {
    const std::int64_t off = d.offsets_[di];
    nnz_t filled = 0;
    const std::int64_t lo = std::max<std::int64_t>(0, -off);
    const std::int64_t hi = std::min<std::int64_t>(
        d.nrows_, static_cast<std::int64_t>(d.ncols_) - off);
    for (std::int64_t i = lo; i < hi; ++i) {
      if (d.vals_[di * n + static_cast<std::size_t>(i)] != 0.0) ++filled;
    }
    d.lane_dense_[di] =
        filled == diagonal_length(d.nrows_, d.ncols_, off) ? 1 : 0;
  }
  return d;
}

CooMatrix DiaMatrix::to_coo() const {
  CooMatrix coo(nrows_, ncols_);
  coo.entries().reserve(static_cast<std::size_t>(nnz_));
  const std::size_t n = static_cast<std::size_t>(nrows_);
  for (index_t i = 0; i < nrows_; ++i) {
    for (std::size_t di = 0; di < offsets_.size(); ++di) {
      const std::int64_t col = i + offsets_[di];
      if (col < 0 || col >= ncols_) continue;
      const value_t v = vals_[di * n + static_cast<std::size_t>(i)];
      if (v != 0.0) coo.add(i, static_cast<index_t>(col), v);
    }
  }
  return coo;
}

void DiaMatrix::validate() const {
  if (nrows_ < 0 || ncols_ < 0) {
    throw Error(ErrorCategory::kValidation, "DiaMatrix: negative dimensions");
  }
  const std::size_t n = static_cast<std::size_t>(nrows_);
  if (vals_.size() != offsets_.size() * n ||
      lane_dense_.size() != offsets_.size()) {
    throw Error(ErrorCategory::kValidation,
                "DiaMatrix: lane array length mismatch");
  }
  for (std::size_t di = 0; di < offsets_.size(); ++di) {
    const std::int64_t off = offsets_[di];
    if (off <= -static_cast<std::int64_t>(nrows_) ||
        off >= static_cast<std::int64_t>(ncols_)) {
      throw Error(ErrorCategory::kValidation,
                  "DiaMatrix: offset " + std::to_string(off) +
                      " outside the band");
    }
    if (di > 0 && off <= offsets_[di - 1]) {
      throw Error(ErrorCategory::kValidation,
                  "DiaMatrix: offsets not strictly ascending");
    }
  }
  nnz_t counted = 0;
  for (std::size_t di = 0; di < offsets_.size(); ++di) {
    const std::int64_t off = offsets_[di];
    nnz_t filled = 0;
    for (index_t i = 0; i < nrows_; ++i) {
      const value_t v = vals_[di * n + static_cast<std::size_t>(i)];
      const std::int64_t col = i + off;
      if (col < 0 || col >= ncols_) {
        if (v != 0.0) {
          throw Error(ErrorCategory::kValidation,
                      "DiaMatrix: dirty out-of-band cell on diagonal " +
                          std::to_string(off));
        }
        continue;
      }
      if (!std::isfinite(v)) {
        throw Error(ErrorCategory::kValidation,
                    "DiaMatrix: non-finite value on diagonal " +
                        std::to_string(off));
      }
      if (v != 0.0) {
        ++counted;
        ++filled;
      }
    }
    const bool dense = filled == diagonal_length(nrows_, ncols_, off);
    if (dense != (lane_dense_[di] != 0)) {
      throw Error(ErrorCategory::kValidation,
                  "DiaMatrix: stale lane_dense flag on diagonal " +
                      std::to_string(off));
    }
  }
  if (counted != nnz_) {
    throw Error(ErrorCategory::kValidation,
                "DiaMatrix: nnz " + std::to_string(nnz_) +
                    " does not match populated cells (" +
                    std::to_string(counted) + ")");
  }
}

std::size_t DiaMatrix::memory_bytes() const {
  return offsets_.size() * sizeof(std::int64_t) +
         lane_dense_.size() * sizeof(char) + vals_.size() * sizeof(value_t);
}

}  // namespace wise
