#include "sparse/transforms.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace wise {

void validate_permutation(const std::vector<index_t>& perm, index_t n) {
  if (perm.size() != static_cast<std::size_t>(n)) {
    throw std::invalid_argument("permutation: wrong length");
  }
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  for (index_t p : perm) {
    if (p < 0 || p >= n || seen[static_cast<std::size_t>(p)]) {
      throw std::invalid_argument("permutation: not a bijection on [0,n)");
    }
    seen[static_cast<std::size_t>(p)] = true;
  }
}

std::vector<index_t> invert_permutation(const std::vector<index_t>& perm) {
  std::vector<index_t> inv(perm.size());
  for (std::size_t p = 0; p < perm.size(); ++p) {
    inv[static_cast<std::size_t>(perm[p])] = static_cast<index_t>(p);
  }
  return inv;
}

namespace {

/// Writes rows [begin, end) to `out` by descending length, ties in row
/// order: a counting sort over the window's length range. That range is at
/// most the window's longest row, so over all windows the sort costs
/// O(rows + nonzeros) at worst.
void sort_window(std::span<const nnz_t> row_len, index_t begin, index_t end,
                 index_t* out) {
  const auto len = [row_len](index_t r) {
    return row_len[static_cast<std::size_t>(r)];
  };
  const auto [lo, hi] =
      std::minmax_element(row_len.begin() + begin, row_len.begin() + end);
  // next[d] is the output slot of the next row whose length is *hi - d.
  std::vector<index_t> next(static_cast<std::size_t>(*hi - *lo) + 1, 0);
  for (index_t r = begin; r < end; ++r) {
    const auto d = static_cast<std::size_t>(*hi - len(r));
    if (d + 1 < next.size()) ++next[d + 1];
  }
  std::partial_sum(next.begin(), next.end(), next.begin());
  for (index_t r = begin; r < end; ++r) {
    out[next[static_cast<std::size_t>(*hi - len(r))]++] = r;
  }
}

}  // namespace

std::vector<index_t> sigma_sorted_row_order(std::span<const nnz_t> row_len,
                                            index_t sigma) {
  const auto n = static_cast<index_t>(row_len.size());
  std::vector<index_t> order(static_cast<std::size_t>(n));
  if (sigma <= 1) {
#pragma omp parallel for schedule(static)
    for (index_t i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
    return order;
  }
  const index_t window = std::min(sigma, n);
  const index_t num_windows = n == 0 ? 0 : (n - 1) / window + 1;
#pragma omp parallel for schedule(static) if (num_windows > 1)
  for (index_t w = 0; w < num_windows; ++w) {
    const index_t begin = w * window;
    const index_t end = begin + std::min(window, n - begin);
    sort_window(row_len, begin, end, order.data() + begin);
  }
  return order;
}

std::vector<index_t> cfs_col_order(const CsrMatrix& m) {
  const auto counts = m.col_counts();
  std::vector<index_t> order(counts.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&counts](index_t a, index_t b) {
                     return counts[static_cast<std::size_t>(a)] >
                            counts[static_cast<std::size_t>(b)];
                   });
  return order;
}

CsrMatrix permute_columns(const CsrMatrix& m,
                          const std::vector<index_t>& col_order) {
  validate_permutation(col_order, m.ncols());
  const auto inv = invert_permutation(col_order);

  std::vector<nnz_t> row_ptr(m.row_ptr().begin(), m.row_ptr().end());
  aligned_vector<index_t> col_idx(static_cast<std::size_t>(m.nnz()));
  aligned_vector<value_t> vals(static_cast<std::size_t>(m.nnz()));

  for (index_t i = 0; i < m.nrows(); ++i) {
    const auto cols = m.row_cols(i);
    const auto rvals = m.row_vals(i);
    // Renumber, then re-sort the row by the new column ids.
    std::vector<std::pair<index_t, value_t>> entries(cols.size());
    for (std::size_t k = 0; k < cols.size(); ++k) {
      entries[k] = {inv[static_cast<std::size_t>(cols[k])], rvals[k]};
    }
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    const auto base = static_cast<std::size_t>(row_ptr[static_cast<std::size_t>(i)]);
    for (std::size_t k = 0; k < entries.size(); ++k) {
      col_idx[base + k] = entries[k].first;
      vals[base + k] = entries[k].second;
    }
  }
  return CsrMatrix(m.nrows(), m.ncols(), std::move(row_ptr),
                   std::move(col_idx), std::move(vals));
}

CsrMatrix permute_rows(const CsrMatrix& m,
                       const std::vector<index_t>& row_order) {
  validate_permutation(row_order, m.nrows());

  std::vector<nnz_t> row_ptr(static_cast<std::size_t>(m.nrows()) + 1, 0);
  for (std::size_t p = 0; p < row_order.size(); ++p) {
    row_ptr[p + 1] = row_ptr[p] + m.row_nnz(row_order[p]);
  }
  aligned_vector<index_t> col_idx(static_cast<std::size_t>(m.nnz()));
  aligned_vector<value_t> vals(static_cast<std::size_t>(m.nnz()));
  for (std::size_t p = 0; p < row_order.size(); ++p) {
    const auto cols = m.row_cols(row_order[p]);
    const auto rvals = m.row_vals(row_order[p]);
    const auto base = static_cast<std::size_t>(row_ptr[p]);
    std::copy(cols.begin(), cols.end(), col_idx.begin() + base);
    std::copy(rvals.begin(), rvals.end(), vals.begin() + base);
  }
  return CsrMatrix(m.nrows(), m.ncols(), std::move(row_ptr),
                   std::move(col_idx), std::move(vals));
}

std::vector<index_t> segment_boundaries(const std::vector<nnz_t>& col_counts,
                                        const std::vector<double>& fractions) {
  for (std::size_t k = 0; k < fractions.size(); ++k) {
    if (fractions[k] <= 0.0 || fractions[k] >= 1.0 ||
        (k > 0 && fractions[k] <= fractions[k - 1])) {
      throw std::invalid_argument(
          "segment_boundaries: fractions must be strictly increasing in (0,1)");
    }
  }
  nnz_t total = 0;
  for (auto c : col_counts) total += c;

  std::vector<index_t> boundaries;
  boundaries.reserve(fractions.size());
  const auto ncols = static_cast<index_t>(col_counts.size());
  nnz_t running = 0;
  index_t col = 0;
  for (double f : fractions) {
    const auto target = static_cast<nnz_t>(static_cast<double>(total) * f);
    while (col < ncols && running < target) {
      running += col_counts[static_cast<std::size_t>(col)];
      ++col;
    }
    // Keep at least one column in every remaining segment when possible;
    // a matrix without columns gets empty segments at column 0.
    const index_t min_boundary = std::min<index_t>(1, ncols);
    const auto max_boundary = std::max<index_t>(
        min_boundary,
        ncols - static_cast<index_t>(fractions.size() - boundaries.size()));
    boundaries.push_back(std::clamp<index_t>(col, min_boundary, max_boundary));
  }
  return boundaries;
}

}  // namespace wise
