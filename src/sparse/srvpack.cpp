#include "sparse/srvpack.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "sparse/transforms.hpp"
#include "sparse/validate_scan.hpp"
#include "util/error.hpp"

namespace wise {

namespace {

/// Builds one column segment [col_begin, col_end) of `src` with the chunked,
/// slot-major SRVPack layout.
SrvSegment build_segment(const CsrMatrix& src, index_t col_begin,
                         index_t col_end, const SrvBuildOptions& opts) {
  const index_t n = src.nrows();
  const int c = opts.c;

  SrvSegment seg;
  seg.col_begin = col_begin;
  seg.col_end = col_end;

  // Per-row sub-range of nonzeros falling inside the column window. Rows
  // are column-sorted, so binary search gives the window in O(log nnz_row).
  std::vector<nnz_t> lo_off(static_cast<std::size_t>(n));
  std::vector<nnz_t> seg_nnz(static_cast<std::size_t>(n));
#pragma omp parallel for schedule(static)
  for (index_t i = 0; i < n; ++i) {
    const auto cols = src.row_cols(i);
    const auto lo = std::lower_bound(cols.begin(), cols.end(), col_begin);
    const auto hi = std::lower_bound(lo, cols.end(), col_end);
    lo_off[static_cast<std::size_t>(i)] =
        src.row_ptr()[static_cast<std::size_t>(i)] + (lo - cols.begin());
    seg_nnz[static_cast<std::size_t>(i)] = hi - lo;
  }

  // Row ordering: natural, σ-windowed, or full RFS on the *segment* counts.
  std::vector<index_t> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  const bool full_sort = opts.sigma == kSigmaAll || opts.sigma >= n;
  auto by_desc_nnz = [&seg_nnz](index_t a, index_t b) {
    return seg_nnz[static_cast<std::size_t>(a)] >
           seg_nnz[static_cast<std::size_t>(b)];
  };
  if (full_sort) {
    std::stable_sort(order.begin(), order.end(), by_desc_nnz);
    // Empty rows sorted to the tail contribute nothing; drop them so the
    // kernel skips them entirely (y is zero-initialized by the kernel).
    while (!order.empty() && seg_nnz[static_cast<std::size_t>(order.back())] == 0) {
      order.pop_back();
    }
  } else if (opts.sigma > 1) {
    for (index_t begin = 0; begin < n; begin += opts.sigma) {
      const index_t end = std::min<index_t>(begin + opts.sigma, n);
      std::stable_sort(order.begin() + begin, order.begin() + end,
                       by_desc_nnz);
    }
  }
  seg.row_order = std::move(order);

  // Chunk offsets: each chunk of c rows is as long as its longest row.
  const auto nrows_seg = static_cast<index_t>(seg.row_order.size());
  const index_t num_chunks = (nrows_seg + c - 1) / c;
  seg.chunk_offset.assign(static_cast<std::size_t>(num_chunks) + 1, 0);
  for (index_t k = 0; k < num_chunks; ++k) {
    nnz_t len = 0;
    for (int l = 0; l < c; ++l) {
      const index_t pos = k * c + l;
      if (pos >= nrows_seg) break;
      len = std::max(len,
                     seg_nnz[static_cast<std::size_t>(seg.row_order[pos])]);
    }
    seg.chunk_offset[static_cast<std::size_t>(k) + 1] =
        seg.chunk_offset[static_cast<std::size_t>(k)] + len;
  }

  // Fill slot-major planes; pad short lanes with (pad_col, 0). The padding
  // column is the window's first column: after CFS that is the hottest
  // column, so padded gathers hit cache.
  const index_t pad_col = col_begin < src.ncols() ? col_begin : 0;
  const auto total_slots =
      static_cast<std::size_t>(seg.chunk_offset.back()) * c;
  seg.vals.assign(total_slots, value_t{0});
  seg.col_ids.assign(total_slots, pad_col);

  const auto* src_cols = src.col_idx().data();
  const auto* src_vals = src.vals().data();
#pragma omp parallel for schedule(static)
  for (index_t k = 0; k < num_chunks; ++k) {
    const nnz_t base = seg.chunk_offset[static_cast<std::size_t>(k)];
    for (int l = 0; l < c; ++l) {
      const index_t pos = k * c + l;
      if (pos >= nrows_seg) break;
      const index_t row = seg.row_order[static_cast<std::size_t>(pos)];
      const nnz_t row_lo = lo_off[static_cast<std::size_t>(row)];
      const nnz_t len = seg_nnz[static_cast<std::size_t>(row)];
      for (nnz_t j = 0; j < len; ++j) {
        const auto slot = static_cast<std::size_t>((base + j) * c + l);
        seg.col_ids[slot] = src_cols[row_lo + j];
        seg.vals[slot] = src_vals[row_lo + j];
      }
    }
  }
  return seg;
}

}  // namespace

SrvPackMatrix SrvPackMatrix::build(const CsrMatrix& m,
                                   const SrvBuildOptions& opts) {
  if (opts.c < 1 || opts.c > 64) {
    throw std::invalid_argument("SrvPack: c must be in [1, 64]");
  }
  if (opts.sigma < 1) {
    throw std::invalid_argument("SrvPack: sigma must be >= 1");
  }

  SrvPackMatrix out;
  out.nrows_ = m.nrows();
  out.ncols_ = m.ncols();
  out.nnz_ = m.nnz();
  out.opts_ = opts;

  // CFS physically renumbers columns; the permuted matrix is the working
  // representation (this cost is part of the measured preprocessing).
  const CsrMatrix* src = &m;
  CsrMatrix permuted;
  if (opts.cfs) {
    out.col_order_ = cfs_col_order(m);
    permuted = permute_columns(m, out.col_order_);
    src = &permuted;
  }

  std::vector<index_t> bounds;
  if (!opts.segment_fractions.empty()) {
    bounds = segment_boundaries(src->col_counts(), opts.segment_fractions);
  }
  index_t lo = 0;
  for (index_t b : bounds) {
    out.segments_.push_back(build_segment(*src, lo, b, opts));
    lo = b;
  }
  out.segments_.push_back(build_segment(*src, lo, src->ncols(), opts));
  return out;
}

nnz_t SrvPackMatrix::stored_entries() const {
  nnz_t total = 0;
  for (const auto& s : segments_) total += s.stored_entries(opts_.c);
  return total;
}

std::size_t SrvPackMatrix::memory_bytes() const {
  std::size_t bytes = col_order_.size() * sizeof(index_t);
  for (const auto& s : segments_) {
    bytes += s.row_order.size() * sizeof(index_t) +
             s.chunk_offset.size() * sizeof(nnz_t) +
             s.vals.size() * sizeof(value_t) +
             s.col_ids.size() * sizeof(index_t);
  }
  return bytes;
}

void SrvPackMatrix::validate() const {
  auto bad = [](const std::string& what) -> void {
    throw Error(ErrorCategory::kValidation, "SrvPackMatrix: " + what);
  };
  if (nrows_ < 0 || ncols_ < 0 || nnz_ < 0) bad("negative dimensions");
  if (opts_.c < 1 || opts_.c > 64) bad("c out of range");
  if (segments_.empty()) bad("no segments");
  if (opts_.cfs) {
    if (col_order_.size() != static_cast<std::size_t>(ncols_)) {
      bad("CFS column order has wrong length");
    }
    std::vector<char> seen(static_cast<std::size_t>(ncols_), 0);
    for (index_t c : col_order_) {
      if (c < 0 || c >= ncols_ || seen[static_cast<std::size_t>(c)]) {
        bad("CFS column order is not a permutation");
      }
      seen[static_cast<std::size_t>(c)] = 1;
    }
  } else if (!col_order_.empty()) {
    bad("column order present without CFS");
  }

  index_t expect_begin = 0;
  for (std::size_t s = 0; s < segments_.size(); ++s) {
    const auto& seg = segments_[s];
    const std::string where = "segment " + std::to_string(s) + ": ";
    if (seg.col_begin != expect_begin || seg.col_end < seg.col_begin ||
        seg.col_end > ncols_) {
      bad(where + "column window does not tile the matrix");
    }
    expect_begin = seg.col_end;

    if (seg.row_order.size() > static_cast<std::size_t>(nrows_)) {
      bad(where + "more rows than the matrix has");
    }
    std::vector<char> seen_row(static_cast<std::size_t>(nrows_), 0);
    for (index_t r : seg.row_order) {
      if (r < 0 || r >= nrows_ || seen_row[static_cast<std::size_t>(r)]) {
        bad(where + "row order entry out of range or duplicated");
      }
      seen_row[static_cast<std::size_t>(r)] = 1;
    }

    const auto expected_chunks = static_cast<std::size_t>(
        (seg.num_rows() + opts_.c - 1) / opts_.c);
    if (seg.chunk_offset.size() != expected_chunks + 1 ||
        seg.chunk_offset.front() != 0) {
      bad(where + "malformed chunk offsets");
    }
    for (std::size_t k = 1; k < seg.chunk_offset.size(); ++k) {
      if (seg.chunk_offset[k] < seg.chunk_offset[k - 1]) {
        bad(where + "chunk offsets not monotone");
      }
    }
    const auto slots =
        static_cast<std::size_t>(seg.chunk_offset.back()) *
        static_cast<std::size_t>(opts_.c);
    if (seg.vals.size() != slots || seg.col_ids.size() != slots) {
      bad(where + "value/column array length mismatch");
    }
    // Padding uses the window's first column, so every stored id — real or
    // padding — must stay inside the window.
    const index_t lo = seg.col_begin;
    const index_t hi = seg.col_end > seg.col_begin ? seg.col_end
                                                   : seg.col_begin + 1;
    if (detail::any_outside(seg.col_ids, lo, hi)) {
      bad(where + "column id outside segment window");
    }
    if (detail::any_non_finite(seg.vals)) bad(where + "non-finite value");
  }
  if (expect_begin != ncols_) bad("segments do not cover all columns");
}

CooMatrix SrvPackMatrix::to_coo() const {
  CooMatrix coo(nrows_, ncols_);
  coo.entries().reserve(static_cast<std::size_t>(nnz_));
  const int c = opts_.c;
  for (const auto& seg : segments_) {
    for (index_t k = 0; k < seg.num_chunks(); ++k) {
      const nnz_t base = seg.chunk_offset[static_cast<std::size_t>(k)];
      const nnz_t len = seg.chunk_offset[static_cast<std::size_t>(k) + 1] - base;
      for (int l = 0; l < c; ++l) {
        const index_t pos = k * c + l;
        if (pos >= seg.num_rows()) break;
        const index_t row = seg.row_order[static_cast<std::size_t>(pos)];
        for (nnz_t j = 0; j < len; ++j) {
          const auto slot = static_cast<std::size_t>((base + j) * c + l);
          const value_t v = seg.vals[slot];
          index_t col = seg.col_ids[slot];
          // Padding entries carry value exactly 0 at the pad column; real
          // stored zeros are preserved by generators as nonzero values, so
          // dropping v==0 here recovers the logical matrix.
          if (v == value_t{0}) continue;
          if (opts_.cfs) col = col_order_[static_cast<std::size_t>(col)];
          coo.add(row, col, v);
        }
      }
    }
  }
  coo.canonicalize();
  return coo;
}

}  // namespace wise
