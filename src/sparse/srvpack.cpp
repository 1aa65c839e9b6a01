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
/// slot-major SRVPack layout. Every stage is one parallel pass: row windows,
/// row order, chunk lengths (then one serial prefix sum over the chunks),
/// and a fill in which each chunk's thread writes every slot of the chunk
/// once, values and padding alike, into planes allocated uninitialized.
SrvSegment build_segment(const CsrMatrix& src, index_t col_begin,
                         index_t col_end, const SrvBuildOptions& opts) {
  const index_t n = src.nrows();
  const int c = opts.c;
  const nnz_t* row_ptr = src.row_ptr().data();

  SrvSegment seg;
  seg.col_begin = col_begin;
  seg.col_end = col_end;

  // Per-row sub-range of nonzeros falling inside the column window. A
  // window spanning the whole matrix is the row itself; a narrower one
  // (LAV's segments) is found by binary search, since rows are
  // column-sorted.
  const bool whole_rows = col_begin == 0 && col_end == src.ncols();
  std::vector<nnz_t> seg_nnz(static_cast<std::size_t>(n));
  std::vector<nnz_t> lo_off(whole_rows ? 0 : static_cast<std::size_t>(n));
#pragma omp parallel for schedule(static)
  for (index_t i = 0; i < n; ++i) {
    const auto r = static_cast<std::size_t>(i);
    if (whole_rows) {
      seg_nnz[r] = row_ptr[r + 1] - row_ptr[r];
      continue;
    }
    const auto cols = src.row_cols(i);
    const auto lo = std::lower_bound(cols.begin(), cols.end(), col_begin);
    const auto hi = std::lower_bound(lo, cols.end(), col_end);
    lo_off[r] = row_ptr[r] + (lo - cols.begin());
    seg_nnz[r] = hi - lo;
  }
  const nnz_t* row_lo = whole_rows ? row_ptr : lo_off.data();

  // Row ordering: natural, σ-windowed, or full RFS on the *segment* counts.
  seg.row_order = sigma_sorted_row_order(seg_nnz, opts.sigma);
  if (opts.sigma >= n) {
    // Empty rows sorted to the tail contribute nothing; drop them so the
    // kernel skips them entirely. A segment 0 that misses rows makes the
    // kernel zero y before it adds (spmv_srvpack's store-or-add rule).
    auto& order = seg.row_order;
    while (!order.empty() &&
           seg_nnz[static_cast<std::size_t>(order.back())] == 0) {
      order.pop_back();
    }
  }
  const auto nrows_seg = static_cast<index_t>(seg.row_order.size());
  const index_t* order = seg.row_order.data();

  // Chunk offsets: each chunk of c rows is as long as its longest row.
  const index_t num_chunks = (nrows_seg + c - 1) / c;
  seg.chunk_offset.assign(static_cast<std::size_t>(num_chunks) + 1, 0);
#pragma omp parallel for schedule(static)
  for (index_t k = 0; k < num_chunks; ++k) {
    nnz_t len = 0;
    for (index_t pos = k * c; pos < std::min(k * c + c, nrows_seg); ++pos) {
      len = std::max(len, seg_nnz[static_cast<std::size_t>(order[pos])]);
    }
    seg.chunk_offset[static_cast<std::size_t>(k) + 1] = len;
  }
  std::partial_sum(seg.chunk_offset.begin(), seg.chunk_offset.end(),
                   seg.chunk_offset.begin());

  // Fill the slot-major planes; short lanes, and the missing lanes of a
  // partial last chunk, are padded with (pad_col, 0). The padding column is
  // the window's first column: after CFS that is the hottest column, so
  // padded gathers hit cache.
  const index_t pad_col = seg.pad_col(src.ncols());
  const auto total_slots =
      static_cast<std::size_t>(seg.chunk_offset.back()) * c;
  seg.vals.resize(total_slots);
  seg.col_ids.resize(total_slots);
  value_t* vals = seg.vals.data();
  index_t* col_ids = seg.col_ids.data();
  const nnz_t* offsets = seg.chunk_offset.data();
  const index_t* src_cols = src.col_idx().data();
  const value_t* src_vals = src.vals().data();
#pragma omp parallel for schedule(static)
  for (index_t k = 0; k < num_chunks; ++k) {
    const nnz_t base = offsets[k];
    const nnz_t chunk_len = offsets[k + 1] - base;
    for (int l = 0; l < c; ++l) {
      const index_t pos = k * c + l;
      nnz_t len = 0;
      nnz_t lo = 0;
      if (pos < nrows_seg) {
        const auto row = static_cast<std::size_t>(order[pos]);
        len = seg_nnz[row];
        lo = row_lo[row];
      }
      std::size_t slot = static_cast<std::size_t>(base * c + l);
      for (nnz_t j = 0; j < len; ++j, slot += c) {
        col_ids[slot] = src_cols[lo + j];
        vals[slot] = src_vals[lo + j];
      }
      for (nnz_t j = len; j < chunk_len; ++j, slot += c) {
        col_ids[slot] = pad_col;
        vals[slot] = value_t{0};
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
