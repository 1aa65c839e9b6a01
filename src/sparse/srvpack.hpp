#pragma once
// SRVPack — Segmented Reordered Vector Packing (paper Appendix A).
//
// A single unified representation from which all five vectorized SpMV
// methods of the paper are obtained by choosing build options:
//
//   method      | c     | sigma         | cfs   | segment_fractions
//   ------------+-------+---------------+-------+------------------
//   SELLPACK    | 4/8   | 1 (natural)   | no    | none (1 segment)
//   Sell-c-σ    | 4/8   | σ             | no    | none
//   Sell-c-R    | 4/8   | all rows      | no    | none
//   LAV-1Seg    | 4/8   | all rows      | yes   | none
//   LAV         | 4/8   | all rows      | yes   | {T}  (dense+sparse)
//
// Layout: rows are grouped into chunks of `c` consecutive rows (after the
// σ-window reordering). Within a chunk the nonzeros are stored slot-major:
// slot j holds the j-th nonzero of each of the c rows, contiguously, so one
// vector instruction processes one slot across all c lanes. Rows shorter
// than the chunk's longest row are padded with (the segment's first column,
// value 0), so every stored id stays inside the segment's column window.
// With segmentation, each segment stores the nonzeros of its column range
// with the same chunked layout and its own row order (per-segment RFS).

#include <limits>
#include <vector>

#include "sparse/csr.hpp"
#include "util/aligned.hpp"
#include "util/types.hpp"

namespace wise {

/// Sentinel: sort rows globally (σ = number of rows), i.e. full RFS.
inline constexpr index_t kSigmaAll = std::numeric_limits<index_t>::max();

/// Build-time parameters selecting which paper method SRVPack realizes.
struct SrvBuildOptions {
  int c = 8;                 ///< chunk height == SIMD lanes (4 or 8 here)
  index_t sigma = 1;         ///< row-sorting window (1 = keep natural order)
  bool cfs = false;          ///< apply Column Frequency Sorting first
  std::vector<double> segment_fractions;  ///< cumulative nnz splits, e.g. {0.7}

  friend bool operator==(const SrvBuildOptions&,
                         const SrvBuildOptions&) = default;
};

/// One column segment in the SRVPack layout.
struct SrvSegment {
  index_t col_begin = 0;  ///< first column (in the matrix's column space)
  index_t col_end = 0;    ///< one past last column

  /// Chunk-ordered original row ids; lane l of chunk k computes row
  /// row_order[k*c + l]. Rows with no nonzeros in this segment are dropped
  /// when the segment was RFS-sorted (they would sort to the end anyway).
  std::vector<index_t> row_order;

  /// chunk_offset[k] .. chunk_offset[k+1] is chunk k's slot range; sizes are
  /// in slots (one slot = c values). Length = num_chunks()+1.
  std::vector<nnz_t> chunk_offset;

  /// chunk_offset.back()*c entries. The builder writes every slot, so the
  /// planes are allocated without zero-filling them first.
  uninit_aligned_vector<value_t> vals;
  uninit_aligned_vector<index_t> col_ids;  ///< parallel to vals

  index_t num_rows() const { return static_cast<index_t>(row_order.size()); }
  index_t num_chunks() const {
    return static_cast<index_t>(chunk_offset.size()) - 1;
  }
  /// Stored entries including padding.
  nnz_t stored_entries(int c) const { return chunk_offset.back() * c; }
  /// The column every padding entry (value 0) points at: the window's first
  /// column, or 0 for a window that starts past the matrix's last column.
  index_t pad_col(index_t ncols) const {
    return col_begin < ncols ? col_begin : 0;
  }
};

/// The unified matrix format. Immutable after build().
class SrvPackMatrix {
 public:
  /// Converts a CSR matrix. Throws std::invalid_argument on bad options
  /// (c not in {1..64}, sigma < 1, malformed fractions).
  static SrvPackMatrix build(const CsrMatrix& m, const SrvBuildOptions& opts);

  index_t nrows() const { return nrows_; }
  index_t ncols() const { return ncols_; }
  nnz_t nnz() const { return nnz_; }
  int c() const { return opts_.c; }
  const SrvBuildOptions& options() const { return opts_; }

  bool has_cfs() const { return opts_.cfs; }
  /// CFS permutation (new position → original column); empty when !has_cfs.
  const std::vector<index_t>& col_order() const { return col_order_; }

  const std::vector<SrvSegment>& segments() const { return segments_; }

  /// Total stored entries including padding; stored/nnz-1 is the padding
  /// overhead the σ parameter is tuned to minimize.
  nnz_t stored_entries() const;
  double padding_ratio() const {
    return nnz_ == 0 ? 0.0
                     : static_cast<double>(stored_entries()) /
                               static_cast<double>(nnz_) -
                           1.0;
  }

  std::size_t memory_bytes() const;

  /// Expands back to canonical COO (test support: must round-trip).
  CooMatrix to_coo() const;

  /// Throws wise::Error (kValidation) when the packed layout violates its
  /// invariants: segments must tile [0, ncols), chunk offsets must be
  /// monotone from 0 with matching array lengths, row ids must be in-range
  /// and unique per segment, column ids must stay inside their segment's
  /// window, values must be finite, and the CFS permutation (when present)
  /// must be a permutation of the columns. The pipeline validates every
  /// freshly-converted matrix before running SpMV with it.
  void validate() const;

 private:
  index_t nrows_ = 0;
  index_t ncols_ = 0;
  nnz_t nnz_ = 0;
  SrvBuildOptions opts_;
  std::vector<index_t> col_order_;
  std::vector<SrvSegment> segments_;
};

}  // namespace wise
