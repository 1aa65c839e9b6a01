#pragma once
// DIA (diagonal) — offset-indexed diagonals, stored diagonal-major.
//
// A diagonal is the set of cells (i, i + off) for one offset off in
// [-(nrows-1), ncols-1]. DIA keeps the sorted list of offsets that carry at
// least one nonzero and one dense value lane per offset: cell (d, i) of the
// flat array is vals[d * nrows + i] = A(i, i + offsets[d]). Lanes are dense
// over *rows*, so two kinds of cells hold 0.0: out-of-band cells (i + off
// outside [0, ncols), never touched by the kernel — the per-row valid
// diagonal range is computed from the sorted offsets) and fill cells
// (in-band but absent from the source matrix — skipped by a value!=0 test).
//
// Why diagonal-major: the SpMV inner loop for one diagonal is
// y[i] += vals[d*nrows + i] * x[i + off] — every access unit-stride, no
// index loads, no gathers. That pure-triad loop is what makes DIA beat
// CSR on banded matrices (the formats perf_smoke stage gates it at 1.3x),
// and because ascending offsets mean ascending columns, accumulating the
// diagonals in offset order reproduces CSR's per-row accumulation order
// exactly.
//
// DIA only works when the nonzeros concentrate on few, well-filled
// diagonals. analyze() measures both failure axes — the distinct-diagonal
// count (an RMAT graph touches O(n) diagonals) and the in-band fill ratio
// (nnz / in-band cells) — and from_csr() rejects matrices outside the
// thresholds below. Explicit stored zeros are also rejected: a stored 0.0
// is indistinguishable from a fill cell once the lanes are materialized.

#include <cstdint>
#include <span>
#include <vector>

#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "util/aligned.hpp"
#include "util/types.hpp"

namespace wise {

/// Hard cap on the number of populated diagonals; beyond it the per-row
/// offset scan and the lane storage (ndiags x nrows cells) both blow up.
inline constexpr index_t kDiaMaxDiagonals = 256;

/// Minimum nnz / in-band-cells ratio: at least this fraction of the stored
/// in-band lane cells must be real nonzeros, or the fill (and the wasted
/// 0.0 multiply-adds it implies) outweighs the unit-stride advantage.
inline constexpr double kDiaMinFillRatio = 0.25;

/// The rejection analysis behind DiaMatrix::accepts, exposed so tests and
/// the selection mask can see *why* a matrix was rejected.
struct DiaAnalysis {
  index_t ndiags = 0;       ///< distinct populated diagonals
  /// The populated offsets (col - row), ascending, which from_csr() takes
  /// as its lanes. Empty when rejected for explicit zeros or too many
  /// diagonals.
  std::vector<std::int64_t> offsets;
  double fill = 0.0;        ///< nnz / in-band lane cells (1.0 = no fill)
  bool accepted = false;
  const char* reason = "";  ///< empty when accepted
};

/// Diagonal-major DIA matrix.
class DiaMatrix {
 public:
  DiaMatrix() = default;

  /// O(nnz) applicability scan: diagonal count, fill ratio, and the
  /// explicit-zero check, with the accept/reject verdict.
  static DiaAnalysis analyze(const CsrMatrix& m);
  static bool accepts(const CsrMatrix& m) { return analyze(m).accepted; }

  /// Converts from CSR. Throws std::invalid_argument when analyze()
  /// rejects the matrix.
  static DiaMatrix from_csr(const CsrMatrix& m);

  index_t nrows() const { return nrows_; }
  index_t ncols() const { return ncols_; }
  nnz_t nnz() const { return nnz_; }
  index_t num_diagonals() const {
    return static_cast<index_t>(offsets_.size());
  }

  /// Strictly ascending populated diagonal offsets (col - row).
  std::span<const std::int64_t> offsets() const { return offsets_; }

  /// Flat diagonal-major lanes: cell (d, i) at d * nrows + i holds
  /// A(i, i + offsets()[d]); out-of-band and fill cells hold 0.0.
  std::span<const value_t> vals() const { return vals_; }

  /// lane_dense()[d] != 0 iff every in-band cell of diagonal d is a real
  /// nonzero. Dense lanes let the kernel drop the fill guard and run the
  /// pure unit-stride triad loop — on a fully-banded matrix every lane is
  /// dense, which is exactly where DIA's perf gate is measured.
  std::span<const char> lane_dense() const { return lane_dense_; }

  /// Stored lane cells (ndiags x nrows); stored/nnz - 1 is DIA's fill
  /// overhead (the analogue of ELL's padding ratio).
  nnz_t stored_entries() const {
    return static_cast<nnz_t>(offsets_.size()) * static_cast<nnz_t>(nrows_);
  }
  double fill_ratio() const {
    return nnz_ == 0 ? 0.0
                     : static_cast<double>(stored_entries()) /
                               static_cast<double>(nnz_) -
                           1.0;
  }

  std::size_t memory_bytes() const;

  /// Expands back to canonical COO (round-trip test support).
  CooMatrix to_coo() const;

  /// Throws wise::Error (kValidation) on violated invariants: ascending
  /// in-range offsets, lane array size, zeroed out-of-band cells, finite
  /// values, nnz matching the non-zero in-band cells.
  void validate() const;

 private:
  index_t nrows_ = 0;
  index_t ncols_ = 0;
  nnz_t nnz_ = 0;
  std::vector<std::int64_t> offsets_;  ///< ascending, populated diagonals
  std::vector<char> lane_dense_;       ///< per diagonal: no fill cells
  aligned_vector<value_t> vals_;       ///< ndiags * nrows, diagonal-major
};

}  // namespace wise
