#pragma once
// Matrix reordering and partitioning transforms (paper §2.2).
//
// These are the building blocks the optimized SpMV formats are assembled
// from:
//   * RFS  — Row Frequency Sorting: order rows by descending nonzero count.
//   * CFS  — Column Frequency Sorting: order columns by descending count.
//   * σ-windowed row sorting — RFS restricted to windows of σ consecutive
//     rows (Sell-c-σ); σ=1 keeps the natural order, σ=nrows is full RFS.
//   * Column segmentation — split the (CFS-ordered) columns into segments
//     holding given cumulative fractions of the nonzeros (LAV's dense /
//     sparse split, parameter T).
//
// A permutation `perm` is always stored as new-position → old-index:
// perm[p] = original index of the element now at position p.

#include <span>
#include <vector>

#include "sparse/csr.hpp"
#include "util/types.hpp"

namespace wise {

/// Validates that `perm` is a permutation of [0, n). Throws otherwise.
void validate_permutation(const std::vector<index_t>& perm, index_t n);

/// Returns the inverse permutation: inv[old] = new position.
std::vector<index_t> invert_permutation(const std::vector<index_t>& perm);

/// Row ordering by descending row length within each window of `sigma`
/// consecutive rows, where `row_len[i]` is row i's nonzero count (in the
/// whole matrix, or in one column segment). Equal lengths keep their
/// natural, locality-preserving order — exactly a stable sort (paper
/// §2.2). sigma <= 1 returns the identity; sigma >= rows is full RFS. The
/// windows are sorted in parallel; the order does not depend on the thread
/// count. The SRVPack builder orders every segment with this function.
std::vector<index_t> sigma_sorted_row_order(std::span<const nnz_t> row_len,
                                            index_t sigma);

/// Column Frequency Sorting order: descending column nonzero count, stable.
std::vector<index_t> cfs_col_order(const CsrMatrix& m);

/// Applies a column permutation: returns a matrix whose column p holds the
/// original column col_order[p] (column indices are renumbered and each
/// row's indices re-sorted). Multiplying the result by a permuted input
/// vector xp, where xp[p] = x[col_order[p]], reproduces A*x.
CsrMatrix permute_columns(const CsrMatrix& m,
                          const std::vector<index_t>& col_order);

/// Applies a row permutation: row p of the result is original row
/// row_order[p].
CsrMatrix permute_rows(const CsrMatrix& m,
                       const std::vector<index_t>& row_order);

/// Given per-column nonzero counts listed in processing order, returns the
/// split points that partition columns into segments where segment k covers
/// cumulative nonzero fraction (fractions[k-1], fractions[k]]. The returned
/// vector has one entry per segment boundary: boundaries[k] = first column
/// of segment k+1. `fractions` must be strictly increasing in (0, 1); e.g.
/// LAV with T=0.7 passes {0.7} and gets one boundary.
/// The boundary is placed at the first column where the running fraction
/// reaches the target, and always leaves at least one column per segment
/// when possible.
std::vector<index_t> segment_boundaries(const std::vector<nnz_t>& col_counts,
                                        const std::vector<double>& fractions);

}  // namespace wise
