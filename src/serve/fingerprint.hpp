#pragma once
// Structural matrix fingerprints — the cache key of the serving layer.
//
// A fingerprint is an FNV-1a hash over a CSR matrix's identity: dimensions,
// row_ptr, and col_idx always; the value array optionally (structure alone
// is the right key for WISE, whose features and therefore choices are
// structure-driven, but RUN responses depend on values too). Hashing is a
// single linear pass over the index arrays — orders of magnitude cheaper
// than feature extraction, which is the whole point: a served matrix seen
// before skips straight to its cached choice/layout.
//
// Fingerprints are deterministic for a given matrix on a given platform
// (the hash covers the in-memory bytes of index_t/nnz_t arrays, so the
// value is endianness- and width-specific; it is a cache key, not a
// portable checksum). Equal fingerprints mean "treat as the same matrix";
// with 128 bits (structure + values) over FNV-1a, accidental collisions
// are negligible for serving purposes, and the golden test pins the
// algorithm so the values stay stable across refactors.

#include <cstdint>
#include <functional>
#include <string>

#include "sparse/csr.hpp"

namespace wise::serve {

struct Fingerprint {
  std::uint64_t structure = 0;  ///< dims + row_ptr + col_idx
  std::uint64_t values = 0;     ///< value bytes; 0 when not hashed
  bool has_values = false;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;

  /// "s:<16 hex>" or "s:<16 hex>/v:<16 hex>" — used in logs and the daemon
  /// protocol.
  std::string hex() const;
};

struct FingerprintHash {
  std::size_t operator()(const Fingerprint& fp) const noexcept {
    // structure already mixes well; fold in the value hash.
    return static_cast<std::size_t>(fp.structure ^ (fp.values * 0x9e3779b97f4a7c15ull));
  }
};

/// Fingerprints `m`. With `include_values` the value array is hashed too
/// (needed when responses depend on numerics, e.g. RUN checksums).
Fingerprint fingerprint_matrix(const CsrMatrix& m, bool include_values = false);

}  // namespace wise::serve
