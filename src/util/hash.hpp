#pragma once
// FNV-1a, the one byte hash every checksum and fingerprint in the project
// uses: binary CSR files, model-bank tree records, sample-WAL frames,
// matrix fingerprints, fault-stage and corpus seeds. Changing it
// invalidates every file written with it; serve_test pins known vectors.

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace wise {

inline constexpr std::uint64_t kFnv1aSeed = 0xcbf29ce484222325ull;

/// FNV-1a over a byte range, continuing from `seed` (so multi-array hashes
/// chain).
inline std::uint64_t fnv1a(const void* data, std::size_t bytes,
                           std::uint64_t seed = kFnv1aSeed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

inline std::uint64_t fnv1a(std::string_view bytes,
                           std::uint64_t seed = kFnv1aSeed) {
  return fnv1a(bytes.data(), bytes.size(), seed);
}

}  // namespace wise
