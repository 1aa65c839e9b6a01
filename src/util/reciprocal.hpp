#pragma once
// Exact division by a run-time constant without a divide instruction.

#include <cstdint>

namespace wise {

/// Exact n / d for 32-bit n by one 64×64→128 multiply instead of a
/// division (Lemire, Kaser & Kurz 2019): with M = ceil(2^64 / d), n / d is
/// the high word of M·n for every 32-bit n and every d ≥ 2. M wraps to 0 at
/// d == 1, so that divisor adds n back through an all-ones mask instead.
/// Requires d >= 1.
class ReciprocalDivider {
 public:
  explicit ReciprocalDivider(std::uint32_t d)
      : m_(d == 1 ? 0 : ~std::uint64_t{0} / d + 1),
        identity_(d == 1 ? ~std::uint32_t{0} : 0) {}

  std::uint32_t operator()(std::uint32_t n) const {
    const auto hi = static_cast<std::uint32_t>(
        (static_cast<unsigned __int128>(m_) * n) >> 64);
    return hi + (n & identity_);
  }

 private:
  std::uint64_t m_;
  std::uint32_t identity_;
};

}  // namespace wise
