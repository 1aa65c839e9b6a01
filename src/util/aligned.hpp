#pragma once
// Cache-line / vector-register aligned storage.
//
// The SRVPack value and column-id planes are read with vector loads; aligning
// them to 64 bytes keeps every c-wide lane group within a single cache line
// (c=8 doubles == exactly one line) and enables aligned AVX-512 loads.

#include <cstddef>
#include <cstdlib>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace wise {

inline constexpr std::size_t kCacheLineBytes = 64;

/// Minimal C++17 aligned allocator for std::vector.
template <typename T, std::size_t Alignment = kCacheLineBytes>
struct AlignedAllocator {
  using value_type = T;

  /// Explicit rebind: allocator_traits cannot synthesize one because the
  /// second template parameter is a non-type (the alignment).
  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  static_assert(Alignment >= alignof(T), "alignment weaker than alignof(T)");
  static_assert((Alignment & (Alignment - 1)) == 0, "alignment not a power of two");

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n == 0) return nullptr;
    void* p = std::aligned_alloc(Alignment, round_up(n * sizeof(T)));
    if (p == nullptr) throw std::bad_alloc();
    return static_cast<T*>(p);
  }

  void deallocate(T* p, std::size_t) noexcept { std::free(p); }

  template <typename U>
  bool operator==(const AlignedAllocator<U, Alignment>&) const noexcept {
    return true;
  }

 private:
  static constexpr std::size_t round_up(std::size_t bytes) noexcept {
    return (bytes + Alignment - 1) / Alignment * Alignment;
  }
};

/// Vector whose data pointer is 64-byte aligned.
template <typename T>
using aligned_vector = std::vector<T, AlignedAllocator<T>>;

/// AlignedAllocator whose argument-less construct() default-initializes,
/// so resize(n) leaves arithmetic elements uninitialized instead of zeroing
/// them. Only for buffers whose builder then writes every element.
template <typename T>
struct DefaultInitAllocator : AlignedAllocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };

  using AlignedAllocator<T>::AlignedAllocator;

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// 64-byte aligned vector whose resize() does not initialize new elements.
template <typename T>
using uninit_aligned_vector = std::vector<T, DefaultInitAllocator<T>>;

}  // namespace wise
