// Fundamental types shared by every RedCache module.
//
// All simulated times are expressed in CPU cycles at 3.2 GHz (the paper's
// Table I gives DRAM timing parameters directly in CPU cycles). The DRAM
// devices run at 1600 MHz DDR, i.e. one DRAM clock == 2 CPU cycles; the
// DRAM model takes care of that internally.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <string>
#include <type_traits>
#include <utility>

namespace redcache {

/// Physical byte address.
using Addr = std::uint64_t;

/// Simulated time in CPU cycles (3.2 GHz).
using Cycle = std::uint64_t;

/// Unique, monotonically increasing id of an in-flight memory request.
using RequestId = std::uint64_t;

/// Cache-block size used throughout the hierarchy (Table I: 64 B blocks).
inline constexpr std::uint32_t kBlockBytes = 64;
inline constexpr std::uint32_t kBlockShift = 6;

/// OS page size; alpha counters are shared by all blocks of a page.
inline constexpr std::uint32_t kPageBytes = 4096;
inline constexpr std::uint32_t kPageShift = 12;
inline constexpr std::uint32_t kBlocksPerPage = kPageBytes / kBlockBytes;

/// Tag+ECC sidecar moved together with a block on the WideIO bus
/// (Table I note: "HBM cache puts tags with data in the unused ECC bits",
/// i.e. an Alloy-style TAD transfer of 72 B).
inline constexpr std::uint32_t kTagEccBytes = 8;

/// Kind of a memory access as seen below the L3 (and inside the caches).
enum class AccessType : std::uint8_t {
  kRead,      ///< demand read / fetch
  kWrite,     ///< store (write-allocate inside SRAM levels)
  kWriteback  ///< dirty eviction travelling down the hierarchy
};

/// True for both store-like flavours.
constexpr bool IsWrite(AccessType t) {
  return t != AccessType::kRead;
}

const char* ToString(AccessType t);

/// Block-aligned address of `a`.
constexpr Addr BlockAlign(Addr a) { return a & ~Addr{kBlockBytes - 1}; }
/// Block index (address / 64).
constexpr Addr BlockIndex(Addr a) { return a >> kBlockShift; }
/// Page index (address / 4096).
constexpr Addr PageIndex(Addr a) { return a >> kPageShift; }

/// Zeroed storage for ZeroedAllocator: 64 KiB or more is mapped straight
/// from the OS, smaller sizes (and every size in ASan builds) come from
/// calloc. Returns nullptr on failure.
/// Free with FreeZeroed and the same `bytes`.
void* AllocateZeroed(std::size_t bytes);
void FreeZeroed(void* p, std::size_t bytes) noexcept;

/// std::vector allocator for cache tag arrays whose value-initialized
/// element is all zero bytes. Storage arrives zeroed, so value-initialization
/// writes nothing, and the large arrays never enter the malloc heap:
/// building a System touches none of their pages, and its cost does not
/// depend on whether malloc trimmed the previous System's memory back to
/// the OS. Size such a vector once, from empty: growing it again after a
/// shrink would expose stale elements.
template <class T>
struct ZeroedAllocator {
  using value_type = T;
  ZeroedAllocator() = default;
  template <class U>
  ZeroedAllocator(const ZeroedAllocator<U>&) noexcept {}
  T* allocate(std::size_t n) {
    if (void* p = AllocateZeroed(n * sizeof(T))) return static_cast<T*>(p);
    throw std::bad_alloc();
  }
  void deallocate(T* p, std::size_t n) noexcept {
    FreeZeroed(p, n * sizeof(T));
  }
  template <class U>
  void construct(U*) noexcept {
    static_assert(std::is_trivially_destructible_v<U> &&
                  (std::is_aggregate_v<U> || std::is_scalar_v<U>));
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
  friend bool operator==(ZeroedAllocator, ZeroedAllocator) { return true; }
};

/// Common size literals.
constexpr std::uint64_t operator""_KiB(unsigned long long v) { return v << 10; }
constexpr std::uint64_t operator""_MiB(unsigned long long v) { return v << 20; }
constexpr std::uint64_t operator""_GiB(unsigned long long v) { return v << 30; }

}  // namespace redcache
