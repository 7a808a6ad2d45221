#include "common/types.hpp"

#include <sys/mman.h>

#include <cstdlib>

namespace redcache {

namespace {
#if defined(__SANITIZE_ADDRESS__)
// Keep every array on the calloc path, where ASan puts redzones around it;
// it has none around mmapped memory.
constexpr std::size_t kMapZeroedBytes = ~std::size_t{0};
#else
constexpr std::size_t kMapZeroedBytes = std::size_t{64} << 10;
#endif
}  // namespace

const char* ToString(AccessType t) {
  switch (t) {
    case AccessType::kRead:
      return "read";
    case AccessType::kWrite:
      return "write";
    case AccessType::kWriteback:
      return "writeback";
  }
  return "?";
}

void* AllocateZeroed(std::size_t bytes) {
  if (bytes < kMapZeroedBytes) return std::calloc(1, bytes);
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  return p == MAP_FAILED ? nullptr : p;
}

void FreeZeroed(void* p, std::size_t bytes) noexcept {
  if (bytes < kMapZeroedBytes) {
    std::free(p);
  } else {
    munmap(p, bytes);
  }
}

}  // namespace redcache
