// Payload checksum shared by the binary blob formats (checkpoint files,
// sim/checkpoint.cpp, and the batch disk cache, sim/batch.cpp).
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/serialize.hpp"

namespace redcache {

/// FNV-1a folded over 8-byte little-endian words (byte-wise tail):
/// checkpoint blobs are megabytes and sampled runs checksum dozens of them,
/// so the byte-serial variant was measurable in capture time. Not standard
/// FNV, but self-consistent and identical on any host.
inline std::uint64_t Fnv64(const std::uint8_t* p, std::size_t n) {
  std::uint64_t h = 1469598103934665603ull;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    h ^= ser::GetU64(p + i);
    h *= 1099511628211ull;
  }
  for (; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace redcache
