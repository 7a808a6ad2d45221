// Payload checksum shared by the binary blob formats (checkpoint files,
// sim/checkpoint.cpp, and the batch disk cache, sim/batch.cpp), and the
// checksummed frame both use.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/serialize.hpp"

namespace redcache {

/// FNV-1a folded over 8-byte little-endian words (byte-wise tail):
/// checkpoint blobs are megabytes and sampled runs checksum dozens of them,
/// so the byte-serial variant was measurable in capture time. Not standard
/// FNV, but self-consistent and identical on any host. A multiply carries
/// differences only upward, so each word's product is folded back down
/// (`h ^= h >> 32`); without it, a change to the top bytes of one word can
/// be cancelled by the top bytes of the next.
inline std::uint64_t Fnv64(const std::uint8_t* p, std::size_t n) {
  std::uint64_t h = 1469598103934665603ull;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    h ^= ser::GetU64(p + i);
    h *= 1099511628211ull;
    h ^= h >> 32;
  }
  for (; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

namespace ser {

/// Checksummed frame: a U64 Fnv64 of every byte `payload()` writes, placed
/// in front of those bytes. The payload must be the last thing written, so
/// the checksum covers everything after itself and any flipped bit in it
/// is caught deterministically.
template <typename Fn>
void WriteChecksummed(Writer& w, Fn&& payload) {
  const std::size_t checksum_off = w.buffer().size();
  w.U64(0);  // placeholder, patched once the payload is known
  payload();
  const std::size_t payload_off = checksum_off + 8;
  w.PatchU64(checksum_off, Fnv64(w.buffer().data() + payload_off,
                                 w.buffer().size() - payload_off));
}

/// Reads the checksum WriteChecksummed wrote and reports whether it
/// matches every remaining byte. The reader is left at the payload.
inline bool ChecksumMatches(Reader& r) {
  const std::uint64_t stored = r.U64();
  Reader rest = r;  // hash the payload without consuming it
  const std::size_t n = rest.remaining();
  return Fnv64(rest.Raw(n), n) == stored;
}

}  // namespace ser
}  // namespace redcache
