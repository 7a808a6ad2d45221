// Set-associative write-back SRAM cache with true-LRU replacement.
//
// The on-die levels (L1/L2/L3) are modeled functionally: an access either
// hits (contributing the level's latency) or misses and allocates, possibly
// evicting a dirty victim that travels down the hierarchy. Timing below the
// L3 is handled by the DRAM-cache controllers and DRAM models.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/serialize.hpp"
#include "common/types.hpp"

namespace redcache {

struct SramCacheConfig {
  std::string name = "cache";
  std::uint64_t size_bytes = 64_KiB;
  std::uint32_t ways = 4;
  Cycle latency = 4;  ///< hit latency contribution of this level
};

class SramCache {
 public:
  explicit SramCache(const SramCacheConfig& cfg);

  struct AccessResult {
    bool hit = false;
    /// Set when the allocation evicted a dirty line.
    std::optional<Addr> dirty_victim;
  };

  /// Look up `addr`; on miss, allocate it (write-allocate for both reads
  /// and writes — the hierarchy is write-back at every level).
  AccessResult Access(Addr addr, bool is_write);

  /// Look up without disturbing LRU or allocating.
  bool Probe(Addr addr) const;

  /// Insert a block (used for fills from below or writebacks from above,
  /// which allocate in non-inclusive fashion). Marks dirty if `dirty`.
  std::optional<Addr> Insert(Addr addr, bool dirty);

  /// Drop a block if present; returns true if it was dirty.
  bool Invalidate(Addr addr);

  /// Checkpointing: every line (tag/LRU stamp/valid/dirty), the LRU clock
  /// and the counters. Geometry comes from construction, not the blob.
  void Snapshot(ser::Writer& w) const { Io(*this, w); }
  void Restore(ser::Reader& r) { Io(*this, r); }

  const SramCacheConfig& config() const { return cfg_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t dirty_evictions() const { return dirty_evictions_; }
  std::uint64_t num_sets() const { return sets_; }

 private:
  struct Line {
    Addr tag = 0;
    std::uint64_t lru = 0;
    bool valid = false;
    bool dirty = false;
  };

  std::uint64_t SetOf(Addr addr) const {
    return (addr >> kBlockShift) & (sets_ - 1);
  }
  Addr TagOf(Addr addr) const { return addr >> kBlockShift; }

  Line* Find(Addr addr);
  const Line* Find(Addr addr) const;
  Line& Victim(Addr addr);

  template <class Self, class Ar>
  static void Io(Self& s, Ar& a) {
    a.Section("sram");
    // 18-byte records (tag, lru, valid, dirty) via a bulk span: the line
    // array is most of a checkpoint blob and per-field calls dominated
    // capture time.
    if constexpr (Ar::kReading) {
      if (a.U64() != s.lines_.size()) {
        throw ser::SerializeError("SRAM cache geometry mismatch (" +
                                  s.cfg_.name + ")");
      }
      const std::uint8_t* p = a.Raw(18 * s.lines_.size());
      for (Line& line : s.lines_) {
        line.tag = ser::GetU64(p);
        line.lru = ser::GetU64(p + 8);
        line.valid = p[16] != 0;
        line.dirty = p[17] != 0;
        p += 18;
      }
    } else {
      a.U64(s.lines_.size());
      std::uint8_t* p = a.Raw(18 * s.lines_.size());
      for (const Line& line : s.lines_) {
        ser::PutU64(p, line.tag);
        ser::PutU64(p + 8, line.lru);
        p[16] = line.valid ? 1 : 0;
        p[17] = line.dirty ? 1 : 0;
        p += 18;
      }
    }
    a.U64(s.tick_);
    a.U64(s.hits_);
    a.U64(s.misses_);
    a.U64(s.evictions_);
    a.U64(s.dirty_evictions_);
  }

  SramCacheConfig cfg_;
  std::uint64_t sets_;
  std::vector<Line, ZeroedAllocator<Line>> lines_;  // sets_ * ways, set-major
  std::uint64_t tick_ = 0;   // LRU clock
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t dirty_evictions_ = 0;
};

}  // namespace redcache
