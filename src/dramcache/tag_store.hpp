// DRAM-cache metadata: `ways`-way sets of `line_blocks`-block lines.
//
// Alloy-style caches keep tags *inside* the DRAM rows (TAD); the controller
// cannot consult them without a DRAM read. This class is the simulator-side
// mirror of that in-DRAM state: policies update it when the corresponding
// DRAM traffic is issued, and every timing/bandwidth cost of reaching the
// real tags is charged through the DRAM model (the probe reads).
//
// The paper's caches are direct-mapped (ways = 1, the default). Higher
// associativity (the authors' R-Cache direction) keeps a set's ways in one
// DRAM row, so one probe burst reads every tag, and adds per-line LRU
// stamps; a direct-mapped store allocates none.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bitops.hpp"
#include "common/serialize.hpp"
#include "common/types.hpp"

namespace redcache {

class TagStore {
 public:
  struct Line {
    std::uint64_t tag = 0;
    std::uint8_t r_count = 0;  ///< reuse count (saturating, tag/ECC byte)
    bool valid = false;
    bool dirty = false;
    /// Installed by a writeback rather than a demand fetch. Such fills are
    /// often trailing stores of finished blocks; the alpha feedback loop
    /// excludes them from its dead-fill statistics.
    bool write_filled = false;
  };

  /// `capacity_bytes` of data, organized as `line_blocks` 64 B blocks per
  /// line (1 for the fine-grained caches; 2/4 for the granularity study)
  /// and `ways` lines per set. `channels` is the device's block interleave
  /// (see HbmAddr). Throws std::invalid_argument unless the capacity splits
  /// into a whole, nonzero number of sets.
  TagStore(std::uint64_t capacity_bytes, std::uint32_t line_blocks,
           std::uint32_t ways = 1, std::uint32_t channels = 1)
      : line_blocks_(line_blocks),
        ways_(ways),
        channels_(channels),
        line_bytes_(std::uint64_t{line_blocks} * kBlockBytes),
        num_sets_(SetCount(capacity_bytes, line_bytes_, ways)),
        lines_(num_sets_ * ways),
        lru_(ways > 1 ? lines_.size() : 0) {}

  std::uint64_t num_sets() const { return num_sets_; }
  std::uint32_t ways() const { return ways_; }
  std::uint32_t line_blocks() const { return line_blocks_; }
  std::uint64_t line_bytes() const { return line_bytes_; }

  std::uint64_t SetOf(Addr addr) const {
    return (addr / line_bytes_) % num_sets_;
  }
  std::uint64_t TagOf(Addr addr) const { return addr / line_bytes_ / num_sets_; }

  Line& line(std::uint64_t set, std::uint32_t way = 0) {
    return lines_[set * ways_ + way];
  }
  const Line& line(std::uint64_t set, std::uint32_t way = 0) const {
    return lines_[set * ways_ + way];
  }

  /// Way holding `addr`, or ways() if absent.
  std::uint32_t FindWay(Addr addr) const {
    const Line* base = &lines_[SetOf(addr) * ways_];
    const std::uint64_t tag = TagOf(addr);
    for (std::uint32_t w = 0; w < ways_; ++w) {
      if (base[w].valid && base[w].tag == tag) return w;
    }
    return ways_;
  }

  bool Hit(Addr addr) const { return FindWay(addr) != ways_; }

  /// Fill target: an invalid way if any, else the least recently touched.
  std::uint32_t VictimWay(std::uint64_t set) const {
    if (ways_ == 1) return 0;
    std::uint32_t victim = 0;
    for (std::uint32_t w = 0; w < ways_; ++w) {
      if (!line(set, w).valid) return w;
      if (lru_[set * ways_ + w] < lru_[set * ways_ + victim]) victim = w;
    }
    return victim;
  }

  /// Most recently touched valid way (way 0 when the set is empty).
  std::uint32_t MruWay(std::uint64_t set) const {
    std::uint32_t mru = 0;
    for (std::uint32_t w = 1; w < ways_; ++w) {
      if (line(set, w).valid &&
          (!line(set, mru).valid ||
           lru_[set * ways_ + w] > lru_[set * ways_ + mru])) {
        mru = w;
      }
    }
    return mru;
  }

  /// Mark (set, way) most recently used. No-op when direct-mapped.
  void Touch(std::uint64_t set, std::uint32_t way) {
    if (ways_ > 1) lru_[set * ways_ + way] = ++tick_;
  }

  /// Main-memory address of the line currently stored in (set, way).
  Addr VictimAddr(std::uint64_t set, std::uint32_t way = 0) const {
    return (line(set, way).tag * num_sets_ + set) * line_bytes_;
  }

  /// Address *within the HBM device* used for timing: the (set, way) slot's
  /// physical location, plus the block offset the request targets within
  /// the line. The device interleaves consecutive blocks over `channels`,
  /// so a set's ways sit `channels` slots apart: all in the set's channel
  /// and, when ways divide a row's blocks, in one row.
  Addr HbmAddr(std::uint64_t set, Addr demand_addr,
               std::uint32_t way = 0) const {
    const Addr offset = demand_addr % line_bytes_;
    const std::uint64_t slot =
        ways_ == 1 ? set
                   : ((set / channels_) * ways_ + way) * channels_ +
                         set % channels_;
    return slot * line_bytes_ + BlockAlign(offset);
  }

  /// Increment a line's saturating r-count and return the new value.
  std::uint32_t BumpRcount(std::uint64_t set, std::uint32_t way = 0) {
    Line& l = line(set, way);
    if (l.r_count != 0xff) ++l.r_count;
    return l.r_count;
  }

  /// Valid lines currently stored.
  std::uint64_t ValidLines() const {
    std::uint64_t valid = 0;
    for (const Line& l : lines_) valid += l.valid ? 1 : 0;
    return valid;
  }

  void Snapshot(ser::Writer& w) const { Io(*this, w); }
  void Restore(ser::Reader& r) { Io(*this, r); }

 private:
  template <class Self, class Ar>
  static void Io(Self& s, Ar& a) {
    a.Section("dmtags");
    // 12-byte records (tag, r_count, valid, dirty, write_filled) via a
    // bulk span — see sram/cache.hpp.
    if constexpr (Ar::kReading) {
      if (a.SeqLen(12) != s.lines_.size()) {
        throw ser::SerializeError("tag store geometry mismatch");
      }
      const std::uint8_t* p = a.Raw(12 * s.lines_.size());
      for (Line& l : s.lines_) {
        l.tag = ser::GetU64(p);
        l.r_count = p[8];
        l.valid = p[9] != 0;
        l.dirty = p[10] != 0;
        l.write_filled = p[11] != 0;
        p += 12;
      }
    } else {
      a.U64(s.lines_.size());
      std::uint8_t* p = a.Raw(12 * s.lines_.size());
      for (const Line& l : s.lines_) {
        ser::PutU64(p, l.tag);
        p[8] = l.r_count;
        p[9] = l.valid ? 1 : 0;
        p[10] = l.dirty ? 1 : 0;
        p[11] = l.write_filled ? 1 : 0;
        p += 12;
      }
    }
    if (s.ways_ > 1) {
      a.U64Seq(s.lru_, "tag store LRU geometry mismatch");
      a.U64(s.tick_);
    }
  }

  static std::uint64_t SetCount(std::uint64_t capacity_bytes,
                                std::uint64_t line_bytes, std::uint32_t ways) {
    const std::uint64_t set_bytes = line_bytes * ways;
    if (set_bytes == 0 || capacity_bytes < set_bytes ||
        capacity_bytes % set_bytes != 0) {
      throw std::invalid_argument(
          "tag store: " + std::to_string(capacity_bytes) +
          " B does not split into whole sets of " + std::to_string(ways) +
          " x " + std::to_string(line_bytes) + " B lines");
    }
    return capacity_bytes / set_bytes;
  }

  std::uint32_t line_blocks_;
  std::uint32_t ways_;
  std::uint32_t channels_;
  std::uint64_t line_bytes_;
  std::uint64_t num_sets_;
  std::vector<Line, ZeroedAllocator<Line>> lines_;
  /// Per-line LRU stamps; empty when direct-mapped.
  std::vector<std::uint64_t> lru_;
  std::uint64_t tick_ = 0;
};

}  // namespace redcache
