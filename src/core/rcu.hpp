// RCU (r-count update) manager (paper §III-C).
//
// On every read hit the block's refreshed r-count must eventually be
// written back into its HBM row. Doing that immediately reverses the bus
// for every read hit (tBL + tCWD + tWTR); the RCU manager instead parks the
// update in a 32-entry CAM+RAM and drains it when one of three conditions
// holds:
//   (1) the command scheduler issues a data write to the same DRAM index
//       (channel, rank, bank, row) — the update then piggybacks at tCCD
//       cost with no extra turnaround;
//   (2) the channel's transaction queue is empty — updates drain for free;
//   (3) the queue is full — the oldest entry is force-flushed to make room.
// The 32-entry RAM holds the most recently read blocks, so it doubles as a
// tiny block cache that can serve repeat reads without touching HBM.
#pragma once

#include <cassert>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/check.hpp"
#include "common/serialize.hpp"
#include "common/types.hpp"
#include "dram/address.hpp"

namespace redcache {

class RcuManager {
 public:
  struct Entry {
    Addr block = 0;
    DramAddress loc;
  };

  /// `channels`: the HBM channel count (at most 64); every entry's
  /// loc.channel is below it.
  explicit RcuManager(std::size_t capacity = 32, std::uint32_t channels = 1)
      : capacity_(capacity), parked_(channels, 0) {
    REDCACHE_CHECK(channels <= 64, "RCU manager tracks at most 64 channels");
  }

  /// Park an update for `block`. If the queue is full the oldest entry is
  /// evicted and returned (condition 3) — the caller must write it to HBM.
  std::vector<Entry> Insert(Addr block, const DramAddress& loc);

  /// Block-cache lookup (charges a CAM search).
  bool Contains(Addr block);

  /// Remove a parked update (block invalidated or evicted from HBM).
  void Remove(Addr block);

  /// Condition 1: a data write to `loc`'s index was issued; pop all parked
  /// updates sharing that index so they can piggyback.
  std::vector<Entry> MatchIndex(const DramAddress& loc);

  /// Condition 2: the channel went idle; pop all entries on it.
  std::vector<Entry> PopChannel(std::uint32_t channel);

  /// Drain everything (end of simulation).
  std::vector<Entry> PopAll();

  std::size_t size() const { return entries_.size(); }
  const std::deque<Entry>& entries() const { return entries_; }
  /// Entries parked for `channel`: condition 2 can drain something only
  /// while this is non-zero, so the controller tests it before PopChannel.
  std::uint32_t parked(std::uint32_t channel) const {
    return parked_[channel];
  }
  /// Bit c set iff parked(c) != 0, so "which channels have parked updates"
  /// is one load.
  std::uint64_t parked_mask() const { return parked_mask_; }
  bool full() const { return entries_.size() >= capacity_; }

  std::uint64_t inserts() const { return inserts_; }
  std::uint64_t updates_in_place() const { return updates_in_place_; }
  std::uint64_t searches() const { return searches_; }
  std::uint64_t block_hits() const { return block_hits_; }
  std::uint64_t merged_flushes() const { return merged_flushes_; }
  std::uint64_t idle_flushes() const { return idle_flushes_; }
  std::uint64_t capacity_flushes() const { return capacity_flushes_; }

  /// One serialized entry (32 bytes), for the RCU and for entries a
  /// controller holds outside it.
  template <class E, class Ar>
  static void IoEntry(E& e, Ar& a) {
    a.U64(e.block);
    IoDramAddress(e.loc, a);
  }

  void Snapshot(ser::Writer& w) const { Io(*this, w); }
  void Restore(ser::Reader& r) { Io(*this, r); }

 private:
  template <class Self, class Ar>
  static void Io(Self& s, Ar& a) {
    a.Section("rcu");
    if constexpr (Ar::kReading) {
      s.parked_.assign(s.parked_.size(), 0);
      s.parked_mask_ = 0;
    }
    a.Records(s.entries_, 32, [&](auto& e) {
      IoEntry(e, a);
      if constexpr (Ar::kReading) {
        if (e.loc.channel >= s.parked_.size()) {
          throw ser::SerializeError("RCU entry channel out of range");
        }
        s.Park(e.loc.channel);
      }
    });
    a.U64(s.inserts_);
    a.U64(s.updates_in_place_);
    a.U64(s.searches_);
    a.U64(s.block_hits_);
    a.U64(s.merged_flushes_);
    a.U64(s.idle_flushes_);
    a.U64(s.capacity_flushes_);
  }

  void Park(std::uint32_t channel) {
    assert(channel < parked_.size() && "RCU entry on an unknown channel");
    if (parked_[channel]++ == 0) parked_mask_ |= std::uint64_t{1} << channel;
  }
  void Unpark(std::uint32_t channel) {
    if (--parked_[channel] == 0) {
      parked_mask_ &= ~(std::uint64_t{1} << channel);
    }
  }

  std::size_t capacity_;
  std::deque<Entry> entries_;  ///< front = oldest
  /// Per-channel count of entries_, maintained by every insert and removal.
  std::vector<std::uint32_t> parked_;
  std::uint64_t parked_mask_ = 0;

  std::uint64_t inserts_ = 0;
  std::uint64_t updates_in_place_ = 0;
  std::uint64_t searches_ = 0;
  std::uint64_t block_hits_ = 0;
  std::uint64_t merged_flushes_ = 0;
  std::uint64_t idle_flushes_ = 0;
  std::uint64_t capacity_flushes_ = 0;
};

}  // namespace redcache
