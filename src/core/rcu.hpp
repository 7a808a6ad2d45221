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

  /// `channels`: the HBM channel count; every entry's loc.channel is below
  /// it.
  explicit RcuManager(std::size_t capacity = 32, std::uint32_t channels = 1)
      : capacity_(capacity), parked_(channels, 0) {}

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
  bool full() const { return entries_.size() >= capacity_; }

  std::uint64_t inserts() const { return inserts_; }
  std::uint64_t updates_in_place() const { return updates_in_place_; }
  std::uint64_t searches() const { return searches_; }
  std::uint64_t block_hits() const { return block_hits_; }
  std::uint64_t merged_flushes() const { return merged_flushes_; }
  std::uint64_t idle_flushes() const { return idle_flushes_; }
  std::uint64_t capacity_flushes() const { return capacity_flushes_; }

  static void SnapshotEntry(ser::Writer& w, const Entry& e) {
    w.U64(e.block);
    w.U32(e.loc.channel);
    w.U32(e.loc.rank);
    w.U32(e.loc.bank);
    w.U64(e.loc.row);
    w.U32(e.loc.column);
  }
  static Entry RestoreEntry(ser::Reader& r) {
    Entry e;
    e.block = r.U64();
    e.loc.channel = r.U32();
    e.loc.rank = r.U32();
    e.loc.bank = r.U32();
    e.loc.row = r.U64();
    e.loc.column = r.U32();
    return e;
  }

  void Snapshot(ser::Writer& w) const {
    w.Section("rcu");
    w.U64(entries_.size());
    for (const Entry& e : entries_) SnapshotEntry(w, e);
    w.U64(inserts_);
    w.U64(updates_in_place_);
    w.U64(searches_);
    w.U64(block_hits_);
    w.U64(merged_flushes_);
    w.U64(idle_flushes_);
    w.U64(capacity_flushes_);
  }
  void Restore(ser::Reader& r) {
    r.Section("rcu");
    entries_.clear();
    parked_.assign(parked_.size(), 0);
    const std::size_t n = r.SeqLen(32);
    for (std::size_t i = 0; i < n; ++i) {
      entries_.push_back(RestoreEntry(r));
      if (entries_.back().loc.channel >= parked_.size()) {
        throw ser::SerializeError("RCU entry channel out of range");
      }
      Park(entries_.back().loc.channel);
    }
    inserts_ = r.U64();
    updates_in_place_ = r.U64();
    searches_ = r.U64();
    block_hits_ = r.U64();
    merged_flushes_ = r.U64();
    idle_flushes_ = r.U64();
    capacity_flushes_ = r.U64();
  }

 private:
  void Park(std::uint32_t channel) {
    assert(channel < parked_.size() && "RCU entry on an unknown channel");
    parked_[channel]++;
  }
  void Unpark(std::uint32_t channel) { parked_[channel]--; }

  std::size_t capacity_;
  std::deque<Entry> entries_;  ///< front = oldest
  /// Per-channel count of entries_, maintained by every insert and removal.
  std::vector<std::uint32_t> parked_;

  std::uint64_t inserts_ = 0;
  std::uint64_t updates_in_place_ = 0;
  std::uint64_t searches_ = 0;
  std::uint64_t block_hits_ = 0;
  std::uint64_t merged_flushes_ = 0;
  std::uint64_t idle_flushes_ = 0;
  std::uint64_t capacity_flushes_ = 0;
};

}  // namespace redcache
