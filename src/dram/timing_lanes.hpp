// Structure-of-arrays DRAM timing state for one channel.
//
// Replaces the per-object BankState/RankState records (and the
// stamp-invalidated ready memo that papered over their pointer-chasing
// cost): every quantity the FR-FCFS scan reads is a flat per-bank or
// per-rank `Cycle` lane, and every ready query is a short max-chain over
// those lanes — no memoization, no invalidation protocol. Lanes are
// *eagerly* maintained: each Record* mutation folds the DRAMSim-style
// "earliest issue time" bookkeeping into the lanes it affects, so queries
// stay pure loads + min/max (cmov-friendly, no branches on device state).
//
// Lane map (DESIGN.md §12):
//   per bank:  open_row, act_gate (tRC/tRP/tRFC), col_gate (tRCD),
//              pre_gate (tRAS/tWR/tRTP), rank_of
//   per rank:  rank_act_gate = max(tRRD gate, tFAW gate, refresh end),
//              refresh_until, next_refresh, four-activate window
//   shared:    col_shared[dir]  = max(tCCD gate, turnaround gate, bus drain)
//              cont_shared[dir] = the same without the tCCD term
//                                 (burst continuation of one transaction)
//
// The refresh clamp of the old ComputeXxxReady ("if the rank is refreshing
// at `ready`, push to refresh end") is exactly max(ready, refresh_until):
// refresh_until is in the future only while a refresh is in flight, and a
// stale value from a finished refresh can never exceed a legal ready cycle
// it already bounded. That identity is what lets every query be branchless.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/serialize.hpp"
#include "common/types.hpp"
#include "dram/timing.hpp"

namespace redcache {

class TimingLanes {
 public:
  static constexpr std::uint64_t kNoRow = ~std::uint64_t{0};

  void Init(const DramTimingParams& t, std::uint32_t ranks,
            std::uint32_t banks_per_rank) {
    t_ = &t;
    banks_per_rank_ = banks_per_rank;
    const std::size_t banks = std::size_t{ranks} * banks_per_rank;
    open_row_.assign(banks, kNoRow);
    act_gate_.assign(banks, 0);
    col_gate_.assign(banks, 0);
    pre_gate_.assign(banks, 0);
    rank_of_.resize(banks);
    for (std::size_t b = 0; b < banks; ++b) {
      rank_of_[b] = static_cast<std::uint32_t>(b / banks_per_rank);
    }
    rank_act_gate_.assign(ranks, 0);
    rrd_gate_.assign(ranks, 0);
    act_window_.assign(std::size_t{ranks} * 4, 0);
    refresh_until_.assign(ranks, 0);
    next_refresh_.resize(ranks);
    for (std::uint32_t r = 0; r < ranks; ++r) {
      // Stagger refresh across ranks so they do not all block simultaneously.
      next_refresh_[r] = t.tREFI / 2 + r * (t.tREFI / 8);
    }
    col_shared_[0] = col_shared_[1] = 0;
    cont_shared_[0] = cont_shared_[1] = 0;
    next_column_cmd_ = next_read_cmd_ = next_write_cmd_ = data_bus_free_ = 0;
  }

  std::uint32_t num_banks() const {
    return static_cast<std::uint32_t>(open_row_.size());
  }
  std::uint32_t num_ranks() const {
    return static_cast<std::uint32_t>(refresh_until_.size());
  }
  std::uint32_t rank_of(std::uint32_t bank) const { return rank_of_[bank]; }

  std::uint64_t OpenRow(std::uint32_t bank) const { return open_row_[bank]; }
  bool RowOpen(std::uint32_t bank) const { return open_row_[bank] != kNoRow; }

  /// Raw (unaligned, unclamped) bank terms — refresh duty bookkeeping in
  /// the channel compares these against `now` exactly as the old per-object
  /// next_precharge/next_activate fields were compared.
  Cycle RawPrechargeGate(std::uint32_t bank) const { return pre_gate_[bank]; }
  Cycle RawActivateGate(std::uint32_t bank) const { return act_gate_[bank]; }
  Cycle RawColumnGate(std::uint32_t bank) const { return col_gate_[bank]; }

  /// Rank-level terms of the ready queries, exposed raw so the channel's
  /// per-bank summary can hoist them out of its per-bank loop (they are
  /// bank-invariant within a rank/scan).
  Cycle RankActivateGate(std::uint32_t rank) const {
    return rank_act_gate_[rank];
  }
  Cycle SharedColumnGate(bool is_write) const { return col_shared_[is_write]; }

  // ---- Ready queries: pure max-chains over the lanes. ----

  Cycle ActivateReady(std::uint32_t bank) const {
    // refresh_until is already folded into rank_act_gate (StartRefresh).
    return AlignUp(std::max(act_gate_[bank], rank_act_gate_[rank_of_[bank]]));
  }

  Cycle PrechargeReady(std::uint32_t bank) const {
    return AlignUp(std::max(pre_gate_[bank], refresh_until_[rank_of_[bank]]));
  }

  Cycle ColumnReady(std::uint32_t bank, bool is_write) const {
    return AlignUp(std::max({col_gate_[bank], col_shared_[is_write],
                             refresh_until_[rank_of_[bank]]}));
  }

  /// Follow-up burst of the transaction that issued the previous column
  /// command: streams at data-bus rate, not gated by tCCD.
  Cycle ContinuationReady(std::uint32_t bank, bool is_write) const {
    return AlignUp(std::max({col_gate_[bank], cont_shared_[is_write],
                             refresh_until_[rank_of_[bank]]}));
  }

  // ---- Mutations: fold the issued command into the affected lanes. ----

  void RecordActivate(std::uint32_t bank, std::uint64_t row, Cycle now) {
    open_row_[bank] = row;
    col_gate_[bank] = now + t_->tRCD;
    pre_gate_[bank] = std::max(pre_gate_[bank], now + t_->tRAS);
    act_gate_[bank] = now + t_->tRC;
    const std::uint32_t r = rank_of_[bank];
    rrd_gate_[r] = now + t_->tRRD;
    // Slide the four-activate window (timestamps biased by +1 so an
    // activate at cycle 0 is distinguishable from an empty slot).
    Cycle* w = &act_window_[std::size_t{r} * 4];
    w[3] = w[2];
    w[2] = w[1];
    w[1] = w[0];
    w[0] = now + 1;
    const Cycle faw = w[3] != 0 ? (w[3] - 1) + t_->tFAW : 0;
    rank_act_gate_[r] = std::max({rrd_gate_[r], faw, refresh_until_[r]});
  }

  void RecordColumn(std::uint32_t bank, bool is_write, Cycle now) {
    const Cycle lat = is_write ? t_->tCWD : t_->tCAS;
    const Cycle data_end = now + lat + t_->tBL;
    data_bus_free_ = data_end;
    next_column_cmd_ = now + t_->tCCD;
    if (is_write) {
      next_read_cmd_ = std::max(next_read_cmd_, data_end + t_->tWTR);
      pre_gate_[bank] = std::max(pre_gate_[bank], data_end + t_->tWR);
    } else {
      // A later write burst must wait for the bus to reverse after our data.
      const Cycle wr_ok = data_end + t_->tRTW_bubble > t_->tCWD
                              ? data_end + t_->tRTW_bubble - t_->tCWD
                              : Cycle{0};
      next_write_cmd_ = std::max(next_write_cmd_, wr_ok);
      pre_gate_[bank] = std::max(pre_gate_[bank], now + t_->tRTP);
    }
    RebuildSharedGates();
  }

  void RecordPrecharge(std::uint32_t bank, Cycle now) {
    open_row_[bank] = kNoRow;
    act_gate_[bank] = std::max(act_gate_[bank], now + t_->tRP);
  }

  // ---- Refresh duty. ----

  bool Refreshing(std::uint32_t rank, Cycle now) const {
    return now < refresh_until_[rank];
  }
  bool RefreshDue(std::uint32_t rank, Cycle now) const {
    return now >= next_refresh_[rank];
  }
  Cycle refresh_until(std::uint32_t rank) const { return refresh_until_[rank]; }
  Cycle next_refresh(std::uint32_t rank) const { return next_refresh_[rank]; }

  void StartRefresh(std::uint32_t rank, Cycle now) {
    refresh_until_[rank] = now + t_->tRFC;
    next_refresh_[rank] += t_->tREFI;
    if (next_refresh_[rank] <= now) next_refresh_[rank] = now + t_->tREFI;
    Cycle* act = &act_gate_[std::size_t{rank} * banks_per_rank_];
    for (std::uint32_t b = 0; b < banks_per_rank_; ++b) {
      act[b] = std::max(act[b], now + t_->tRFC);
    }
    rank_act_gate_[rank] = std::max(rank_act_gate_[rank], refresh_until_[rank]);
  }

  /// Round `t` up to the next DRAM command-slot boundary.
  static constexpr Cycle AlignUp(Cycle t) {
    const Cycle rem = t % kCpuCyclesPerDramCycle;
    return rem == 0 ? t : t + (kCpuCyclesPerDramCycle - rem);
  }

  /// Checkpointing: every lane. Geometry and the timing table pointer are
  /// configuration (Init runs before Restore on a freshly built channel).
  void Snapshot(ser::Writer& w) const { Io(*this, w); }
  void Restore(ser::Reader& r) { Io(*this, r); }

 private:
  template <class Self, class Ar>
  static void Io(Self& s, Ar& a) {
    a.Section("lanes");
    for (auto* lane : {&s.open_row_, &s.act_gate_, &s.col_gate_, &s.pre_gate_,
                       &s.rank_act_gate_, &s.rrd_gate_, &s.act_window_,
                       &s.refresh_until_, &s.next_refresh_}) {
      a.U64Seq(*lane, "DRAM lane size mismatch (geometry changed)");
    }
    for (auto& c : s.col_shared_) a.U64(c);
    for (auto& c : s.cont_shared_) a.U64(c);
    a.U64(s.next_column_cmd_);
    a.U64(s.next_read_cmd_);
    a.U64(s.next_write_cmd_);
    a.U64(s.data_bus_free_);
  }

  void RebuildSharedGates() {
    const Cycle rd_bus =
        data_bus_free_ > t_->tCAS ? data_bus_free_ - t_->tCAS : 0;
    const Cycle wr_bus =
        data_bus_free_ > t_->tCWD ? data_bus_free_ - t_->tCWD : 0;
    cont_shared_[0] = std::max(next_read_cmd_, rd_bus);
    cont_shared_[1] = std::max(next_write_cmd_, wr_bus);
    col_shared_[0] = std::max(next_column_cmd_, cont_shared_[0]);
    col_shared_[1] = std::max(next_column_cmd_, cont_shared_[1]);
  }

  const DramTimingParams* t_ = nullptr;
  std::uint32_t banks_per_rank_ = 0;

  // Per-bank lanes.
  std::vector<std::uint64_t> open_row_;
  std::vector<Cycle> act_gate_;  ///< activate: tRC / tRP / tRFC bank term
  std::vector<Cycle> col_gate_;  ///< column: tRCD bank term
  std::vector<Cycle> pre_gate_;  ///< precharge: tRAS / tWR / tRTP bank term
  std::vector<std::uint32_t> rank_of_;

  // Per-rank lanes.
  std::vector<Cycle> rank_act_gate_;  ///< max(tRRD, tFAW, refresh end)
  std::vector<Cycle> rrd_gate_;
  std::vector<Cycle> act_window_;  ///< 4 per rank, newest first, 0 == unused
  std::vector<Cycle> refresh_until_;
  std::vector<Cycle> next_refresh_;

  // Channel-shared column/data-bus gates, indexed by is_write.
  Cycle col_shared_[2];
  Cycle cont_shared_[2];
  Cycle next_column_cmd_ = 0;  ///< tCCD spacing between column commands
  Cycle next_read_cmd_ = 0;    ///< write->read turnaround (tWTR)
  Cycle next_write_cmd_ = 0;   ///< read->write turnaround (bus reversal)
  Cycle data_bus_free_ = 0;
};

}  // namespace redcache
