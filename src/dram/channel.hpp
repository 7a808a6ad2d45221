// One DRAM channel: transaction queue, FR-FCFS command scheduler, banks,
// shared command/data buses and read<->write turnaround tracking.
//
// The channel is tick-driven at CPU-cycle granularity but self-limits work:
// when nothing can issue it computes a wake-up cycle so the simulator can
// fast-forward through stalls.
//
// Hot-path layout (DESIGN.md §12): all device timing state lives in flat
// structure-of-arrays lanes (TimingLanes), the transaction queue is a set
// of parallel arrival-order arrays scanned with dense indices, and the
// FR-FCFS scan is two-level — a per-bank earliest-ready pre-pass over the
// lanes first, then an arrival-order walk restricted to banks that can
// actually issue at `now`.
#pragma once

#include <cstdint>
#include <vector>

#include "common/serialize.hpp"
#include "common/types.hpp"
#include "dram/request.hpp"
#include "dram/timing.hpp"
#include "dram/timing_lanes.hpp"

namespace redcache {

/// Raw event counters a channel accumulates; the energy model and the
/// bandwidth-efficiency benches consume these.
struct ChannelCounters {
  std::uint64_t activates = 0;
  std::uint64_t precharges = 0;
  std::uint64_t refreshes = 0;
  std::uint64_t read_bursts = 0;
  std::uint64_t write_bursts = 0;
  std::uint64_t row_hits = 0;         ///< column commands issued
  std::uint64_t row_misses = 0;       ///< activates (row conflicts/misses)
  std::uint64_t data_busy_cycles = 0; ///< CPU cycles the data bus is driven
  std::uint64_t bytes_transferred = 0;  ///< payload + sideband bytes
  std::uint64_t turnarounds_rw = 0;   ///< read burst followed by write burst
  std::uint64_t turnarounds_wr = 0;   ///< write burst followed by read burst
  std::uint64_t transactions = 0;
  std::uint64_t queue_wait_cycles = 0;  ///< sum of (first command - arrival)
};

class DramChannel {
 public:
  DramChannel(const DramConfig& cfg, std::uint32_t channel_index);

  bool CanAccept() const { return QueueSize() < cfg_.controller.queue_depth; }
  bool QueueEmpty() const { return q_slot_.empty() && pending_done_.empty(); }
  std::size_t QueueSize() const { return q_slot_.size(); }

  /// Enqueue a transaction (caller checked CanAccept). `slot_ticked` says
  /// the channel's owner already ticked it at `req.arrival` this cycle, so
  /// the request arrives after that cycle's scheduler pass.
  void Enqueue(const DramRequest& req, bool slot_ticked = false);

  /// Advance to CPU cycle `now`; may issue at most one command per DRAM
  /// clock. Completed transactions are appended to `done`.
  void Tick(Cycle now, std::vector<DramCompletion>& done);

  /// True while the addressed rank is executing a refresh — RedCache's
  /// bypass-on-refresh checks this before routing a request to the HBM.
  bool RankRefreshing(std::uint32_t rank, Cycle now) const {
    return lanes_.Refreshing(rank, now);
  }

  void SetObserver(ColumnCommandObserver* obs) { observer_ = obs; }

  const ChannelCounters& counters() const { return counters_; }

  /// Earliest future cycle at which calling Tick could have an effect.
  Cycle NextEventHint(Cycle now) const;

  /// Wake bound valid immediately after an Enqueue, before any tick: the
  /// scheduler cannot act before both the command-bus slot frees and the
  /// sleep target Enqueue just refreshed (Tick's early-out gates on both,
  /// so no command can issue earlier by construction); pending data
  /// deliveries are the only other effect. Unlike NextEventHint this may be
  /// in the past ("due now") — the enqueue may precede this visit's device
  /// tick, and the new request could issue at the current cycle.
  Cycle EnqueueWake() const {
    return std::min(pending_done_min_, std::max(next_cmd_slot_, sleep_until_));
  }

  /// Checkpointing: timing lanes, the transaction queue with its slot pool
  /// (slot indices are identity — the continuation test compares them), the
  /// in-flight data, pacing state and counters. The derived scan state (row
  /// demand, active-bank set, packed summaries, memoized idle hint) is
  /// rebuilt from the restored queue.
  void Snapshot(ser::Writer& w) const;
  void Restore(ser::Reader& r);

 private:
  /// Cold per-transaction state, held in a fixed slot pool (queue_depth
  /// entries, free-list recycled). The scan never touches this — it walks
  /// the hot q_* lanes below; a slot is consulted only when a command
  /// actually issues (trace identity, burst countdown, completion payload).
  struct Pending {
    DramRequest req;
    std::uint32_t bursts_left = 0;
    bool first_command_issued = false;
  };
  enum class Action { kNone, kColumn, kActivate, kPrecharge };

  static constexpr Cycle kNever = ~Cycle{0};

  /// Next required command for queue position `i` and its earliest legal
  /// issue cycle — a branch-light select over the timing lanes.
  Action RequiredAction(std::size_t i, Cycle& ready_at) const;

  /// Per-bank earliest possibly-ready pre-pass: for every bank with queued
  /// demand, the exact minimum over the ready cycles its transactions would
  /// report. Banks due at `now` are flagged in bank_due_ (returning the
  /// flagged count); the rest fold into `min_ready` so the arrival-order
  /// scan can skip them wholesale. Branchless: each bank is one packed
  /// (selector, bank-local gate) word (bank_summary_, maintained
  /// incrementally at mutation sites) combined with a per-scan LUT of the
  /// rank/shared terms — pure load / max / compare, no per-bank branches.
  std::uint32_t SummarizeBanks(Cycle now, Cycle& min_ready);

  /// Recompute bank_summary_[b] from the current demand and lane state.
  /// Must be called after any mutation that changes the bank's mode or its
  /// bank-local gate: commands on the bank, demand add/remove, refresh
  /// (raises act gates), and continuation hand-over.
  void RefreshBankSummary(std::uint32_t bank_idx);

  void IssueColumn(std::size_t i, Cycle now);
  void IssueActivate(std::size_t i, Cycle now);
  void IssuePrecharge(std::uint32_t bank_idx, Cycle now);
  /// Handles refresh duty. Returns true if a command slot was consumed.
  bool MaybeRefresh(Cycle now, Cycle& min_ready);
  /// Issue-time pre-pass (DESIGN.md §12): after a scheduler command, run
  /// the next command slot's per-bank pre-pass now. If no bank is due
  /// there, set sleep_until_ as that slot's pass would; otherwise keep the
  /// result for it. Skipped when that pass could take another branch
  /// (empty queue, refresh bookkeeping due, starved head).
  void PrepassNextSlot();

  /// Remove queue position `i` (compacting the arrival-order lanes) and
  /// return its slot to the free pool.
  void RemoveFromQueue(std::size_t i);

  template <class Self, class Ar>
  static void Io(Self& s, Ar& a);

  // Incrementally-maintained per-(bank, row) demand, split by direction:
  // the scheduler's "may I close this row" test and the per-bank summary's
  // "which column directions are represented" test both read it.
  void AddRowDemand(std::uint32_t bank_idx, std::uint64_t row, bool is_write);
  void SubRowDemand(std::uint32_t bank_idx, std::uint64_t row, bool is_write);
  struct RowDemand {
    std::uint64_t row;
    std::uint32_t reads;
    std::uint32_t writes;
  };
  const RowDemand* FindDemand(std::uint32_t bank_idx, std::uint64_t row) const;

  // Visit-path-hot state, grouped at the object head so Tick's early-outs
  // and NextEventHint (which run for every channel on every event-loop
  // visit, busy or idle) touch as few cache lines as possible.
  Cycle pending_done_min_ = ~Cycle{0};  ///< earliest pending_done_ delivery
  Cycle next_cmd_slot_ = 0;  ///< command bus: one command per DRAM clock
  Cycle sleep_until_ = 0;    ///< no scheduling work possible before this
  Cycle refresh_wake_ = 0;   ///< earliest cycle refresh bookkeeping matters
  /// Idle-branch NextEventHint memo: min over ranks of refresh_until /
  /// next_refresh. Valid while refresh_epoch_ matches and now < idle_hint_
  /// (see NextEventHint for why the value is constant on that window).
  mutable Cycle idle_hint_ = 0;
  mutable std::uint64_t idle_hint_epoch_ = ~std::uint64_t{0};
  std::uint64_t refresh_epoch_ = 0;  ///< bumped on every StartRefresh
  /// Issue-time pre-pass result for command slot prepass_slot_ (kNever when
  /// none): the due count, and either the min over banks not due (due > 0,
  /// with bank_due_ holding the flags) or the sleep_until_ it replaced
  /// (due == 0), restored if an Enqueue lands before that slot's pass.
  Cycle prepass_slot_ = ~Cycle{0};
  Cycle prepass_min_ = 0;
  Cycle prepass_saved_sleep_ = 0;
  std::uint32_t prepass_due_ = 0;
  /// Queue lane of cold-state indices into slots_; declared here (not with
  /// its sibling lanes below) because its header's empty() test is on the
  /// every-visit path.
  std::vector<std::int32_t> q_slot_;
  std::vector<DramCompletion> pending_done_;  ///< data still on the bus

  DramConfig cfg_;
  TimingLanes lanes_;

  // Arrival-order queue lanes (structure-of-arrays, compacted on removal):
  // everything the FR-FCFS scan reads per transaction, contiguous.
  std::vector<std::uint32_t> q_bank_;  ///< rank * banks_per_rank + bank
  std::vector<std::uint32_t> q_rank_;
  std::vector<std::uint64_t> q_row_;
  std::vector<std::uint8_t> q_write_;
  std::vector<Cycle> q_arrival_;       ///< anti-starvation reads the head's

  std::vector<Pending> slots_;            ///< fixed pool, queue_depth entries
  std::vector<std::int32_t> free_slots_;  ///< unused slot indices (stack)

  /// Distinct rows demanded by queued transactions, per bank. Each inner
  /// vector is tiny (bounded by queued transactions on that bank). Only
  /// consulted when a bank's open row changes — the hot pre-pass reads the
  /// flat open_reads_/open_writes_ lanes below instead.
  std::vector<std::vector<RowDemand>> row_demand_;
  std::vector<std::uint32_t> demand_count_;  ///< queued transactions per bank
  /// Queued demand on each bank's *currently open* row, split by direction
  /// (zero while the bank is closed). Incrementally maintained at demand
  /// add/remove and at activate/precharge, so the per-bank pre-pass and the
  /// "may I close this row" guard are flat-lane loads, not demand-list
  /// walks.
  std::vector<std::uint32_t> open_reads_;
  std::vector<std::uint32_t> open_writes_;
  std::vector<std::uint8_t> bank_due_;  ///< scratch: bank can issue at `now`

  /// Banks with demand_count_ > 0, unordered (swap-removed), with per-bank
  /// positions. The summary pre-pass walks this instead of all banks, so a
  /// near-empty queue costs O(queued banks), not O(banks) — stale bank_due_
  /// entries of inactive banks are never read because the arrival scan only
  /// consults bank_due_[q_bank_[i]], and a queued bank is active.
  std::vector<std::uint32_t> active_banks_;
  std::vector<std::int32_t> active_pos_;  ///< per bank: index, -1 inactive

  /// Packed per-bank summary word: (bank-local gate << 3) | selector. The
  /// selector picks which rank/shared term completes the max-chain (see
  /// SummarizeBanks): 0 none/empty, 1 activate, 2 precharge, 3 + dirmask
  /// column (dirmask bit0 = reads, bit1 = writes, continuation excluded —
  /// it is folded in separately from cont_shared).
  std::vector<std::uint64_t> bank_summary_;
  std::vector<std::uint32_t> rank_lut_base_;  ///< per bank: rank index * 8
  std::vector<Cycle> summary_lut_;  ///< scratch: 8 rank/shared terms per rank

  /// Burst continuation: the transaction that issued the previous column
  /// command, if it still has bursts queued. Its follow-up bursts bypass
  /// tCCD (ContinuationReady), so the per-bank summary and the scan treat
  /// it specially. Slot index, -1 when none.
  std::int32_t cont_slot_ = -1;
  std::uint32_t cont_bank_ = 0;
  std::uint64_t cont_row_ = 0;
  bool cont_write_ = false;

  /// Direction of the last data burst (turnaround counters only; the
  /// turnaround *timing* lives in the shared lanes).
  enum class LastData { kNone, kRead, kWrite } last_data_ = LastData::kNone;
  std::uint32_t write_count_ = 0;  ///< writes currently in the queue

  ChannelCounters counters_;
  ColumnCommandObserver* observer_ = nullptr;

  // Trace identity (obs/trace.hpp): which Perfetto process and track group
  // this channel's command events render under. Fixed at construction.
  std::uint16_t channel_index_ = 0;
  std::uint8_t trace_device_ = 0;
};

}  // namespace redcache
