// One DRAM channel: transaction queue, FR-FCFS command scheduler, banks,
// shared command/data buses and read<->write turnaround tracking.
//
// The channel is tick-driven at CPU-cycle granularity but self-limits work:
// when nothing can issue it computes a wake-up cycle so the simulator can
// fast-forward through stalls.
//
// Hot-path layout (DESIGN.md §12): all device timing state lives in flat
// structure-of-arrays lanes (TimingLanes), the transaction queue is a
// slot pool threaded by an arrival-order list and one list per bank, and
// the FR-FCFS pick is one branchless loop over the banks with queued
// demand: each bank keeps its oldest candidate per command class, and the
// pick is the minimum (class, arrival sequence) key over the banks that
// can issue at `now`.
#pragma once

#include <algorithm>
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

/// Host-cost ledger of the command scheduler: how often its passes did
/// real work. Exact and deterministic, but kept out of ChannelCounters (and
/// so out of stats, goldens and checkpoints) because it describes the
/// simulator, not the simulated device; a restored channel counts from
/// zero.
struct SchedulerLedger {
  std::uint64_t idle_sleeps = 0;    ///< passes that found no bank due
  std::uint64_t empty_passes = 0;   ///< passes that found an empty queue
  std::uint64_t refresh_walks = 0;  ///< refresh bookkeeping past its fast path
  std::uint64_t pick_candidates = 0;  ///< bank summaries the FR-FCFS pick read

  SchedulerLedger& operator+=(const SchedulerLedger& o) {
    idle_sleeps += o.idle_sleeps;
    empty_passes += o.empty_passes;
    refresh_walks += o.refresh_walks;
    pick_candidates += o.pick_candidates;
    return *this;
  }
};

class DramChannel {
 public:
  DramChannel(const DramConfig& cfg, std::uint32_t channel_index);

  bool CanAccept() const { return QueueSize() < cfg_.controller.queue_depth; }
  bool QueueEmpty() const { return q_size_ == 0 && pending_done_.empty(); }
  std::size_t QueueSize() const { return q_size_; }

  /// Enqueue a transaction (caller checked CanAccept). `slot_ticked` says
  /// the channel's owner already ticked it at `req.arrival` this cycle, so
  /// the request arrives after that cycle's scheduler pass.
  void Enqueue(const DramRequest& req, bool slot_ticked = false);

  /// Advance to CPU cycle `now`; may issue at most one command per DRAM
  /// clock. Completed transactions are appended to `done`. Returns the
  /// channel's next wake, NextEventHint(now) after the pass.
  Cycle Tick(Cycle now, std::vector<DramCompletion>& done);

  /// True while the addressed rank is executing a refresh — RedCache's
  /// bypass-on-refresh checks this before routing a request to the HBM.
  bool RankRefreshing(std::uint32_t rank, Cycle now) const {
    return lanes_.Refreshing(rank, now);
  }

  void SetObserver(ColumnCommandObserver* obs) { observer_ = obs; }

  const ChannelCounters& counters() const { return counters_; }
  const SchedulerLedger& ledger() const { return ledger_; }

  /// Earliest future cycle at which calling Tick could have an effect.
  Cycle NextEventHint(Cycle now) const {
    // Exact, not conservative: commands issue only on DRAM command-slot
    // boundaries and Tick returns on misalignment, so the poll term rounds
    // up to the next slot — the cycles in between are provable no-ops.
    if (q_size_ == 0) return std::min(pending_done_min_, IdleHint(now));
    return std::min(pending_done_min_,
                    std::max({TimingLanes::AlignUp(now + 1), next_cmd_slot_,
                              sleep_until_}));
  }

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
  /// in-flight data, pacing state and counters. The derived scan state
  /// (demand counts, arrival sequences, per-bank oldest candidates,
  /// active-bank set, pick summaries, memoized idle hint) is rebuilt from
  /// the restored queue.
  void Snapshot(ser::Writer& w) const;
  void Restore(ser::Reader& r);

 private:
  /// Read access for the brute-force FR-FCFS oracle in tests/dram.
  friend class ChannelOraclePeer;

  /// Cold per-transaction state, held in a fixed slot pool (queue_depth
  /// entries, free-list recycled). The pick never touches this; a slot is
  /// consulted only when a command actually issues (trace identity, burst
  /// countdown, completion payload).
  struct Pending {
    DramRequest req;
    std::uint32_t bursts_left = 0;
    bool first_command_issued = false;
  };
  enum class Action { kNone, kColumn, kActivate, kPrecharge };

  static constexpr Cycle kNever = ~Cycle{0};

  /// FR-FCFS pick key: (command class << kClassShift) | (arrival sequence
  /// << kSlotBits) | slot. The smallest key among the commands ready at
  /// `now` is the one the arrival-order FR-FCFS walk would issue, and its
  /// low bits name the transaction. Classes, in priority order: 0 a read
  /// column (any column while writes drain), 1 a write column, 2 an
  /// activate or a precharge the open-row guard does not block.
  static constexpr unsigned kClassShift = 62;
  static constexpr unsigned kSlotBits = 8;
  static constexpr std::uint64_t kSlotMask = (std::uint64_t{1} << kSlotBits) - 1;
  static constexpr std::uint64_t kWriteClass = std::uint64_t{1} << kClassShift;
  static constexpr std::uint64_t kRowClass = std::uint64_t{2} << kClassShift;
  static constexpr std::uint64_t kNoPick = ~std::uint64_t{0};

  /// Next required command for the transaction in slot `s` and its
  /// earliest legal issue cycle — a branch-light select over the lanes.
  Action RequiredAction(std::int32_t s, Cycle& ready_at) const;
  /// The class-less pick key of the transaction in slot `s`.
  std::uint64_t EntryKey(std::int32_t s) const {
    return (q_[static_cast<std::size_t>(s)].seq << kSlotBits) |
           static_cast<std::uint64_t>(s);
  }
  Cycle HeadArrival() const {
    return q_[static_cast<std::size_t>(q_head_)].arrival;
  }

  /// The fused FR-FCFS pick (DESIGN.md §12): for every bank with queued
  /// demand, the exact earliest-ready cycle of its commands and, when that
  /// is due at `now`, its oldest candidate key per class. Returns the
  /// smallest due key (kNoPick when no bank is due); banks not due fold
  /// their earliest-ready cycle into `min_ready`. Branchless: each bank is
  /// one packed (bank-local gate, two LUT indices) word plus two keys
  /// (active_summary_, maintained incrementally at mutation sites) combined
  /// with a per-scan LUT of the rank/shared terms.
  std::uint64_t SummarizeBanks(Cycle now, Cycle& min_ready);

  /// Recompute bank `bank_idx`'s pick summary (if it has demand) from its
  /// demand, oldest candidates and lanes. Must be called after any
  /// mutation that changes the bank's mode, its bank-local gate or its
  /// oldest candidates: commands on the bank, demand add/remove and
  /// refresh (raises act gates).
  void RefreshBankSummary(std::uint32_t bank_idx);

  /// Issue the command a pick key names.
  void IssuePick(std::uint64_t pick, Cycle now);
  /// One scheduler pass at a command slot the channel is awake for.
  void SchedulePass(Cycle now);
  /// Idle-channel NextEventHint term: the memoized refresh wake.
  Cycle IdleHint(Cycle now) const;

  void IssueColumn(std::int32_t s, Cycle now);
  void IssueActivate(std::int32_t s, Cycle now);
  void IssuePrecharge(std::uint32_t bank_idx, Cycle now);
  /// Handles refresh duty. Returns true if a command slot was consumed.
  bool MaybeRefresh(Cycle now, Cycle& min_ready) {
    // Fast path: nothing refresh-related can happen before refresh_wake_.
    if (now < refresh_wake_) {
      min_ready = std::min(min_ready, refresh_wake_);
      return false;
    }
    return RefreshWalk(now, min_ready);
  }
  /// MaybeRefresh's slow path: walk the ranks, precharge for or start a
  /// due refresh, and re-arm refresh_wake_.
  bool RefreshWalk(Cycle now, Cycle& min_ready);
  /// Issue-time pre-pass (DESIGN.md §12): after a scheduler command, run
  /// the next command slot's pick now. If no bank is due there, set
  /// sleep_until_ as that slot's pass would; otherwise keep the pick for
  /// it. Skipped when that pass could take another branch (empty queue,
  /// refresh bookkeeping due, starved head).
  void PrepassNextSlot();

  /// Append slot `s` to the arrival-order and bank lists / unlink it.
  void Link(std::int32_t s);
  void Unlink(std::int32_t s);
  /// Remove the transaction in slot `s` from the queue, return the slot to
  /// the free pool and re-derive its bank's oldest open-row candidate if
  /// it was one.
  void RemoveFromQueue(std::int32_t s);
  /// Recount `bank_idx`'s open-row reads and writes and find the oldest of
  /// each, in one walk of the bank's list; after an activate changes the
  /// open row.
  void CountOpenRowDemand(std::uint32_t bank_idx);

  template <class Self, class Ar>
  static void Io(Self& s, Ar& a);

  // Incrementally-maintained per-bank demand: the queued count, and the
  // open-row count split by direction, which the scheduler's "may I close
  // this row" test and the per-bank summary's "which column directions
  // are represented" test both read. Demand is added in arrival order, so
  // AddRowDemand also records `slot` as the bank's oldest open-row read or
  // write when it is the first of its kind.
  void AddRowDemand(std::uint32_t bank_idx, std::uint64_t row, bool is_write,
                    std::int32_t slot);
  void SubRowDemand(std::uint32_t bank_idx, std::uint64_t row, bool is_write);

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
  /// none): the pick the slot's pass will issue, or kNoPick with the
  /// sleep_until_ it replaced, restored if an Enqueue lands before that
  /// slot's pass.
  Cycle prepass_slot_ = ~Cycle{0};
  Cycle prepass_saved_sleep_ = 0;
  std::uint64_t prepass_pick_ = ~std::uint64_t{0};
  std::uint32_t q_size_ = 0;  ///< queued transactions
  /// One queued transaction, by slot: what the scheduler reads of it (its
  /// cold payload stays in slots_) and its links in the channel's
  /// arrival-order list and its bank's (-1 ends a list).
  struct Queued {
    std::uint64_t row = 0;
    /// Arrival sequence, increasing along the queue: pick keys order
    /// transactions by it.
    std::uint64_t seq = 0;
    Cycle arrival = 0;       ///< anti-starvation reads the head's
    std::uint32_t bank = 0;  ///< rank * banks_per_rank + bank
    std::int32_t prev = -1;
    std::int32_t next = -1;
    std::int32_t bank_prev = -1;
    std::int32_t bank_next = -1;
    std::uint8_t is_write = 0;
  };
  std::vector<Queued> q_;  ///< queue_depth entries, indexed like slots_
  std::int32_t q_head_ = -1;  ///< oldest queued transaction
  std::int32_t q_tail_ = -1;
  std::vector<DramCompletion> pending_done_;  ///< data still on the bus

  DramConfig cfg_;
  TimingLanes lanes_;

  std::uint64_t next_seq_ = 0;  ///< the next enqueued transaction's seq

  std::vector<Pending> slots_;            ///< fixed pool, queue_depth entries
  std::vector<std::int32_t> free_slots_;  ///< unused slot indices (stack)

  std::vector<std::uint32_t> demand_count_;  ///< queued transactions per bank
  /// Queued demand on each bank's *currently open* row, split by direction
  /// (zero while the bank is closed). Maintained at demand add/remove,
  /// recounted from the queue at activate and zeroed at precharge, so the
  /// per-bank summary and the "may I close this row" guard are flat-lane
  /// loads.
  std::vector<std::uint32_t> open_reads_;
  std::vector<std::uint32_t> open_writes_;
  /// Per bank, its list of queued transactions in arrival order (the head
  /// is its oldest), and the slot of its oldest open-row read and write.
  /// Every entry of one class on one bank needs the same command at the
  /// same ready cycle, so the oldest is the only one FR-FCFS can pick. The
  /// oldest read/write is meaningful only while its open-row count is
  /// non-zero.
  std::vector<std::int32_t> bank_head_;
  std::vector<std::int32_t> bank_tail_;
  std::vector<std::int32_t> oldest_read_;
  std::vector<std::int32_t> oldest_write_;

  /// Pick summary of one bank with queued demand. `word` is (bank-local
  /// gate << 16) | (lut_b << 8) | lut_a, where lut_x = rank * 8 + selector
  /// indexes the rank/shared term that completes a candidate's max-chain
  /// (see SummarizeBanks); selectors: 0 none, 1 activate, 2 precharge, 3
  /// read column, 4 write column. Candidate a is the activate/precharge or
  /// the read column, b the write column; `key_a` / `key_b` are their pick
  /// keys. The continuation transaction, gated by ContinuationReady rather
  /// than ColumnReady, is folded in per scan.
  struct BankSummary {
    std::uint64_t word = 0;
    std::uint64_t key_a = ~std::uint64_t{0};
    std::uint64_t key_b = ~std::uint64_t{0};
  };

  /// Banks with demand_count_ > 0, unordered (swap-removed), with per-bank
  /// positions, and their pick summaries at the same positions. The pick
  /// walks the dense summaries instead of all banks, so a near-empty queue
  /// costs O(queued banks), not O(banks).
  std::vector<std::uint32_t> active_banks_;
  std::vector<BankSummary> active_summary_;
  std::vector<std::int32_t> active_pos_;  ///< per bank: index, -1 inactive
  std::vector<Cycle> summary_lut_;  ///< scratch: 8 rank/shared terms per rank

  /// Burst continuation: the transaction that issued the previous column
  /// command, if it still has bursts queued. Its follow-up bursts bypass
  /// tCCD (ContinuationReady), so the pick folds it in separately. Slot
  /// index, -1 when none.
  std::int32_t cont_slot_ = -1;
  std::uint32_t cont_bank_ = 0;
  std::uint64_t cont_row_ = 0;
  bool cont_write_ = false;

  /// Direction of the last data burst (turnaround counters only; the
  /// turnaround *timing* lives in the shared lanes).
  enum class LastData { kNone, kRead, kWrite } last_data_ = LastData::kNone;
  std::uint32_t write_count_ = 0;  ///< writes currently in the queue

  ChannelCounters counters_;
  SchedulerLedger ledger_;
  ColumnCommandObserver* observer_ = nullptr;

  // Trace identity (obs/trace.hpp): which Perfetto process and track group
  // this channel's command events render under. Fixed at construction.
  std::uint16_t channel_index_ = 0;
  std::uint8_t trace_device_ = 0;
};

}  // namespace redcache
