// Multi-channel DRAM device facade.
//
// Owners (cache controllers / the NoHBM path) enqueue block transactions,
// tick the system every CPU cycle, and drain completions. Channel selection
// comes from the address mapper; per-channel FR-FCFS scheduling, timing and
// refresh live in DramChannel.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/serialize.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "dram/address.hpp"
#include "dram/channel.hpp"
#include "dram/request.hpp"
#include "dram/timing.hpp"
#include "sim/event_core.hpp"

namespace redcache {

class DramSystem {
 public:
  explicit DramSystem(const DramConfig& cfg);

  const DramConfig& config() const { return cfg_; }

  /// Which channel would serve this address.
  std::uint32_t ChannelOf(Addr addr) const { return mapper_.Map(addr).channel; }

  bool CanAccept(Addr addr) const {
    return functional_latency_ != 0 || channels_[ChannelOf(addr)]->CanAccept();
  }
  bool ChannelCanAccept(std::uint32_t channel) const {
    return functional_latency_ != 0 || channels_[channel]->CanAccept();
  }

  /// Enqueue a transaction; returns its request id. The caller must have
  /// checked CanAccept. `bursts` > 1 models coarse-grained transfers;
  /// `tenant` tags the request for per-tenant accounting (0 = solo).
  RequestId Enqueue(Addr addr, bool is_write, Cycle now,
                    std::uint64_t user_tag = 0, std::uint32_t bursts = 1,
                    std::uint16_t tenant = 0);

  /// Advance every due channel to `now`; completions accumulate in
  /// completions(). With nothing due this is two compares.
  void Tick(Cycle now) {
    ticked_through_ = now + 1;
    if (func_pending_.empty() && wakes_.NoneDue(now)) return;
    TickDue(now);
  }

  /// Completions accumulated since the last Drain call.
  std::vector<DramCompletion>& completions() { return completions_; }

  /// True if the rank serving `addr` is mid-refresh (bypass-on-refresh).
  bool Refreshing(Addr addr, Cycle now) const;

  bool TransactionQueuesEmpty() const;
  /// Bit c set iff channel c's transaction queue has no requests (in-flight
  /// data that already left the queue does not count) — the RCU manager's
  /// "transaction queue becomes empty" drain condition. Kept incrementally:
  /// a queue fills only in Enqueue and empties only in its channel's tick.
  std::uint64_t empty_queue_mask() const { return empty_queue_mask_; }
  /// Channel `channel`'s queue read directly, independent of the mask.
  bool ChannelTransactionQueueEmpty(std::uint32_t channel) const;

  /// Observe every column command on every channel (RCU manager hook).
  void SetObserver(ColumnCommandObserver* obs);

  std::uint32_t num_channels() const {
    return static_cast<std::uint32_t>(channels_.size());
  }

  const ChannelCounters& channel_counters(std::uint32_t c) const {
    return channels_[c]->counters();
  }

  /// Sum of all channels' counters.
  ChannelCounters TotalCounters() const;

  /// Export counters into `stats` under "<name>." prefix.
  void ExportStats(StatSet& stats) const;

  /// Fast-forward hint: earliest cycle any channel could act — the stored
  /// per-channel wakes' cached minimum. Each was computed from its
  /// channel's current state (returned by its last tick, or set on
  /// enqueue), and channel state cannot change between ticks. A stored
  /// wake at or before `now` means a not-yet-ticked channel; returning it
  /// (<= now) tells the caller to keep visiting.
  Cycle NextEventHint(Cycle /*now*/) const {
    return std::min(FuncMin(), wakes_.Min());
  }

  /// Host-cost ledger summed over the channels.
  SchedulerLedger Ledger() const;

  const AddressMapper& mapper() const { return mapper_; }

  std::uint64_t inflight() const { return inflight_; }

  /// Functional ("fast-forward") timing for the SMARTS sampler: every
  /// transaction completes exactly `fixed_latency` cycles after Enqueue,
  /// bypassing the channel schedulers entirely — queues never fill, refresh
  /// never blocks. 0 restores detailed timing. Policy/tag state stays warm
  /// because the owning controller still sees every access; only the device
  /// timing is approximated, and the FF pass's timing stats are discarded.
  /// The latency cannot change while completions are pending: the pending
  /// list stays sorted by completion cycle only because every entry is
  /// `now + latency` for one latency.
  void SetFunctionalTiming(Cycle fixed_latency) {
    REDCACHE_CHECK(fixed_latency == functional_latency_ ||
                       func_pending_.empty(),
                   "functional latency changed with completions pending");
    functional_latency_ = fixed_latency;
  }
  bool functional_timing() const { return functional_latency_ != 0; }

  /// Checkpointing: request-id counter, in-flight bookkeeping, any pending
  /// functional-mode completions and every channel. The per-channel wake
  /// list is reset to "all due" on restore — a spurious channel visit is a
  /// provable no-op (DESIGN.md §10) that immediately re-derives the exact
  /// wake from the restored channel state.
  void Snapshot(ser::Writer& w) const;
  void Restore(ser::Reader& r);

 private:
  template <class Self, class Ar>
  static void Io(Self& s, Ar& a);
  /// Tick's body once a channel or a functional completion may be due.
  void TickDue(Cycle now);

  DramConfig cfg_;
  AddressMapper mapper_;
  std::vector<std::unique_ptr<DramChannel>> channels_;
  std::vector<DramCompletion> completions_;
  RequestId next_id_ = 1;
  std::uint64_t inflight_ = 0;
  /// Functional-mode state: fixed completion latency (0 = detailed) and the
  /// fixed-latency completions in enqueue order, which is also `done` order
  /// (`now` never decreases and the latency is fixed). Entries before
  /// `func_head_` are delivered; Tick delivers the due prefix after it. The
  /// delivered prefix is erased once it is half the list, so the list is
  /// empty exactly when nothing is pending. A checkpoint taken
  /// mid-fast-forward restores the undelivered entries into detailed mode
  /// as a transient boundary effect (the requests complete at their fixed
  /// times, then the detailed scheduler takes over).
  Cycle functional_latency_ = 0;
  std::vector<DramCompletion> func_pending_;
  std::size_t func_head_ = 0;
  /// Earliest undelivered fixed-latency completion (~0 if none).
  Cycle FuncMin() const {
    return func_pending_.empty() ? ~Cycle{0} : func_pending_[func_head_].done;
  }
  /// Per-channel wake cycles (event core): Tick visits only channels whose
  /// wake is due, and NextEventHint is the stored minimum. A channel's wake
  /// is refreshed from its NextEventHint after every real tick and on
  /// Enqueue; between those, channel state cannot change, so the stored
  /// hint stays exact.
  WakeList wakes_;
  /// One past the last cycle Tick ran for: an Enqueue at `now` below it
  /// lands after this cycle's channel passes (a skipped channel included).
  /// Zero after a restore, which is always taken at a cycle boundary.
  Cycle ticked_through_ = 0;
  /// See empty_queue_mask(); every bit set while no request is queued.
  std::uint64_t empty_queue_mask_ = 0;
};

}  // namespace redcache
