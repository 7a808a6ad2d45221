// Full-system simulator: cores -> L1/L2/L3 -> memory controller -> DRAM.
//
// Event-paced: the run loop advances time to the earliest cycle at which a
// core or the memory system can make progress, so idle stretches are
// skipped while busy periods are simulated at DRAM-command resolution.
#pragma once

#include <deque>
#include <functional>
#include <memory>

#include "common/serialize.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "cpu/core.hpp"
#include "dramcache/controller.hpp"
#include "energy/model.hpp"
#include "obs/epoch_sampler.hpp"
#include "sram/hierarchy.hpp"
#include "workloads/trace.hpp"

namespace redcache {

/// Outcome of one simulation.
struct RunResult {
  bool completed = false;
  Cycle exec_cycles = 0;
  StatSet stats;              ///< devices + controller + core counters
  EnergyBreakdown energy;
  /// Event-loop economics: iterations actually executed vs cycles jumped
  /// over by skip-ahead. Kept out of `stats` so golden comparisons and the
  /// skip/no-skip differential stay mode-independent.
  std::uint64_t ticks_executed = 0;
  std::uint64_t cycles_skipped = 0;
  /// DRAM scheduler host-cost ledger, summed over every channel of both
  /// devices; outside `stats` for the same reason. Counts since the
  /// controller was built (after a restore: since the restore).
  SchedulerLedger dram_ledger;
  /// Telemetry epochs closed when RunSpec::telemetry_path was set; 0
  /// otherwise (and on batch cache hits — observability is not cached).
  std::uint64_t telemetry_epochs = 0;

  // Convenience accessors over `stats`.
  std::uint64_t HbmBytes() const { return stats.GetCounter("hbm.bytes_transferred"); }
  std::uint64_t MmBytes() const { return stats.GetCounter("ddr4.bytes_transferred"); }
};

class System : private MemoryPort {
 public:
  System(const HierarchyConfig& hierarchy_cfg, const CoreParams& core_params,
         std::unique_ptr<MemController> controller,
         std::unique_ptr<TraceSource> trace, std::uint64_t seed = 1);

  /// Observe every request entering the memory system (Fig. 3 profiling).
  using RequestObserver = std::function<void(Addr addr, bool is_writeback)>;
  void SetRequestObserver(RequestObserver obs) { observer_ = std::move(obs); }

  /// Attach an epoch sampler (owned by the caller; must outlive Run). When
  /// attached, the run loop snapshots stats + telemetry gauges every
  /// sampler-epoch; detached (default) the loop does no telemetry work.
  void SetTelemetry(obs::EpochSampler* sampler) { telemetry_ = sampler; }

  /// Attach per-tenant QoS accounting for a multi-tenant mix. The System
  /// takes ownership and shares the instance with every core and the
  /// controller; Run() then exports "tenant<N>.*" counters alongside the
  /// usual stats. Never attached for single-tenant runs, whose stats stay
  /// byte-identical.
  void SetTenantAccounting(std::unique_ptr<tenant::TenantAccounting> acct);
  tenant::TenantAccounting* tenant_accounting() { return tenant_acct_.get(); }

  /// Run to completion (or `max_cycles`). May be called once. After a
  /// Restore, re-enters the event loop at the checkpointed cycle.
  RunResult Run(Cycle max_cycles = ~Cycle{0});

  /// Checkpoint emission. The hook fires at the top of a loop iteration —
  /// before the telemetry sample, the writeback drain, and any component
  /// tick — so every component is quiescent-at-cycle-boundary when the
  /// hook snapshots it. Skip-ahead jumps are clamped to the next due cycle
  /// (exactly like telemetry epochs), and a clamped visit re-derives the
  /// same pacing, so enabling checkpoints cannot perturb simulation state.
  /// `every == 0` means one-shot: fire once at `first_due`, then disarm.
  using CheckpointHook = std::function<void(Cycle now)>;
  void SetCheckpointHook(Cycle first_due, Cycle every, CheckpointHook hook) {
    ckpt_next_ = first_due;
    ckpt_every_ = every;
    ckpt_hook_ = std::move(hook);
  }

  /// Serialize the complete mutable simulation state at cycle `now` (must
  /// be a cycle at which the run loop is at its iteration top — i.e. from
  /// inside a checkpoint hook, or before Run was ever entered).
  void Snapshot(ser::Writer& w, Cycle now) const;
  /// Reconstitute state captured by Snapshot into this freshly built
  /// System (same RunSpec => same shapes). The next Run() call resumes at
  /// the checkpointed cycle and replays bit-identically.
  void Restore(ser::Reader& r);
  /// Cycle the next Run() will start at: 0 normally, the checkpointed
  /// cycle after a Restore.
  Cycle resume_cycle() const { return resume_now_; }

  /// Forward fixed-latency functional timing to the memory system (SMARTS
  /// fast-forward between measurement intervals).
  void SetFunctionalTiming(Cycle fixed_latency) {
    controller_->SetFunctionalTiming(fixed_latency);
  }

  /// Cumulative stats + gauges as of `now` — the same snapshot the epoch
  /// sampler sees. Public so restore paths can seed telemetry baselines
  /// and the sampler can difference measurement intervals.
  StatSet CumulativeStats(Cycle now) const { return TelemetrySnapshot(now); }

  const MemController& controller() const { return *controller_; }
  MemController& controller() { return *controller_; }
  const CacheHierarchy& hierarchy() const { return hierarchy_; }
  /// The trace feeding the cores (serve mode reaches through this to
  /// install its stop flag on the underlying StreamTraceSource).
  TraceSource& trace() { return *trace_; }

 private:
  bool TrySubmitRead(Addr addr, std::uint64_t tag, Cycle now) override;
  void SubmitWriteback(Addr addr, Cycle now) override;

  template <class Self, class Ar>
  static void Io(Self& s, Ar& a, Cycle now = 0);

  void ExportCoreStats(StatSet& stats) const;
  /// One cumulative snapshot for the epoch sampler (stats + gauges). It is
  /// overwritten in place on every call, so epochs do not rebuild a
  /// string-keyed map; the reference is valid until the next call.
  const StatSet& TelemetrySnapshot(Cycle now) const;

  CacheHierarchy hierarchy_;
  std::unique_ptr<MemController> controller_;
  std::unique_ptr<TraceSource> trace_;
  std::vector<std::unique_ptr<Core>> cores_;
  std::deque<Addr> wb_queue_;
  RequestObserver observer_;
  obs::EpochSampler* telemetry_ = nullptr;
  mutable StatSet telemetry_snap_;  ///< see TelemetrySnapshot
  std::unique_ptr<tenant::TenantAccounting> tenant_acct_;
  /// Set by TrySubmitRead / the writeback drain: the controller's stored
  /// wake predates the new input, so it must be ticked at the next visit
  /// and the pacing hint recomputed fresh.
  bool input_submitted_ = false;
  std::uint64_t ticks_executed_ = 0;
  std::uint64_t cycles_skipped_ = 0;
  /// Run-loop pacing state, promoted to members so a checkpoint captures
  /// it: a core's backpressure retry hint (Core::Progress returning
  /// now + retry_interval) lives only here, and replaying it exactly is
  /// required for bit-identical resume.
  std::vector<Cycle> hints_;
  std::vector<char> poll_;
  Cycle ctrl_wake_ = 0;
  /// Derived from hints_/poll_ by the last core walk (not checkpointed;
  /// Run entry and Restore force a fresh walk): the minimum hint over the
  /// unfinished cores, whether every core has finished, and whether a
  /// completion marked a core for polling since that walk.
  Cycle core_min_ = 0;
  bool cores_done_ = false;
  bool core_walk_due_ = true;
  /// Resume support: the cycle Run() enters the loop at, and whether the
  /// tick/skip counters were restored (and must not be reset by Run).
  Cycle resume_now_ = 0;
  bool resumed_ = false;
  /// Checkpoint emission schedule (disarmed when the hook is empty).
  CheckpointHook ckpt_hook_;
  Cycle ckpt_next_ = ~Cycle{0};
  Cycle ckpt_every_ = 0;
  /// Writeback backlog beyond which cores are throttled.
  static constexpr std::size_t kWbThrottle = 256;
};

}  // namespace redcache
