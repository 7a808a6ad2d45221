// Memory-controller interface below the L3, plus a base class with the
// shared plumbing every policy needs: input queueing, a transaction pool,
// deferred device operations with backpressure, and completion routing.
//
// Concrete policies (NoHBM, Ideal, Alloy, Bear, RedCache family) implement
// the per-transaction state machines on top.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "common/serialize.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "dram/dram_system.hpp"
#include "dramcache/verify_hooks.hpp"
#include "tenant/accounting.hpp"

namespace redcache {

/// Response delivered to the CPU side for a demand read.
struct ReadCompletion {
  Addr addr = 0;
  std::uint64_t tag = 0;
  Cycle done = 0;
};

struct MemControllerConfig {
  DramConfig hbm = HbmCacheConfig();
  DramConfig mainmem = MainMemoryConfig();
  bool has_hbm = true;
  std::uint32_t input_queue_cap = 64;
  std::uint32_t txn_pool_size = 256;
  /// DRAM-cache line size in 64 B blocks (1 => fine-grained; 2/4 model the
  /// Fig. 2(b) 128 B / 256 B granularity study).
  std::uint32_t line_blocks = 1;
  /// RedCache-family threshold pins (RunSpec::alpha_pin / gamma_pin): fix
  /// alpha / gamma and turn their adaptation off. Other policies ignore
  /// them; BuildSystem refuses pins for those.
  std::optional<std::uint32_t> alpha_pin;
  std::optional<std::uint32_t> gamma_pin;
};

/// Abstract controller the System drives.
class MemController {
 public:
  virtual ~MemController() = default;

  virtual const char* name() const = 0;
  virtual bool CanAcceptRead() const = 0;
  virtual bool CanAcceptWriteback() const = 0;
  virtual void SubmitRead(Addr addr, std::uint64_t tag, Cycle now) = 0;
  virtual void SubmitWriteback(Addr addr, Cycle now) = 0;
  /// Advance to `now` and return the controller's next wake: the earliest
  /// cycle at which a future Tick could have any effect, assuming no new
  /// input is submitted in between (a Submit* re-arms the caller's wake).
  /// Ticking earlier is harmless — wakes are lower bounds, not appointments.
  virtual Cycle Tick(Cycle now) = 0;
  virtual std::vector<ReadCompletion>& read_completions() = 0;
  /// The same wake, computed without advancing state (const query); equals
  /// the value the last Tick returned while no input arrived since.
  virtual Cycle NextEventHint(Cycle now) const = 0;
  virtual void ExportStats(StatSet& stats) const = 0;
  /// True when no transaction is in flight anywhere below the L3.
  virtual bool Idle() const = 0;

  /// Telemetry-only counters and gauges, kept separate from ExportStats so
  /// enabling the epoch sampler cannot perturb golden-stats results. Names
  /// with the "gauge." prefix are point-in-time values (queue depths, the
  /// current gamma); the rest are cumulative and get differenced per epoch.
  /// Called only when telemetry is enabled. Default: nothing.
  virtual void SampleTelemetry(StatSet& /*out*/) const {}

  /// Attach a verification sink (see verify_hooks.hpp). Policies without
  /// instrumentation may ignore it; nullptr detaches.
  virtual void SetVerifySink(VerifySink* /*sink*/) {}

  /// Attach per-tenant QoS accounting (multi-tenant mixes only; nullptr
  /// detaches). With no accounting attached — every single-tenant run —
  /// the controller's behaviour and exported stats are bit-identical to a
  /// build without the feature. Default: ignore.
  virtual void SetTenantAccounting(tenant::TenantAccounting* /*acct*/) {}

  /// The concrete policy behind any verification decorators (the System
  /// uses this to reach device geometry for the energy model).
  virtual const MemController* underlying() const { return this; }

  /// Checkpointing (common/serialize.hpp). The defaults refuse, so a
  /// controller that has not opted in — notably the ShadowChecker verify
  /// decorator, whose full shadow memory image is deliberately not
  /// serializable — fails a checkpoint request loudly instead of silently
  /// dropping state. ControllerBase implements the plumbing and gives each
  /// policy SnapshotPolicy/RestorePolicy hooks for its own state.
  virtual void Snapshot(ser::Writer& w) const {
    (void)w;
    throw ser::SerializeError(std::string("controller \"") + name() +
                              "\" does not support checkpointing");
  }
  virtual void Restore(ser::Reader& r) {
    (void)r;
    throw ser::SerializeError(std::string("controller \"") + name() +
                              "\" does not support checkpointing");
  }

  /// Switch the owned devices to fixed-latency functional timing (SMARTS
  /// fast-forward; 0 restores detailed timing). Default: ignore — only
  /// device-owning controllers have timing to approximate.
  virtual void SetFunctionalTiming(Cycle /*fixed_latency*/) {}
};

/// Shared machinery. Subclasses implement StartTxn / OnDeviceComplete.
class ControllerBase : public MemController, protected ColumnCommandObserver {
 public:
  explicit ControllerBase(const MemControllerConfig& cfg);

  bool CanAcceptRead() const override {
    return input_.size() < cfg_.input_queue_cap;
  }
  bool CanAcceptWriteback() const override {
    return input_.size() < cfg_.input_queue_cap;
  }
  void SubmitRead(Addr addr, std::uint64_t tag, Cycle now) override;
  void SubmitWriteback(Addr addr, Cycle now) override;
  Cycle Tick(Cycle now) override;
  std::vector<ReadCompletion>& read_completions() override {
    return read_completions_;
  }
  /// Final, so Tick's own call to it is a direct one.
  Cycle NextEventHint(Cycle now) const final;
  void ExportStats(StatSet& stats) const override;
  bool Idle() const override;
  void SetVerifySink(VerifySink* sink) override { verify_sink_ = sink; }
  void SetTenantAccounting(tenant::TenantAccounting* acct) override {
    acct_ = acct;
  }
  void SampleTelemetry(StatSet& out) const override;

  const DramSystem* hbm() const { return hbm_.get(); }
  const DramSystem* mainmem() const { return mm_.get(); }
  /// Scheduler host-cost ledger over every channel of both devices.
  SchedulerLedger DramLedger() const {
    SchedulerLedger total = mm_->Ledger();
    if (hbm_ != nullptr) total += hbm_->Ledger();
    return total;
  }
  const MemControllerConfig& config() const { return cfg_; }

  /// Base-layer checkpointing: input queue, transaction pool (slot indices
  /// are identity — device user_tags reference them), deferred device ops,
  /// undelivered read completions, both devices, then the policy hooks.
  void Snapshot(ser::Writer& w) const override;
  void Restore(ser::Reader& r) override;

  void SetFunctionalTiming(Cycle fixed_latency) override {
    if (hbm_ != nullptr) hbm_->SetFunctionalTiming(fixed_latency);
    mm_->SetFunctionalTiming(fixed_latency);
  }

 protected:
  /// Policy-state checkpoint hooks, called after the base state. A policy
  /// whose only state is counters still implements these — the differential
  /// test (tests/sim/checkpoint_test.cpp) runs every registered policy.
  virtual void SnapshotPolicy(ser::Writer& /*w*/) const {}
  virtual void RestorePolicy(ser::Reader& /*r*/) {}

  struct Txn {
    Addr addr = 0;            ///< demand block address
    std::uint64_t tag = 0;    ///< CPU-side tag (reads only)
    bool is_writeback = false;
    int state = 0;            ///< policy-defined
    Addr aux_addr = 0;        ///< policy scratch (victim address etc.)
    std::uint32_t aux = 0;
    bool active = false;
  };

  static constexpr std::uint32_t kPostedOp = ~std::uint32_t{0};
  static constexpr Cycle kNeverWake = ~Cycle{0};

  /// Queue a device operation; issued to the device as channels free up.
  /// `txn` routes the completion back (kPostedOp = fire and forget).
  void SendHbm(std::uint32_t txn, Addr addr, bool is_write, Cycle now,
               std::uint32_t bursts = 1);
  void SendMm(std::uint32_t txn, Addr addr, bool is_write, Cycle now,
              std::uint32_t bursts = 1);

  /// Deliver the demand data to the CPU and release nothing (caller decides
  /// when the txn itself is finished via FreeTxn).
  void CompleteRead(Txn& txn, Cycle done);
  void FreeTxn(Txn& txn);

  std::uint32_t TxnIndex(const Txn& txn) const {
    return static_cast<std::uint32_t>(&txn - txns_.data());
  }

  // --- policy hooks -------------------------------------------------------
  /// Begin a new transaction (input already admitted).
  virtual void StartTxn(Txn& txn, Cycle now) = 0;
  /// A device operation belonging to `txn` completed.
  virtual void OnDeviceComplete(Txn& txn, bool from_hbm,
                                const DramCompletion& c, Cycle now) = 0;
  /// Per-tick policy work (RCU drain etc.). Default: nothing.
  virtual void PolicyTick(Cycle /*now*/) {}
  /// Wake the policy registers for PolicyTick work that is not driven by a
  /// device or input event — e.g. RCU entries parked until a channel goes
  /// idle. Folded into NextEventHint so the run loop keeps visiting while
  /// such state exists instead of polling every cycle. Default: never.
  virtual Cycle PolicyWake(Cycle /*now*/) const { return kNeverWake; }
  /// Extra counters under "ctrl.".
  virtual void ExportOwnStats(StatSet& /*stats*/) const {}
  /// Column-command observation (RedCache RCU). Default: ignore.
  void OnColumnCommand(const IssuedColumnCommand& /*cmd*/) override {}

  // --- verification event helpers (no-ops with no sink attached) ----------
  void NotifyFill(Addr block, bool dirty) {
    if (verify_sink_ != nullptr) verify_sink_->OnFill(block, dirty);
  }
  void NotifyCacheWrite(Addr block) {
    if (verify_sink_ != nullptr) verify_sink_->OnCacheWrite(block);
  }
  void NotifyMmWrite(Addr block) {
    if (verify_sink_ != nullptr) verify_sink_->OnMmWrite(block);
  }
  void NotifyVictimWriteback(Addr block) {
    if (verify_sink_ != nullptr) verify_sink_->OnVictimWriteback(block);
  }
  void NotifyInvalidate(Addr block) {
    if (verify_sink_ != nullptr) verify_sink_->OnInvalidate(block);
  }
  void NotifyServeRead(const Txn& txn, ServeSource src) {
    if (verify_sink_ != nullptr) {
      verify_sink_->OnServeRead(txn.addr, txn.tag, src);
    }
    // The serve notification is policy-independent, which makes it the one
    // reliable per-tenant hit/miss attribution point: kMainMemory is a miss,
    // everything else (cache, RCU RAM, IDEAL's "any") served on package.
    if (acct_ != nullptr) {
      acct_->OnServe(txn.addr, src != ServeSource::kMainMemory);
    }
  }

  // --- per-tenant accounting helpers --------------------------------------
  /// Scopes an "ambient" tenant for posted (fire-and-forget) device ops
  /// whose CPU-visible cause is known only to the policy — e.g. RedCache's
  /// RCU drains, where the HBM device address is a remapped set address
  /// that per-device attribution could never invert. `cpu_addr` must be a
  /// main-memory block address.
  class TenantScope {
   public:
    TenantScope(ControllerBase& c, Addr cpu_addr)
        : c_(c), prev_(c.ambient_tenant_), prev_valid_(c.ambient_valid_) {
      if (c_.acct_ != nullptr) {
        c_.ambient_tenant_ =
            static_cast<std::uint16_t>(c_.acct_->TenantOf(cpu_addr));
        c_.ambient_valid_ = true;
      }
    }
    ~TenantScope() {
      c_.ambient_tenant_ = prev_;
      c_.ambient_valid_ = prev_valid_;
    }
    TenantScope(const TenantScope&) = delete;
    TenantScope& operator=(const TenantScope&) = delete;

   private:
    ControllerBase& c_;
    std::uint16_t prev_;
    bool prev_valid_;
  };

  /// Count one RCU update drain against the tenant owning `cpu_block`.
  void CountRcuDrain(Addr cpu_block) {
    if (acct_ != nullptr) {
      acct_->OnRcuDrain(acct_->TenantOf(cpu_block));
    }
  }

  MemControllerConfig cfg_;
  std::unique_ptr<DramSystem> hbm_;  ///< null when has_hbm == false
  std::unique_ptr<DramSystem> mm_;

  // Base-level counters every policy shares.
  std::uint64_t reads_seen_ = 0;
  std::uint64_t writebacks_seen_ = 0;

  VerifySink* verify_sink_ = nullptr;
  tenant::TenantAccounting* acct_ = nullptr;

 private:
  struct Input {
    Addr addr;
    std::uint64_t tag;
    bool is_writeback;
  };
  struct DevOp {
    Addr addr;
    bool is_write;
    std::uint32_t bursts;
    std::uint32_t txn;
    std::uint32_t channel;  ///< cached mapping (avoids re-decoding per tick)
    std::uint16_t tenant;   ///< resolved at Send time
  };

  /// The tenant behind a device operation: the owning transaction's demand
  /// address when there is one, the ambient TenantScope for posted ops set
  /// up by the policy, else the device address itself (exact for main
  /// memory, whose addresses are CPU-visible).
  std::uint16_t ResolveTenant(std::uint32_t txn, Addr addr) const {
    if (txn != kPostedOp) {
      return static_cast<std::uint16_t>(acct_->TenantOf(txns_[txn].addr));
    }
    if (ambient_valid_) return ambient_tenant_;
    return static_cast<std::uint16_t>(acct_->TenantOf(addr));
  }

  bool HasFreeTxn() const { return !free_txns_.empty(); }
  bool HasDeferred() const {
    return !deferred_hbm_.empty() || !deferred_mm_.empty();
  }
  Txn& AllocTxn(const Input& in);
  void PumpDeferred(Cycle now);
  template <class Self, class Ar>
  static void Io(Self& s, Ar& a);
  void RouteCompletions(DramSystem& dev, bool from_hbm, Cycle now);

  std::deque<Input> input_;
  std::vector<Txn> txns_;
  std::vector<std::uint32_t> free_txns_;
  std::deque<DevOp> deferred_hbm_;
  std::deque<DevOp> deferred_mm_;
  std::vector<ReadCompletion> read_completions_;
  std::uint64_t active_txns_ = 0;
  std::uint16_t ambient_tenant_ = 0;
  bool ambient_valid_ = false;
};

}  // namespace redcache
