#include "sim/system.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "sim/event_core.hpp"

namespace redcache {

System::System(const HierarchyConfig& hierarchy_cfg,
               const CoreParams& core_params,
               std::unique_ptr<MemController> controller,
               std::unique_ptr<TraceSource> trace, std::uint64_t seed)
    : hierarchy_(hierarchy_cfg),
      controller_(std::move(controller)),
      trace_(std::move(trace)) {
  const std::uint32_t n = std::min(hierarchy_cfg.num_cores,
                                   trace_->num_cores());
  for (std::uint32_t c = 0; c < n; ++c) {
    // The private-base upcast must happen here, inside the class scope.
    MemoryPort* port = this;
    cores_.push_back(std::make_unique<Core>(c, core_params, trace_.get(),
                                            &hierarchy_, port, seed));
  }
  hints_.assign(cores_.size(), 0);
  // A core is re-polled when its hint comes due or a completion arrived.
  poll_.assign(cores_.size(), 1);
}

void System::SetTenantAccounting(
    std::unique_ptr<tenant::TenantAccounting> acct) {
  tenant_acct_ = std::move(acct);
  for (auto& core : cores_) core->SetTenantAccounting(tenant_acct_.get());
  controller_->SetTenantAccounting(tenant_acct_.get());
}

bool System::TrySubmitRead(Addr addr, std::uint64_t tag, Cycle now) {
  if (wb_queue_.size() > kWbThrottle) return false;
  if (!controller_->CanAcceptRead()) return false;
  controller_->SubmitRead(addr, tag, now);
  input_submitted_ = true;
  if (observer_) observer_(addr, /*is_writeback=*/false);
  return true;
}

void System::SubmitWriteback(Addr addr, Cycle now) {
  (void)now;
  wb_queue_.push_back(addr);
  if (observer_) observer_(addr, /*is_writeback=*/true);
}

RunResult System::Run(Cycle max_cycles) {
  RunResult result;
  const bool no_skip = NoSkipRequested();
  // The pacing state (hints_/poll_/ctrl_wake_) lives in members so that a
  // checkpoint captures it: the controller's stored wake is the value its
  // last Tick returned — between visits it is quiescent unless new input
  // arrives, so ticking it strictly before `ctrl_wake_` with
  // `input_submitted_` clear would be a provable no-op (DESIGN.md section
  // 10) and is skipped. A core's hint can be a backpressure retry
  // (now + retry_interval), which no component re-derives on its own.
  Cycle now = resume_now_;
  if (!resumed_) {
    ticks_executed_ = 0;
    cycles_skipped_ = 0;
  }
  core_walk_due_ = true;

  while (now <= max_cycles) {
    // Checkpoint emission happens before anything else in the iteration:
    // every component is at a cycle boundary and the loop state above is
    // exactly what Restore needs to re-enter here.
    if (ckpt_hook_ && now >= ckpt_next_) {
      ckpt_hook_(now);
      ckpt_next_ = ckpt_every_ == 0 ? ~Cycle{0} : ckpt_next_ + ckpt_every_;
    }
    ticks_executed_++;
    // Telemetry epoch boundary (single predictable branch when detached).
    // Time jumps are clamped to the next boundary below, so this samples
    // exactly at the epoch edge even under skip-ahead.
    if (telemetry_ != nullptr && telemetry_->Due(now)) {
      telemetry_->Sample(now, TelemetrySnapshot(now));
    }

    // Drain buffered L3 writebacks into the controller.
    while (!wb_queue_.empty() && controller_->CanAcceptWriteback()) {
      controller_->SubmitWriteback(wb_queue_.front(), now);
      wb_queue_.pop_front();
      input_submitted_ = true;
    }

    if (input_submitted_ || now >= ctrl_wake_) {
      ctrl_wake_ = controller_->Tick(now);
      input_submitted_ = false;
    }

    auto& completions = controller_->read_completions();
    for (const ReadCompletion& c : completions) {
      const auto core = static_cast<std::uint32_t>(c.tag >> 48);
      assert(core < cores_.size());
      cores_[core]->OnMemComplete(c.tag, std::max(now, c.done));
      poll_[core] = 1;
      core_walk_due_ = true;
    }
    completions.clear();

    // The cores' minimum hint and all-done flag change only when a core is
    // polled, so the walk runs only when a completion marked a core or the
    // earliest hint is due; otherwise every core would be skipped anyway.
    if (core_walk_due_ || core_min_ <= now) {
      cores_done_ = true;
      core_min_ = Core::kWaiting;
      for (std::size_t i = 0; i < cores_.size(); ++i) {
        if (cores_[i]->Finished()) continue;
        if (poll_[i] == 0 && hints_[i] > now) {
          cores_done_ = false;
          core_min_ = std::min(core_min_, hints_[i]);
          continue;
        }
        hints_[i] = cores_[i]->Progress(now);
        poll_[i] = 0;
        // Re-check after Progress: a core that retired its last reference
        // this visit must not hold the loop open, or the exit test only
        // passes one visit later — which under skip-ahead can be a refresh
        // interval away and inflates exec_cycles past the true quiesce
        // point.
        if (cores_[i]->Finished()) continue;
        cores_done_ = false;
        core_min_ = std::min(core_min_, hints_[i]);
      }
      core_walk_due_ = false;
    }
    Cycle next = core_min_;

    if (cores_done_ && wb_queue_.empty() && controller_->Idle()) {
      result.completed = true;
      break;
    }

    // Pacing. If a core submitted reads during Progress the stored wake
    // predates that input, so ask for a fresh hint; otherwise the stored
    // wake is already exact.
    Cycle ctrl_next =
        input_submitted_ ? controller_->NextEventHint(now) : ctrl_wake_;
    if (!wb_queue_.empty()) ctrl_next = std::min(ctrl_next, now + 1);
    next = std::min(next, ctrl_next);
    if (next == Core::kWaiting) {
      throw std::logic_error(
          "simulation deadlock: nothing can make progress");
    }
    Cycle target = no_skip ? now + 1 : std::max(now + 1, next);
    // Clamp jumps to the next telemetry epoch boundary so epochs stay
    // exact. A clamped visit finds nothing due and re-derives the same
    // pacing, so attaching telemetry cannot perturb simulation state.
    if (telemetry_ != nullptr && target > telemetry_->next_due()) {
      target = std::max(now + 1, telemetry_->next_due());
    }
    // Same clamping for checkpoint emission: land exactly on the due
    // cycle so the hook fires at the boundary it was scheduled for. The
    // extra (no-op) visits only move ticks_executed_, which lives outside
    // result.stats — enabling checkpoints never changes reported stats.
    if (ckpt_hook_ && target > ckpt_next_) {
      target = std::max(now + 1, ckpt_next_);
    }
    // A truncated run stops at the first cycle past max_cycles, whatever
    // the pacing: its exec_cycles must not depend on how far the last jump
    // would have gone.
    if (max_cycles != ~Cycle{0} && target > max_cycles + 1) {
      target = max_cycles + 1;
    }
    cycles_skipped_ += target - now - 1;
    now = target;
  }

  result.ticks_executed = ticks_executed_;
  result.cycles_skipped = cycles_skipped_;

  Cycle finish = now;
  for (const auto& c : cores_) {
    finish = std::max(finish, c->finish_time());
  }
  result.exec_cycles = finish;

  if (telemetry_ != nullptr) {
    telemetry_->Finalize(finish, TelemetrySnapshot(finish));
  }

  controller_->ExportStats(result.stats);
  ExportCoreStats(result.stats);
  if (tenant_acct_ != nullptr) tenant_acct_->ExportStats(result.stats);
  result.stats.Counter("sys.exec_cycles") = finish;

  const EnergyModel energy_model;
  // Reach through any verification decorator to the concrete policy for the
  // device geometry the energy model needs.
  std::uint32_t hbm_channels = 0;
  std::uint32_t ddr_channels = 0;
  if (const auto* base =
          dynamic_cast<const ControllerBase*>(controller_->underlying())) {
    if (const DramSystem* hbm = base->hbm()) hbm_channels = hbm->num_channels();
    ddr_channels = base->mainmem()->num_channels();
    result.dram_ledger = base->DramLedger();
  }
  result.energy = energy_model.Compute(
      result.stats, finish, static_cast<std::uint32_t>(cores_.size()),
      hbm_channels, ddr_channels);
  return result;
}

template <class Self, class Ar>
void System::Io(Self& s, Ar& a, Cycle now) {
  constexpr const char* kCoreCount = "checkpoint core count mismatch";
  a.Section("sys");
  a.U64(Ar::kReading ? s.resume_now_ : now);  // where the next Run resumes
  a.U64(s.ticks_executed_);
  a.U64(s.cycles_skipped_);
  a.Bool(s.input_submitted_);
  a.U64(s.ctrl_wake_);
  a.U64Seq(s.hints_, kCoreCount);
  a.U8Seq(s.poll_, kCoreCount);
  a.U64Seq(s.wb_queue_);
  a.Part(s.hierarchy_);
  a.Records(s.cores_, 0, [&a](auto& c) { a.Part(*c); }, kCoreCount);
  a.Part(*s.trace_);
  a.Part(*s.controller_);
  bool has_tenants = s.tenant_acct_ != nullptr;
  a.Bool(has_tenants);
  if (has_tenants != (s.tenant_acct_ != nullptr)) {
    throw ser::SerializeError(
        "checkpoint tenant-accounting presence mismatch");
  }
  if (s.tenant_acct_ != nullptr) a.Part(*s.tenant_acct_);
  if constexpr (Ar::kReading) {
    s.core_walk_due_ = true;
    s.resumed_ = true;
  }
}

void System::Snapshot(ser::Writer& w, Cycle now) const { Io(*this, w, now); }
void System::Restore(ser::Reader& r) { Io(*this, r); }

const StatSet& System::TelemetrySnapshot(Cycle now) const {
  // Zero every value and let the exporters write them again, so an
  // exporter that assigns and one that adds (the verify decorator) both
  // see what a fresh set would show them. Exact because every exporter
  // names the same counters on every call (its names depend only on the
  // configuration); a new name is inserted in its sorted place.
  StatSet& snap = telemetry_snap_;
  snap.ZeroCounters();
  controller_->ExportStats(snap);
  controller_->SampleTelemetry(snap);
  ExportCoreStats(snap);
  trace_->SampleTelemetry(snap);
  if (tenant_acct_ != nullptr) tenant_acct_->SampleTelemetry(snap, now);
  snap.Counter("gauge.wb_queue_depth") = wb_queue_.size();
  // Event-loop economics. The cumulative counters become per-epoch deltas
  // in the series; the gauge is the running skip percentage so far.
  snap.Counter("sys.ticks_executed") = ticks_executed_;
  snap.Counter("sys.cycles_skipped") = cycles_skipped_;
  const std::uint64_t elapsed = ticks_executed_ + cycles_skipped_;
  snap.Counter("gauge.skip_pct") =
      elapsed == 0 ? 0 : cycles_skipped_ * 100 / elapsed;
  return snap;
}

void System::ExportCoreStats(StatSet& stats) const {
  std::uint64_t refs = 0, l1h = 0, l2h = 0, l3h = 0, misses = 0;
  for (const auto& c : cores_) {
    refs += c->refs_processed();
    l1h += c->l1_hits();
    l2h += c->l2_hits();
    l3h += c->l3_hits();
    misses += c->misses_issued();
  }
  stats.Counter("core.refs") = refs;
  stats.Counter("core.l1_hits") = l1h;
  stats.Counter("core.l2_hits") = l2h;
  stats.Counter("core.l3_hits") = l3h;
  stats.Counter("core.misses") = misses;
  stats.Counter("core.l1_accesses") = refs;
  stats.Counter("core.l2_accesses") = refs - l1h;
  stats.Counter("core.l3_accesses") = refs - l1h - l2h;
}

}  // namespace redcache
