#include "sim/runner.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#include "dramcache/policy_registry.hpp"
#include "obs/telemetry_sink.hpp"
#include "sim/checkpoint.hpp"
#include "tenant/accounting.hpp"
#include "tenant/mix_trace.hpp"
#include "verify/shadow_checker.hpp"
#include "workloads/trace_file.hpp"

namespace redcache {

double EffectiveScale(double scale) {
  if (const char* env = std::getenv("REDCACHE_REFS_SCALE")) {
    const double s = std::atof(env);
    if (s > 0) return scale * s;
  }
  return scale;
}

std::string PolicyNameOf(const RunSpec& spec) { return spec.policy; }

namespace {

/// One tenant's trace: a Table II label, or the external stream for the
/// reserved "serve" label.
std::unique_ptr<TraceSource> MakeTenantTrace(const RunSpec& spec,
                                             const std::string& label,
                                             const WorkloadBuildParams& wp) {
  if (label == "serve") {
    if (spec.serve_path.empty()) {
      throw std::invalid_argument(
          "mix tenant \"serve\" needs a serve path (--serve)");
    }
    return std::make_unique<StreamTraceSource>(spec.serve_path);
  }
  return MakeWorkload(label, wp);
}

}  // namespace

std::unique_ptr<System> BuildSystem(const RunSpec& spec) {
  WorkloadBuildParams wp;
  wp.num_cores = spec.preset.hierarchy.num_cores;
  wp.scale = spec.ignore_env_scale ? spec.scale : EffectiveScale(spec.scale);

  std::unique_ptr<TraceSource> trace;
  std::unique_ptr<tenant::TenantAccounting> acct;
  if (spec.mix.active()) {
    // Each tenant replays exactly its solo trace (same cores, scale and
    // generator seed); only the address-space placement differs.
    std::vector<std::unique_ptr<TraceSource>> children;
    std::uint64_t max_footprint = 0;
    for (const tenant::TenantSpec& t : spec.mix.tenants) {
      auto child = MakeTenantTrace(spec, t.workload, wp);
      max_footprint = std::max(max_footprint, child->footprint_bytes());
      children.push_back(std::move(child));
    }
    const auto map = tenant::TenantAddressMap::Plan(
        spec.mix.mode, spec.mix.num_tenants(), max_footprint,
        spec.preset.mem.mainmem.geometry.capacity_bytes, spec.mix.window_bits);
    acct = std::make_unique<tenant::TenantAccounting>(map);
    for (std::uint32_t t = 0; t < spec.mix.num_tenants(); ++t) {
      acct->SetSoloBaseline(t, spec.mix.tenants[t].solo_exec_cycles,
                            spec.mix.tenants[t].solo_refs);
    }
    trace = std::make_unique<tenant::MixTraceSource>(
        std::move(children), spec.mix.tenants, map);
  } else if (!spec.serve_path.empty()) {
    trace = std::make_unique<StreamTraceSource>(spec.serve_path);
  } else {
    trace = MakeWorkload(spec.workload, wp);
  }

  MemControllerConfig mem = spec.preset.mem;
  if (spec.alpha_pin || spec.gamma_pin) {
    const PolicyInfo& info = GetPolicy(spec.policy);
    if (!AcceptsThresholdPins(info)) {
      throw std::invalid_argument(
          "alpha/gamma pins apply only to redcache-family policies; " +
          std::string(info.name) + " is family \"" + std::string(info.family) +
          "\"");
    }
    mem.alpha_pin = spec.alpha_pin;
    mem.gamma_pin = spec.gamma_pin;
  }
  auto controller = MakePolicy(spec.policy, mem);
  if (spec.verify) {
    ShadowChecker::Options opts;
    opts.strict = true;
    controller =
        std::make_unique<ShadowChecker>(std::move(controller), opts);
  }
  auto system = std::make_unique<System>(spec.preset.hierarchy,
                                         spec.preset.core,
                                         std::move(controller),
                                         std::move(trace), spec.seed);
  if (acct != nullptr) system->SetTenantAccounting(std::move(acct));
  return system;
}

obs::TelemetryMeta TelemetryMetaOf(const RunSpec& spec) {
  obs::TelemetryMeta meta;
  meta.workload = spec.mix.active()
                      ? spec.mix.Describe()
                      : (!spec.serve_path.empty() ? "serve:" + spec.serve_path
                                                  : spec.workload);
  meta.preset = spec.preset.name;
  meta.policy = spec.policy;
  if (spec.mix.active()) meta.mix = spec.mix.Describe();
  return meta;
}

RunResult RunOne(const RunSpec& spec) {
  return RunBuilt(*BuildSystem(spec), spec);
}

RunResult RunBuilt(System& system, const RunSpec& spec) {
  // Checkpoint blobs are keyed by the spec's CellKey, so a blob can never
  // restore into a run built from different inputs.
  std::string spec_key;
  if (!spec.checkpoint_path.empty() || !spec.restore_path.empty()) {
    spec_key = ckpt::SpecKeyOf(spec);
  }
  if (!spec.restore_path.empty()) {
    ckpt::RestoreInto(system, ckpt::LoadFile(spec.restore_path), spec_key);
  }
  std::unique_ptr<obs::TelemetrySession> telemetry;
  obs::TelemetryMeta meta;
  if (!spec.telemetry_path.empty()) {
    telemetry = std::make_unique<obs::TelemetrySession>(
        spec.telemetry_path, spec.epoch, spec.preset.telemetry_epoch_cycles);
    meta = TelemetryMetaOf(spec);
    if (!spec.restore_path.empty()) {
      // Seed the telescoping baseline BEFORE Begin, so the NDJSON header
      // carries restored_at + the pre-restore cumulative counters and the
      // validator's sum(deltas) + baseline == totals check holds whatever
      // epoch settings the resumed run uses.
      const Cycle at = system.resume_cycle();
      telemetry->sampler().SeedBaseline(at, system.CumulativeStats(at));
    }
    system.SetTelemetry(&telemetry->sampler());
    telemetry->Begin(meta);
  }
  if (!spec.checkpoint_path.empty()) {
    const std::string path = spec.checkpoint_path;
    system.SetCheckpointHook(
        spec.checkpoint_at, /*every=*/0, [&system, path, spec_key](Cycle now) {
          ckpt::SaveFile(path, ckpt::Capture(system, now, spec_key));
        });
  }
  RunResult result = system.Run(spec.max_cycles);
  if (telemetry != nullptr) {
    meta.exec_cycles = result.exec_cycles;
    telemetry->Close(meta);
    result.telemetry_epochs = telemetry->sampler().total_epochs();
  }
  if (spec.verify && result.completed) {
    if (auto* checker = dynamic_cast<ShadowChecker*>(&system.controller())) {
      checker->CheckDrained();
    }
  }
  return result;
}

}  // namespace redcache
