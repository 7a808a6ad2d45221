// Convenience layer used by benches, examples, the CLI and integration
// tests: build a System for (policy, workload, preset) and run it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "obs/epoch_sampler.hpp"
#include "sim/presets.hpp"
#include "sim/system.hpp"
#include "tenant/mix.hpp"
#include "workloads/benchmarks.hpp"

namespace redcache {

struct RunSpec {
  /// Registry policy name (see dramcache/policy_registry.hpp); also the
  /// policy label of the cell's CellKey.
  std::string policy = "Alloy";
  std::string workload = "LU";
  SimPreset preset = EvalPreset();
  /// Workload size multiplier. Benches also honor the REDCACHE_REFS_SCALE
  /// environment variable (see EffectiveScale).
  double scale = 1.0;
  /// Use `scale` exactly, ignoring REDCACHE_REFS_SCALE, for runs that must
  /// be reproducible across environments (tests, benchmarks).
  bool ignore_env_scale = false;
  std::uint64_t seed = 1;
  Cycle max_cycles = ~Cycle{0};
  /// Pin RedCache's alpha / gamma thresholds (adaptation off). Valid only
  /// for "redcache"-family policies — BuildSystem throws
  /// std::invalid_argument otherwise. Unset pins leave CellKey untouched.
  std::optional<std::uint32_t> alpha_pin;
  std::optional<std::uint32_t> gamma_pin;
  /// Wrap the controller in a strict ShadowChecker (src/verify/): every
  /// divergence from the reference memory model throws
  /// ShadowChecker::VerifyError, and RunOne audits the drain on completion.
  bool verify = false;
  /// Multi-tenant mix (src/tenant/). When active, `workload` is ignored:
  /// the mix's tenants are co-scheduled through a MixTraceSource, tenant
  /// accounting is attached, and stats gain "tenant<N>.*" counters. An
  /// inactive mix (the default) changes nothing — stats and cache/golden
  /// keys stay byte-identical to pre-mix builds.
  tenant::MixSpec mix;
  /// Serve mode: stream the trace from this path ("-" = stdin, or a pipe /
  /// FIFO / file) instead of synthesizing `workload`. With an active mix,
  /// the stream feeds the tenant whose workload label is "serve". Serve
  /// runs are never batch-cached (the stream's content is not part of any
  /// key).
  std::string serve_path;
  /// Observability only — excluded from cache keys and golden
  /// comparisons (CellKey enumerates its fields explicitly, so these never
  /// leak in). When non-empty, RunOne attaches an EpochSampler and streams
  /// the NDJSON telemetry records here ("-" = stdout, or a file / FIFO
  /// path) as epochs close; a path that cannot be opened fails the run.
  std::string telemetry_path;
  /// Epoch pacing for `telemetry_path` (fixed width or adaptive band);
  /// default uses the preset's telemetry_epoch_cycles.
  obs::EpochSpec epoch;
  /// Checkpoint/restore (DESIGN.md section 15). When `checkpoint_path` is
  /// set, RunOne writes a checkpoint blob there at the first event-loop
  /// visit at or after cycle `checkpoint_at` (the loop clamps skip-ahead so
  /// that visit lands exactly on the cycle). When `restore_path` is set,
  /// the freshly built System restores from that blob before running and
  /// resumes at the checkpointed cycle; a blob from a different spec is
  /// rejected. Both are excluded from cache keys (a restored run is never
  /// batch-cached; see RunCellCached).
  std::string checkpoint_path;
  Cycle checkpoint_at = 0;
  std::string restore_path;
};

/// `scale` combined with the REDCACHE_REFS_SCALE environment variable.
double EffectiveScale(double scale);

/// The registry policy name of the spec (`spec.policy`).
std::string PolicyNameOf(const RunSpec& spec);

/// Run identification for the spec's telemetry artifacts: arch/workload/
/// preset plus the canonical registry policy name and the mix descriptor
/// (exec_cycles is left for the caller to fill after the run).
obs::TelemetryMeta TelemetryMetaOf(const RunSpec& spec);

/// Build and run one simulation: RunBuilt(*BuildSystem(spec), spec).
RunResult RunOne(const RunSpec& spec);

/// Build the System without running it (integration tests / custom loops).
std::unique_ptr<System> BuildSystem(const RunSpec& spec);

/// Run a System built from `spec`, honouring the spec's restore,
/// telemetry, checkpoint and verify settings. Callers that need the System
/// around the run (the CLI's serve stop flag and verify summary) build it
/// themselves and finish through here.
RunResult RunBuilt(System& system, const RunSpec& spec);

}  // namespace redcache
