// Epoch time-series sampling over StatSet counters.
//
// The simulator's counters are cumulative; the interesting behavior is
// dynamic (gamma adapting per hit, the alpha table warming up, the RCU
// queue draining). The EpochSampler snapshots a cumulative StatSet every N
// simulated cycles and records the per-epoch *increment* of every counter,
// giving hit/miss/bypass rates, per-channel utilization, bandwidth and
// flush-reason time series without touching the simulation itself.
//
// Counter names with the "gauge." prefix are point-in-time values (queue
// depths, the current gamma, alpha-table occupancy): they are recorded raw
// at the sample instant, not differenced. Everything else is recorded as a
// signed per-epoch delta (signed because a few legacy ExportStats names,
// e.g. ctrl.resident_lines, are gauges exported as counters and may move
// down).
//
// Invariant (tested): the per-epoch deltas of a counter sum exactly to its
// final cumulative value, because deltas telescope — regardless of epoch
// width, adaptive resizing, or an early (serve-mode EOF) residual epoch.
//
// Two optional attachments (DESIGN.md section 14):
//  - a TelemetrySink (obs/telemetry_sink.hpp): each record is serialized
//    as one NDJSON line and written the moment the epoch closes, so a
//    long-running serve simulation can be watched live;
//  - an AdaptiveEpochController (obs/adaptive_epoch.hpp): the sampling
//    period shrinks across detected phase changes and grows back when the
//    series is flat, clamped to a [min, max] band.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"

namespace redcache::obs {

class AdaptiveEpochController;
struct AdaptiveEpochConfig;
class TelemetrySink;

/// Prefix marking point-in-time values (recorded raw, never differenced).
inline constexpr const char* kGaugePrefix = "gauge.";

struct EpochRecord {
  Cycle begin = 0;
  Cycle end = 0;
  std::map<std::string, std::int64_t> delta;    ///< per-epoch increments
  std::map<std::string, std::uint64_t> gauges;  ///< raw values at `end`
};

/// Per-epoch derived metrics computed from delta+gauges. All rates are
/// guarded against empty epochs (0/0 -> 0). Shared by the NDJSON epoch
/// line and the adaptive epoch controller.
struct DerivedMetrics {
  double hit_rate = 0.0;
  double bypass_rate = 0.0;
  double bw_bytes_per_cycle = 0.0;
};
DerivedMetrics DeriveMetrics(const EpochRecord& e);

/// How a run's telemetry epochs are paced: a fixed period, or the adaptive
/// controller seeded from the base period. Parsed from the CLI `--epoch`
/// value ("N", "auto", or "auto:MIN:MAX").
struct EpochSpec {
  Cycle cycles = 0;  ///< base period; 0 = the preset default
  bool adaptive = false;
  Cycle min_cycles = 0;  ///< adaptive lower clamp; 0 = base / 8
  Cycle max_cycles = 0;  ///< adaptive upper clamp; 0 = base * 4
};

/// Parse "--epoch" syntax: "250000" (fixed), "auto" (adaptive with derived
/// clamps), "auto:MIN:MAX" (explicit clamp band). Every number is whole
/// decimal digits within 64 bits. Returns false (out untouched) on
/// anything else, a sign or a blank included.
bool ParseEpochSpec(const std::string& text, EpochSpec& out);

class EpochSampler {
 public:
  /// `epoch_cycles` >= 1: nominal sampling period in simulated CPU cycles.
  /// The event-paced run loop clamps its time jumps to next_due(), so when
  /// attached to System::Run every record covers exactly epoch_cycles
  /// (except the Finalize residual). Driven by other loops a boundary may
  /// still be overshot; the record then covers the actual [begin, end).
  explicit EpochSampler(Cycle epoch_cycles);
  ~EpochSampler();
  EpochSampler(const EpochSampler&) = delete;
  EpochSampler& operator=(const EpochSampler&) = delete;

  /// Current sampling period. Constant unless adaptation is enabled.
  Cycle epoch_cycles() const { return epoch_cycles_; }

  /// Enable variance-driven epoch resizing (DESIGN.md section 14). Must be
  /// called before the first Sample. With adaptation on, every record also
  /// carries a "telemetry.epoch_cycles" gauge (the width that produced it)
  /// so the narrowing is visible in the exported series; with it off the
  /// output is byte-identical to pre-adaptive builds.
  void EnableAdaptive(const AdaptiveEpochConfig& cfg);
  bool adaptive() const { return adaptive_ != nullptr; }
  const AdaptiveEpochController* adaptive_controller() const {
    return adaptive_.get();
  }

  /// Attach a streaming sink: every record is written as one NDJSON epoch
  /// line the moment it closes. With `retain_epochs` false only the most
  /// recent record is kept in memory (bounded for arbitrarily long serve
  /// runs), so epochs() then holds just that record. The sink is borrowed
  /// and must outlive the sampler's last Sample/Finalize.
  void SetSink(TelemetrySink* sink, bool retain_epochs);

  /// Cheap inline check for the run loop.
  bool Due(Cycle now) const { return now >= next_due_; }

  /// Next epoch boundary. The event loop clamps its time jumps to this so
  /// epochs stay exact under skip-ahead (a clamped visit samples and
  /// re-derives the same wake; it cannot perturb simulation state).
  Cycle next_due() const { return next_due_; }

  /// Seed the telescoping baseline after a checkpoint restore. Epoch
  /// accounting resumes at `at` (the restored cycle): the first epoch
  /// begins there instead of 0, and `cumulative` — the restored run's
  /// counters as of `at` — becomes the carried baseline, so the first
  /// epoch's deltas measure only post-restore progress. The telescoping
  /// invariant then reads: sum(deltas) + baseline == final totals, with
  /// the baseline published in the NDJSON header for validators
  /// (scripts/check_telemetry.py). Must be called before the first Sample.
  void SeedBaseline(Cycle at, const StatSet& cumulative);
  bool restored() const { return restored_; }
  Cycle restored_at() const { return restored_at_; }
  /// Pre-restore cumulative value of every non-gauge counter (empty unless
  /// SeedBaseline was called).
  const std::map<std::string, std::uint64_t>& baseline() const {
    return baseline_;
  }

  /// Record the epoch ending at `now` from the cumulative snapshot.
  void Sample(Cycle now, const StatSet& cumulative);

  /// Record the residual partial epoch at end of run (no-op if nothing
  /// moved and no time passed since the last sample).
  void Finalize(Cycle end, const StatSet& cumulative);

  /// Retained records (all of them, unless a sink disabled retention).
  const std::vector<EpochRecord>& epochs() const { return epochs_; }

  /// Records ever closed, including residuals and non-retained ones.
  std::uint64_t total_epochs() const { return total_epochs_; }

  /// Final cumulative value of every non-gauge counter seen so far — the
  /// telescoping target the NDJSON end record publishes for validators.
  const std::map<std::string, std::uint64_t>& cumulative() const {
    return prev_;
  }

  /// Narrowest / widest period actually used (equal unless adaptive).
  Cycle min_width_used() const { return min_width_used_; }
  Cycle max_width_used() const { return max_width_used_; }

 private:
  void Record(Cycle now, const StatSet& cumulative);

  Cycle epoch_cycles_;
  Cycle next_due_;
  Cycle last_sample_ = 0;
  bool restored_ = false;
  Cycle restored_at_ = 0;
  std::map<std::string, std::uint64_t> baseline_;
  Cycle min_width_used_;
  Cycle max_width_used_;
  bool retain_ = true;
  std::uint64_t total_epochs_ = 0;
  TelemetrySink* sink_ = nullptr;
  std::unique_ptr<AdaptiveEpochController> adaptive_;
  std::map<std::string, std::uint64_t> prev_;
  std::vector<EpochRecord> epochs_;
};

/// Run identification carried by the NDJSON header and end records.
struct TelemetryMeta {
  std::string workload;
  std::string preset;
  /// Registry policy name.
  std::string policy;
  /// Canonical mix descriptor (MixSpec::Describe) when a multi-tenant mix
  /// was active; empty for single-tenant runs.
  std::string mix;
  Cycle exec_cycles = 0;
};

}  // namespace redcache::obs
