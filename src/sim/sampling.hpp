// SMARTS-style sampled simulation (Wunderlich et al., ISCA'03 adapted to
// this simulator's checkpoint machinery).
//
// Instead of simulating every cycle in detail, a run is split into fixed
// strides and exactly one measurement interval per stride is simulated with
// full DRAM timing; the rest fast-forwards under a fixed functional memory
// latency. Two passes:
//
//  1. Functional pass: one System runs the whole workload with
//     SetFunctionalTiming(latency) — every memory access completes in a
//     fixed latency, no channel/bank modeling — while a recurring
//     checkpoint hook captures candidate full-state blobs every
//     `interval_cycles`, thinning itself (drop every other blob, double
//     the capture stride) whenever the candidate list hits its memory
//     bound. The functional timeline's length is only known after the
//     pass, so the measurement set is a seed-phased systematic
//     subselection of the candidates sized to `fraction`. This pass also
//     yields the exact total reference count (the trace replays fully).
//
//  2. Detailed replay, pipelined with pass 1: jobs - 1 worker threads take
//     each candidate as soon as it is captured, restore it into a fresh
//     System, free the blob and run `interval_cycles` with full timing.
//     The restored DramSystem starts in detailed mode; in-flight
//     functional completions drain at their fixed latency as a short
//     warming transient at the interval head. Thinning or selection may
//     later drop a candidate, and its measure is then discarded. After
//     pass 1, the selected candidates still unmeasured replay on all
//     `jobs` threads. The estimator reads measures in selection order, so
//     the estimate does not depend on `jobs` or on thread timing.
//
// Estimation is per-interval IPC-style: each interval yields a rate
// r_i = delta_refs / span. The run-length estimate is the ratio estimator
// est_exec = total_refs / mean(r), with a Student-t 95% confidence
// interval over the per-interval rates (ci_pct = 100 * half-width / mean).
// Counter totals are ratio-scaled: est_X = sum(delta_X) * total_refs /
// sum(delta_refs). The CI is surfaced as gauge.sampling.ci_pct in the
// estimated stats, in the batch report, and by the CLI.
#pragma once

#include <cstdint>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "sim/runner.hpp"

namespace redcache {

struct SamplingOptions {
  /// Fraction of simulated time measured in detail, in (0, 1]. The stride
  /// between measurement-interval starts is interval_cycles / fraction.
  double fraction = 0.10;
  /// Length of each detailed measurement interval, in cycles.
  Cycle interval_cycles = 200000;
  /// Fixed memory latency (cycles) for the functional fast-forward pass.
  Cycle functional_latency = 40;
  /// Detailed-replay thread count, the calling thread included
  /// (0 = REDCACHE_JOBS / hardware).
  unsigned jobs = 0;
};

struct SamplingEstimate {
  /// Measurement intervals actually replayed (n of the CI).
  std::uint64_t intervals = 0;
  /// Exact total references, from the functional pass (not an estimate).
  std::uint64_t total_refs = 0;
  /// Ratio estimate of the detailed run length and its 95% CI.
  double est_exec_cycles = 0.0;
  double ci_half_cycles = 0.0;
  double ci_pct = 0.0;  ///< 100 * half-width / mean of the rate estimate
  /// Ratio-scaled counter estimates plus sys.exec_cycles (rounded
  /// est_exec_cycles), gauge.sampling.ci_pct and gauge.sampling.intervals.
  StatSet est_stats;
  /// Wall-clock split, for speedup reporting: the functional pass (with
  /// the replays that overlap it) and the replay time left after it.
  double functional_seconds = 0.0;
  double replay_seconds = 0.0;
  /// True when sampling degenerated to one full detailed run: the run fit
  /// fewer than two measurement intervals, and the detailed run did not
  /// finish inside the first one.
  bool degenerate = false;
};

/// Two-sided 95% Student-t critical value for `df` degrees of freedom
/// (exact to three decimals for df <= 30, 1.96 beyond).
double TCritical95(std::uint64_t df);

/// Run `spec` sampled. Throws std::invalid_argument on a bad fraction or
/// interval, and propagates any simulation/serialization error.
SamplingEstimate RunSampled(const RunSpec& spec, const SamplingOptions& opts);

}  // namespace redcache
