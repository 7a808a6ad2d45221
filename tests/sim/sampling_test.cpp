// SMARTS sampled-simulation estimator tests: the sampled estimate of a
// full detailed run's length must land inside (a padded version of) its
// own reported confidence interval, the degenerate short-run fallback must
// stay exact, and the t-table / argument validation must hold.
#include "sim/sampling.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "common/serialize.hpp"
#include "sim/runner.hpp"
#include "workloads/trace_file.hpp"

namespace redcache {
namespace {

RunSpec TinySpec(const std::string& policy, const std::string& wl) {
  RunSpec spec;
  spec.policy = policy;
  spec.workload = wl;
  spec.scale = 0.02;
  spec.ignore_env_scale = true;
  spec.preset = EvalPreset();
  spec.preset.hierarchy.num_cores = 4;
  return spec;
}

TEST(Sampling, TCriticalTable) {
  EXPECT_DOUBLE_EQ(TCritical95(0), 0.0);
  EXPECT_DOUBLE_EQ(TCritical95(1), 12.706);
  EXPECT_DOUBLE_EQ(TCritical95(10), 2.228);
  EXPECT_DOUBLE_EQ(TCritical95(30), 2.042);
  EXPECT_DOUBLE_EQ(TCritical95(31), 1.96);
  EXPECT_DOUBLE_EQ(TCritical95(100000), 1.96);
}

TEST(Sampling, RejectsBadOptions) {
  const RunSpec spec = TinySpec("RedCache", "LREG");
  SamplingOptions opts;
  opts.fraction = 0.0;
  EXPECT_THROW(RunSampled(spec, opts), std::invalid_argument);
  opts.fraction = 1.5;
  EXPECT_THROW(RunSampled(spec, opts), std::invalid_argument);
  opts.fraction = 0.1;
  opts.interval_cycles = 0;
  EXPECT_THROW(RunSampled(spec, opts), std::invalid_argument);
}

TEST(Sampling, EstimateBracketsFullRun) {
  const RunSpec spec = TinySpec("RedCache", "RDX");
  const RunResult full = RunOne(spec);
  ASSERT_TRUE(full.completed);
  const auto actual = static_cast<double>(full.exec_cycles);

  SamplingOptions opts;
  // Size the intervals off the run so this stays meaningful if workload
  // scales drift: ~40 strides, a quarter of each measured in detail.
  opts.interval_cycles = std::max<Cycle>(full.exec_cycles / 160, 64);
  opts.fraction = 0.25;
  const SamplingEstimate est = RunSampled(spec, opts);

  EXPECT_FALSE(est.degenerate);
  EXPECT_GE(est.intervals, 8u);
  EXPECT_GT(est.total_refs, 0u);
  EXPECT_GT(est.est_exec_cycles, 0.0);
  // The ratio estimate must bracket the truth within its own reported CI,
  // padded by 5% of the actual for systematic-sampling bias on a run this
  // short (real SMARTS runs have thousands of intervals, we have dozens).
  const double tolerance = est.ci_half_cycles + 0.05 * actual;
  EXPECT_NEAR(est.est_exec_cycles, actual, tolerance)
      << "intervals=" << est.intervals << " ci_pct=" << est.ci_pct;

  // The estimated stats carry the estimate and its quality gauges.
  EXPECT_EQ(est.est_stats.GetCounter("gauge.sampling.intervals"),
            est.intervals);
  EXPECT_EQ(est.est_stats.GetCounter("sys.exec_cycles"),
            static_cast<std::uint64_t>(std::llround(est.est_exec_cycles)));
  // Ratio-scaled counter estimates track the full run loosely (20%).
  const auto full_hits =
      static_cast<double>(full.stats.GetCounter("dramcache.hits"));
  if (full_hits > 1000.0) {
    const auto est_hits =
        static_cast<double>(est.est_stats.GetCounter("dramcache.hits"));
    EXPECT_NEAR(est_hits, full_hits, 0.20 * full_hits);
  }
}

TEST(Sampling, DeterministicForFixedSeed) {
  // A 512-cycle interval makes the ~68k-cycle fast-forward thin its
  // candidate list twice, so workers replay candidates that thinning later
  // drops. The estimate must not depend on how many threads replay, or on
  // which candidates they reached before the fast-forward ended.
  const RunSpec spec = TinySpec("RedCache", "LREG");
  SamplingOptions opts;
  opts.interval_cycles = 512;
  opts.fraction = 0.2;
  opts.jobs = 1;
  const SamplingEstimate a = RunSampled(spec, opts);
  opts.jobs = 4;
  const SamplingEstimate b = RunSampled(spec, opts);
  const SamplingEstimate c = RunSampled(spec, opts);
  for (const SamplingEstimate* other : {&b, &c}) {
    EXPECT_EQ(a.intervals, other->intervals);
    EXPECT_EQ(a.total_refs, other->total_refs);
    EXPECT_EQ(a.est_exec_cycles, other->est_exec_cycles);
    EXPECT_EQ(a.ci_pct, other->ci_pct);
    EXPECT_EQ(a.est_stats.counters(), other->est_stats.counters());
  }
  // Pinned bit for bit to the two-phase sampler that replayed only after
  // the fast-forward: pipelining the replays must not move the estimate,
  // nor the order the estimator sums the intervals in.
  EXPECT_EQ(a.intervals, 27u);
  EXPECT_EQ(a.est_stats.GetCounter("sys.exec_cycles"), 387861u);
  EXPECT_EQ(a.est_exec_cycles, 387860.98019896657);
  EXPECT_EQ(a.ci_pct, 35.436324961564353);
}

TEST(Sampling, FastForwardErrorJoinsWorkers) {
  // The ShadowChecker refuses the fast-forward's first capture. The error
  // must reach the caller after the replay workers are joined; a joinable
  // std::thread destroyed during unwinding would call std::terminate.
  RunSpec spec = TinySpec("RedCache", "LREG");
  spec.verify = true;
  SamplingOptions opts;
  opts.interval_cycles = 4096;
  opts.jobs = 4;
  EXPECT_THROW(RunSampled(spec, opts), ser::SerializeError);
}

TEST(Sampling, ShortRunCollapsesToOneExactInterval) {
  // An interval far longer than the run: the seed-derived phase overshoots
  // the functional pass, the retry at phase 0 captures exactly one
  // checkpoint at cycle 0, and the single detailed interval covers the
  // whole run — so the "estimate" is the exact detailed run length with a
  // zero CI.
  const RunSpec spec = TinySpec("Alloy", "LREG");
  const RunResult full = RunOne(spec);
  ASSERT_TRUE(full.completed);

  SamplingOptions opts;
  opts.interval_cycles = full.exec_cycles * 16;
  opts.fraction = 0.5;
  const SamplingEstimate est = RunSampled(spec, opts);
  EXPECT_FALSE(est.degenerate);
  EXPECT_EQ(est.intervals, 1u);
  EXPECT_DOUBLE_EQ(est.est_exec_cycles,
                   static_cast<double>(full.exec_cycles));
  EXPECT_DOUBLE_EQ(est.ci_pct, 0.0);
  EXPECT_EQ(est.est_stats.GetCounter("gauge.sampling.ci_pct"), 0u);
  // A single interval spanning the run reproduces its counters exactly.
  EXPECT_EQ(est.est_stats.GetCounter("core.refs"),
            full.stats.GetCounter("core.refs"));
}

TEST(Sampling, OneUnfinishedIntervalFallsBackToFullRun) {
  // An interval two thirds of the functional pass fits it once, so one
  // interval is measured, and in detail it ends long before the run does.
  // One interval has no variance: instead of a zero-width CI around an
  // extrapolation, sampling degenerates to the exact full run.
  const RunSpec spec = TinySpec("RedCache", "RDX");
  const RunResult full = RunOne(spec);
  ASSERT_TRUE(full.completed);
  SamplingOptions opts;
  auto ff = BuildSystem(spec);
  ff->SetFunctionalTiming(opts.functional_latency);
  const Cycle ff_exec = ff->Run().exec_cycles;
  opts.interval_cycles = (2 * ff_exec) / 3;
  ASSERT_LT(opts.interval_cycles, full.exec_cycles);

  const SamplingEstimate est = RunSampled(spec, opts);
  EXPECT_TRUE(est.degenerate);
  EXPECT_EQ(est.intervals, 1u);
  EXPECT_DOUBLE_EQ(est.est_exec_cycles,
                   static_cast<double>(full.exec_cycles));
  EXPECT_DOUBLE_EQ(est.ci_pct, 0.0);
  // The counters are the full run's, plus the sampling gauges.
  StatSet expected = full.stats;
  expected.Counter("gauge.sampling.ci_pct") = 0;
  expected.Counter("gauge.sampling.intervals") = 1;
  EXPECT_EQ(est.est_stats.counters(), expected.counters());
}

TEST(Sampling, OneIntervalRunIsExactForEverySeedPhase) {
  // A run that fits one interval is measured by one detailed run from
  // cycle 0, whichever candidate the seed's phase would have picked. An
  // interval replayed from the second candidate may finish the workload
  // too, but it covers only the run's tail: extrapolating from it gave a
  // +/-0% "exact" estimate far from the true run length.
  for (const std::uint64_t seed : {1, 2, 3, 4}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    RunSpec spec = TinySpec("RedCache", "LU");
    spec.seed = seed;
    const RunResult full = RunOne(spec);
    ASSERT_TRUE(full.completed);
    SamplingOptions opts;
    auto ff = BuildSystem(spec);
    ff->SetFunctionalTiming(opts.functional_latency);
    opts.interval_cycles = (3 * ff->Run().exec_cycles) / 5;
    const SamplingEstimate est = RunSampled(spec, opts);
    EXPECT_EQ(est.intervals, 1u);
    EXPECT_DOUBLE_EQ(est.est_exec_cycles,
                     static_cast<double>(full.exec_cycles));
    EXPECT_EQ(est.est_stats.GetCounter("core.refs"),
              full.stats.GetCounter("core.refs"));
  }
}

TEST(Sampling, ReplayedTraceMatchesSyntheticEstimate) {
  // Sampling a captured trace checkpoints the trace reader at every
  // candidate; the estimate must equal the synthetic generator's.
  const RunSpec synthetic = TinySpec("RedCache", "LU");
  const std::string path = testing::TempDir() + "/sampled_lu.rctr";
  {
    WorkloadBuildParams wp;
    wp.num_cores = synthetic.preset.hierarchy.num_cores;
    wp.scale = synthetic.scale;
    auto source = MakeWorkload("LU", wp);
    TraceFileWriter w(path, source->num_cores());
    w.CaptureAll(*source);
  }
  RunSpec replayed = synthetic;
  replayed.serve_path = path;

  SamplingOptions opts;
  opts.interval_cycles = 2048;
  opts.fraction = 0.2;
  const SamplingEstimate a = RunSampled(synthetic, opts);
  const SamplingEstimate b = RunSampled(replayed, opts);
  EXPECT_FALSE(b.degenerate);
  EXPECT_GE(b.intervals, 2u);
  EXPECT_EQ(a.intervals, b.intervals);
  EXPECT_EQ(a.est_exec_cycles, b.est_exec_cycles);
  EXPECT_EQ(a.ci_pct, b.ci_pct);
  EXPECT_EQ(a.est_stats.counters(), b.est_stats.counters());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace redcache
