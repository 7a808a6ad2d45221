// Skip-ahead vs single-cycle stepping differential.
//
// REDCACHE_NO_SKIP=1 forces System::Run to advance time one cycle per
// visit instead of jumping to the next wake. If every component's wake is
// conservative (DESIGN.md section 10), the two pacing modes visit the same
// state-changing cycles and must produce byte-identical statistics — on
// every Table II workload, for a representative controller of each family.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>

#include "dramcache/policy_registry.hpp"
#include "sim/runner.hpp"
#include "verify/fault_injector.hpp"
#include "workloads/benchmarks.hpp"

namespace redcache {
namespace {

class ScopedNoSkip {
 public:
  ScopedNoSkip() { ::setenv("REDCACHE_NO_SKIP", "1", /*overwrite=*/1); }
  ~ScopedNoSkip() { ::unsetenv("REDCACHE_NO_SKIP"); }
};

using Param = std::tuple<std::string, std::string>;

class NoSkipDifferential : public ::testing::TestWithParam<Param> {};

// Recorded skip-ahead economics per differential cell: a floor on
// cycles_skipped, a ceiling on ticks_executed (loop visits), a ceiling on
// MemController::Tick calls, and ceilings on the four DRAM scheduler
// ledger counts (SchedulerLedger: passes that slept with nothing due,
// passes that found an empty queue, refresh slow-path walks, bank
// summaries the FR-FCFS pick read). All counters are deterministic, so
// the gate is exact on any host; it is CI's perf gate. Skipping must never
// get *worse* than these — fewer skipped cycles, more visits or more
// controller ticks means a wake hint regressed towards polling somewhere,
// and a higher ledger count means the scheduler does more work per
// command. Floors may only rise and ceilings only fall. Every differential
// cell needs a row. Regenerate (intentional pacing changes only) with
//   REDCACHE_UPDATE_SKIP_BASELINE=1 ./build/tests/sim/sim_tests
//     --gtest_filter='SkipBaseline.Regenerate'
std::string SkipBaselinePath() { return REDCACHE_SKIP_BASELINE_FILE; }

const std::vector<std::string>& DifferentialPolicies() {
  static const std::vector<std::string> kPolicies = {
      "Alloy", "Bear", "RedCache", "Banshee", "TicToc"};
  return kPolicies;
}

struct SkipBaselineRow {
  std::uint64_t skipped_floor = 0;
  std::uint64_t visits_ceiling = 0;
  std::uint64_t ctrl_ticks_ceiling = 0;
  SchedulerLedger ledger_ceiling;
};

/// Throws on an unreadable file or a malformed or duplicate row, so a
/// broken baseline fails every differential cell instead of passing them.
std::map<std::string, SkipBaselineRow> LoadSkipBaseline() {
  std::ifstream in(SkipBaselinePath());
  if (!in) {
    throw std::runtime_error("cannot read skip baseline " +
                             SkipBaselinePath());
  }
  std::map<std::string, SkipBaselineRow> table;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key, extra;
    SkipBaselineRow row;
    SchedulerLedger& l = row.ledger_ceiling;
    if (!(fields >> key >> row.skipped_floor >> row.visits_ceiling >>
          row.ctrl_ticks_ceiling >> l.idle_sleeps >> l.empty_passes >>
          l.refresh_walks >> l.pick_candidates) ||
        fields >> extra || !table.emplace(key, row).second) {
      throw std::runtime_error("malformed skip baseline row: \"" + line +
                               "\"");
    }
  }
  return table;
}

RunSpec Spec(const std::string& policy, const std::string& wl) {
  RunSpec spec;
  spec.policy = policy;
  spec.workload = wl;
  spec.scale = 0.02;
  spec.ignore_env_scale = true;
  spec.preset = EvalPreset();
  spec.preset.hierarchy.num_cores = 4;
  return spec;
}

struct SkipRun {
  RunResult result;
  std::uint64_t ctrl_ticks = 0;  ///< MemController::Tick calls
};

// The skip-ahead run, built as BuildSystem would but with the policy
// wrapped in a fault-free FaultInjector that counts controller ticks.
// IdenticalStats compares it with the undecorated no-skip run, which is
// what proves the wrapper transparent.
SkipRun RunSkipCountingTicks(const RunSpec& spec) {
  WorkloadBuildParams wp;
  wp.num_cores = spec.preset.hierarchy.num_cores;
  wp.scale = spec.scale;
  auto injector = std::make_unique<FaultInjector>(
      MakePolicy(spec.policy, spec.preset.mem), FaultInjector::Options{});
  const FaultInjector& counter = *injector;
  System system(spec.preset.hierarchy, spec.preset.core, std::move(injector),
                MakeWorkload(spec.workload, wp), spec.seed);
  SkipRun run;
  run.result = RunBuilt(system, spec);
  run.ctrl_ticks = counter.ticks();
  return run;
}

TEST_P(NoSkipDifferential, IdenticalStats) {
  const auto [policy, wl] = GetParam();

  const SkipRun skip_run = RunSkipCountingTicks(Spec(policy, wl));
  const RunResult& skip = skip_run.result;
  ASSERT_TRUE(skip.completed);

  RunResult step;
  {
    ScopedNoSkip no_skip;
    step = RunOne(Spec(policy, wl));
  }
  ASSERT_TRUE(step.completed);

  EXPECT_EQ(skip.exec_cycles, step.exec_cycles);
  EXPECT_EQ(skip.stats.counters(), step.stats.counters());

  // The loop economics differ but must cover the same span: stepping
  // executes every cycle, skip-ahead trades executed ticks for skipped
  // cycles one-for-one.
  EXPECT_EQ(step.cycles_skipped, 0u);
  EXPECT_GT(skip.cycles_skipped, 0u);
  EXPECT_EQ(skip.ticks_executed + skip.cycles_skipped,
            step.ticks_executed + step.cycles_skipped);

  // Skip economics: at least as many cycles skipped, at most as many loop
  // visits and at most as many controller ticks as the recorded baseline
  // for this cell (see SkipBaselinePath above).
  static const auto baseline = LoadSkipBaseline();
  const std::string cell = policy + "/" + wl;
  const auto it = baseline.find(cell);
  ASSERT_NE(it, baseline.end())
      << "no skip baseline row for " << cell << " in " << SkipBaselinePath();
  EXPECT_GE(skip.cycles_skipped, it->second.skipped_floor)
      << "wake hints got less exact: " << cell
      << " skipped fewer cycles than the recorded baseline";
  EXPECT_LE(skip.ticks_executed, it->second.visits_ceiling)
      << "wake hints got less exact: " << cell
      << " made more loop visits than the recorded baseline";
  EXPECT_LE(skip_run.ctrl_ticks, it->second.ctrl_ticks_ceiling)
      << "wake hints got less exact: " << cell
      << " ticked the controller more often than the recorded baseline";
  const SchedulerLedger& got = skip.dram_ledger;
  const SchedulerLedger& cap = it->second.ledger_ceiling;
  EXPECT_LE(got.idle_sleeps, cap.idle_sleeps)
      << cell << ": more DRAM scheduler passes slept with nothing due";
  EXPECT_LE(got.empty_passes, cap.empty_passes)
      << cell << ": more DRAM scheduler passes found an empty queue";
  EXPECT_LE(got.refresh_walks, cap.refresh_walks)
      << cell << ": more DRAM refresh slow-path walks";
  EXPECT_LE(got.pick_candidates, cap.pick_candidates)
      << cell << ": the FR-FCFS pick read more bank summaries";
}

// A truncated run stops at max_cycles + 1 in both pacing modes: the last
// jump is clamped like telemetry and checkpoint jumps, so exec_cycles and
// every counter of a cut-short run are mode-independent too.
TEST(NoSkipDifferential, TruncatedRunIdenticalStats) {
  RunSpec spec = Spec("RedCache", "LU");
  const RunResult full = RunOne(spec);
  ASSERT_TRUE(full.completed);
  spec.max_cycles = full.exec_cycles / 2;

  const RunResult skip = RunOne(spec);
  RunResult step;
  {
    ScopedNoSkip no_skip;
    step = RunOne(spec);
  }
  ASSERT_FALSE(skip.completed);
  ASSERT_FALSE(step.completed);
  EXPECT_EQ(skip.exec_cycles, spec.max_cycles + 1);
  EXPECT_EQ(skip.exec_cycles, step.exec_cycles);
  EXPECT_EQ(skip.stats.counters(), step.stats.counters());
  EXPECT_EQ(skip.ticks_executed + skip.cycles_skipped,
            step.ticks_executed + step.cycles_skipped);
}

/// Regenerates the skip baseline file (cycles_skipped floors,
/// ticks_executed and controller-tick ceilings); only runs when
/// REDCACHE_UPDATE_SKIP_BASELINE is set.
TEST(SkipBaseline, Regenerate) {
  const char* env = std::getenv("REDCACHE_UPDATE_SKIP_BASELINE");
  if (env == nullptr || env[0] == '\0' || std::string(env) == "0") {
    GTEST_SKIP() << "set REDCACHE_UPDATE_SKIP_BASELINE=1 to regenerate "
                 << SkipBaselinePath();
  }
  std::ofstream out(SkipBaselinePath());
  ASSERT_TRUE(out.good());
  out << "# cycles_skipped floor, then ceilings on ticks_executed (loop\n"
      << "# visits), MemController::Tick calls and the DRAM scheduler\n"
      << "# ledger, per skip/no-skip differential cell (policy/workload\n"
      << "# cycles_skipped ticks_executed ctrl_ticks idle_sleeps\n"
      << "# empty_passes refresh_walks pick_candidates),\n"
      << "# spec: scale=0.02 eval preset, 4 cores. Regenerate:\n"
      << "#   REDCACHE_UPDATE_SKIP_BASELINE=1 sim_tests\n"
      << "#   --gtest_filter='SkipBaseline.Regenerate'\n";
  for (const std::string& policy : DifferentialPolicies()) {
    for (const std::string& wl : WorkloadLabels()) {
      const SkipRun run = RunSkipCountingTicks(Spec(policy, wl));
      ASSERT_TRUE(run.result.completed) << policy << "/" << wl;
      const SchedulerLedger& l = run.result.dram_ledger;
      out << policy << "/" << wl << " " << run.result.cycles_skipped << " "
          << run.result.ticks_executed << " " << run.ctrl_ticks << " "
          << l.idle_sleeps << " " << l.empty_passes << " " << l.refresh_walks
          << " " << l.pick_candidates << "\n";
    }
  }
  std::printf("wrote %zu cells to %s\n",
              DifferentialPolicies().size() * WorkloadLabels().size(),
              SkipBaselinePath().c_str());
}

INSTANTIATE_TEST_SUITE_P(
    TableII, NoSkipDifferential,
    ::testing::Combine(::testing::ValuesIn(DifferentialPolicies()),
                       ::testing::ValuesIn(WorkloadLabels())),
    [](const ::testing::TestParamInfo<Param>& info) {
      std::string name = std::get<0>(info.param) + "_" +
                         std::get<1>(info.param);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace redcache
