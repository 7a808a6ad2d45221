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
#include <sstream>
#include <string>
#include <tuple>

#include "sim/runner.hpp"
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
// cycles_skipped and a ceiling on ticks_executed (loop visits). Both
// counters are deterministic, so the gate is exact on any host. Skipping
// must never get *worse* than these — fewer skipped cycles or more visits
// means a wake hint regressed towards polling somewhere. Floors may only
// rise and ceilings only fall. Regenerate (intentional pacing changes
// only) with
//   REDCACHE_UPDATE_SKIP_BASELINE=1 ./build/tests/sim/sim_tests
//     --gtest_filter='SkipBaseline.Regenerate'
std::string SkipBaselinePath() { return REDCACHE_SKIP_BASELINE_FILE; }

const std::vector<std::string>& BaselinePolicies() {
  static const std::vector<std::string> kPolicies = {"Alloy", "Bear",
                                                     "RedCache"};
  return kPolicies;
}

struct SkipBaselineRow {
  std::uint64_t skipped_floor = 0;
  std::uint64_t visits_ceiling = 0;
};

std::map<std::string, SkipBaselineRow> LoadSkipBaseline() {
  std::map<std::string, SkipBaselineRow> table;
  std::ifstream in(SkipBaselinePath());
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key;
    SkipBaselineRow row;
    if (fields >> key >> row.skipped_floor >> row.visits_ceiling) {
      table[key] = row;
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

TEST_P(NoSkipDifferential, IdenticalStats) {
  const auto [policy, wl] = GetParam();

  const RunResult skip = RunOne(Spec(policy, wl));
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

  // Skip economics: at least as many cycles skipped and at most as many
  // loop visits as the recorded baseline for this cell (see
  // SkipBaselinePath above).
  static const auto baseline = LoadSkipBaseline();
  const auto it = baseline.find(policy + "/" + wl);
  if (it != baseline.end()) {
    EXPECT_GE(skip.cycles_skipped, it->second.skipped_floor)
        << "wake hints got less exact: " << policy << "/" << wl
        << " skipped fewer cycles than the recorded baseline";
    EXPECT_LE(skip.ticks_executed, it->second.visits_ceiling)
        << "wake hints got less exact: " << policy << "/" << wl
        << " made more loop visits than the recorded baseline";
  }
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

/// Regenerates the skip baseline file (cycles_skipped floors and
/// ticks_executed ceilings); only runs when REDCACHE_UPDATE_SKIP_BASELINE
/// is set.
TEST(SkipBaseline, Regenerate) {
  const char* env = std::getenv("REDCACHE_UPDATE_SKIP_BASELINE");
  if (env == nullptr || env[0] == '\0' || std::string(env) == "0") {
    GTEST_SKIP() << "set REDCACHE_UPDATE_SKIP_BASELINE=1 to regenerate "
                 << SkipBaselinePath();
  }
  std::ofstream out(SkipBaselinePath());
  ASSERT_TRUE(out.good());
  out << "# cycles_skipped floor and ticks_executed ceiling per skip/no-skip\n"
      << "# differential cell (policy/workload  cycles_skipped  "
         "ticks_executed),\n"
      << "# spec: scale=0.02 eval preset, 4 cores. Regenerate:\n"
      << "#   REDCACHE_UPDATE_SKIP_BASELINE=1 sim_tests\n"
      << "#   --gtest_filter='SkipBaseline.Regenerate'\n";
  for (const std::string& policy : BaselinePolicies()) {
    for (const std::string& wl : WorkloadLabels()) {
      const RunResult skip = RunOne(Spec(policy, wl));
      ASSERT_TRUE(skip.completed) << policy << "/" << wl;
      out << policy << "/" << wl << " " << skip.cycles_skipped << " "
          << skip.ticks_executed << "\n";
    }
  }
  std::printf("wrote %zu cells to %s\n",
              BaselinePolicies().size() * WorkloadLabels().size(),
              SkipBaselinePath().c_str());
}

INSTANTIATE_TEST_SUITE_P(
    TableII, NoSkipDifferential,
    ::testing::Combine(::testing::Values("Alloy", "Bear", "RedCache",
                                         "Banshee", "TicToc"),
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
