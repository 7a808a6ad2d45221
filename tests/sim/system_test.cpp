#include "sim/system.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "sim/runner.hpp"

namespace redcache {
namespace {

RunSpec TinySpec(const std::string& policy, const std::string& wl = "LREG") {
  RunSpec spec;
  spec.policy = policy;
  spec.workload = wl;
  spec.scale = 0.02;
  spec.preset = EvalPreset();
  spec.preset.hierarchy.num_cores = 4;
  return spec;
}

TEST(System, RunsToCompletion) {
  const RunResult r = RunOne(TinySpec("Alloy"));
  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.exec_cycles, 0u);
  EXPECT_GT(r.stats.GetCounter("core.refs"), 0u);
}

TEST(System, EveryArchCompletesEveryTinyWorkload) {
  for (const char* a : {"No-HBM", "IDEAL", "Alloy", "Bear", "RedCache"}) {
    for (const std::string wl : {"LREG", "HIST", "RDX"}) {
      const RunResult r = RunOne(TinySpec(a, wl));
      EXPECT_TRUE(r.completed) << a << "/" << wl;
      EXPECT_GT(r.exec_cycles, 0u);
    }
  }
}

TEST(System, DeterministicExecution) {
  const RunResult a = RunOne(TinySpec("RedCache"));
  const RunResult b = RunOne(TinySpec("RedCache"));
  EXPECT_EQ(a.exec_cycles, b.exec_cycles);
  EXPECT_EQ(a.stats.GetCounter("hbm.bytes_transferred"),
            b.stats.GetCounter("hbm.bytes_transferred"));
}

TEST(System, MemoryTrafficConservation) {
  const RunResult r = RunOne(TinySpec("Alloy"));
  // Every below-L3 read the cores issued must be answered.
  EXPECT_EQ(r.stats.GetCounter("core.misses"),
            r.stats.GetCounter("ctrl.reads"));
  // Hits+misses equals probed requests.
  EXPECT_EQ(r.stats.GetCounter("ctrl.cache_hits") +
                r.stats.GetCounter("ctrl.cache_misses"),
            r.stats.GetCounter("ctrl.reads") +
                r.stats.GetCounter("ctrl.writebacks"));
}

TEST(System, IdealFasterThanNoHbm) {
  const RunResult ideal = RunOne(TinySpec("IDEAL", "OCN"));
  const RunResult nohbm = RunOne(TinySpec("No-HBM", "OCN"));
  EXPECT_LT(ideal.exec_cycles, nohbm.exec_cycles);
}

TEST(System, EnergyPopulated) {
  const RunResult r = RunOne(TinySpec("RedCache"));
  EXPECT_GT(r.energy.SystemNj(), 0.0);
  EXPECT_GT(r.energy.HbmCacheNj(), 0.0);
  EXPECT_GT(r.energy.cpu_nj, 0.0);
}

TEST(System, RequestObserverSeesTraffic) {
  auto spec = TinySpec("No-HBM");
  auto sys = BuildSystem(spec);
  std::uint64_t reads = 0, wbs = 0;
  sys->SetRequestObserver([&](Addr, bool is_wb) {
    if (is_wb) wbs++; else reads++;
  });
  const RunResult r = sys->Run();
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(reads, r.stats.GetCounter("core.misses"));
}

TEST(System, MaxCyclesBoundsRun) {
  auto spec = TinySpec("Alloy");
  spec.max_cycles = 5000;
  const RunResult r = RunOne(spec);
  EXPECT_FALSE(r.completed);
  EXPECT_LE(r.exec_cycles, 2 * 5000u);
}

TEST(System, ThresholdPinsFixRedCacheFamilyThresholds) {
  for (const char* policy : {"RedCache", "Red-Basic", "RedCache-4way"}) {
    auto spec = TinySpec(policy);
    spec.alpha_pin = 3;
    spec.gamma_pin = 9;
    const RunResult r = RunOne(spec);
    EXPECT_TRUE(r.completed) << policy;
    EXPECT_EQ(r.stats.GetCounter("ctrl.alpha_value"), 3u) << policy;
    EXPECT_EQ(r.stats.GetCounter("ctrl.gamma_value"), 9u) << policy;
  }
}

TEST(System, ThresholdPinsRejectOtherFamilies) {
  for (const char* policy : {"Alloy", "Bear", "No-HBM", "Banshee"}) {
    auto spec = TinySpec(policy);
    spec.alpha_pin = 2;
    EXPECT_THROW(BuildSystem(spec), std::invalid_argument) << policy;
  }
}

TEST(System, ScaleEnvOverride) {
  // CI jobs run the suite with REDCACHE_REFS_SCALE set: clear it for the
  // test and put it back after.
  const char* outer = std::getenv("REDCACHE_REFS_SCALE");
  const std::string saved = outer != nullptr ? outer : "";
  unsetenv("REDCACHE_REFS_SCALE");
  EXPECT_DOUBLE_EQ(EffectiveScale(2.0), 2.0);
  setenv("REDCACHE_REFS_SCALE", "0.5", 1);
  EXPECT_DOUBLE_EQ(EffectiveScale(2.0), 1.0);
  unsetenv("REDCACHE_REFS_SCALE");
  if (outer != nullptr) setenv("REDCACHE_REFS_SCALE", saved.c_str(), 1);
}

}  // namespace
}  // namespace redcache
