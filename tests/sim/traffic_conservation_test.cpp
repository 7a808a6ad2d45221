// End-to-end traffic-conservation checks: what the cores emit must equal
// what the devices serve, for representative architectures.
#include <gtest/gtest.h>

#include "sim/runner.hpp"

namespace redcache {
namespace {

RunResult RunSmall(const std::string& policy, const std::string& wl) {
  RunSpec spec;
  spec.policy = policy;
  spec.workload = wl;
  spec.scale = 0.05;
  spec.preset = EvalPreset();
  spec.preset.hierarchy.num_cores = 4;
  return RunOne(spec);
}

TEST(TrafficConservation, NoHbmWritesEqualL3Writebacks) {
  const RunResult r = RunSmall("No-HBM", "OCN");
  EXPECT_EQ(r.stats.GetCounter("ddr4.write_bursts"),
            r.stats.GetCounter("ctrl.writebacks"));
  EXPECT_EQ(r.stats.GetCounter("ddr4.read_bursts"),
            r.stats.GetCounter("ctrl.reads"));
}

TEST(TrafficConservation, AlloyProbesEveryRequest) {
  const RunResult r = RunSmall("Alloy", "RDX");
  // Every read and writeback starts with exactly one TAD probe; further
  // HBM reads only come from wide-line victim streaming (none at 64 B).
  const auto requests =
      r.stats.GetCounter("ctrl.reads") + r.stats.GetCounter("ctrl.writebacks");
  EXPECT_EQ(r.stats.GetCounter("hbm.read_bursts"), requests);
}

TEST(TrafficConservation, AlloyMainMemoryReadsAreReadMisses) {
  const RunResult r = RunSmall("Alloy", "RDX");
  const auto read_misses = r.stats.GetCounter("ctrl.reads") -
                           r.stats.GetCounter("ctrl.read_hits");
  EXPECT_EQ(r.stats.GetCounter("ddr4.read_bursts"), read_misses);
}

TEST(TrafficConservation, AlloyVictimWritebacksMatchDdrWrites) {
  const RunResult r = RunSmall("Alloy", "OCN");
  EXPECT_EQ(r.stats.GetCounter("ddr4.write_bursts"),
            r.stats.GetCounter("ctrl.victim_writebacks"));
}

TEST(TrafficConservation, RedCacheAccountsEveryRequestExactlyOnce) {
  const RunResult r = RunSmall("RedCache", "RDX");
  const auto requests =
      r.stats.GetCounter("ctrl.reads") + r.stats.GetCounter("ctrl.writebacks");
  // Each request is either bypassed (alpha or refresh) or resolved as a
  // hit (including RCU-block-cache serves) or a miss.
  const auto routed = r.stats.GetCounter("ctrl.alpha_bypasses") +
                      r.stats.GetCounter("ctrl.refresh_bypasses") +
                      r.stats.GetCounter("ctrl.cache_hits") +
                      r.stats.GetCounter("ctrl.cache_misses");
  EXPECT_EQ(routed, requests);
}

TEST(TrafficConservation, IdealNeverTouchesMainMemory) {
  const RunResult r = RunSmall("IDEAL", "FT");
  EXPECT_EQ(r.stats.GetCounter("ddr4.transactions"), 0u);
  EXPECT_GT(r.stats.GetCounter("hbm.transactions"), 0u);
}

}  // namespace
}  // namespace redcache
