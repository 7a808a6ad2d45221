// Headline-shape regression tests: the qualitative results the paper
// reports must survive refactoring. Moderate scale keeps each simulation
// in the seconds range; margins are generous because these guard the
// *direction* of every effect, not its exact size.
#include <gtest/gtest.h>

#include "sim/runner.hpp"

namespace redcache {
namespace {

RunResult RunSim(const std::string& policy, const std::string& wl,
                 double scale = 0.5) {
  RunSpec spec;
  spec.policy = policy;
  spec.workload = wl;
  spec.scale = scale;
  // The shapes emerge at this scale, not at the reduced scales CI sets
  // through REDCACHE_REFS_SCALE to speed up other tests.
  spec.ignore_env_scale = true;
  return RunOne(spec);
}

double HitRate(const RunResult& r) {
  const auto h = r.stats.GetCounter("ctrl.cache_hits");
  const auto m = r.stats.GetCounter("ctrl.cache_misses");
  return h + m == 0 ? 0.0
                    : static_cast<double>(h) / static_cast<double>(h + m);
}

TEST(Shape, RedCacheBeatsAlloyOnHotColdContention) {
  const RunResult alloy = RunSim("Alloy", "FT");
  const RunResult red = RunSim("RedCache", "FT");
  EXPECT_LT(red.exec_cycles, alloy.exec_cycles);
  EXPECT_GT(HitRate(red), HitRate(alloy));
}

TEST(Shape, RedCacheSavesHbmEnergyEverywhereItRuns) {
  for (const char* wl : {"FT", "RDX", "HIST"}) {
    const RunResult alloy = RunSim("Alloy", wl);
    const RunResult red = RunSim("RedCache", wl);
    EXPECT_LT(red.energy.HbmCacheNj(), alloy.energy.HbmCacheNj()) << wl;
  }
}

TEST(Shape, RedCacheTracksInSituClosely) {
  // Paper: the RCU gets RedCache to ~98% of the in-situ ideal.
  const RunResult red = RunSim("RedCache", "LU");
  const RunResult insitu = RunSim("Red-InSitu", "LU");
  const double ratio = static_cast<double>(insitu.exec_cycles) /
                       static_cast<double>(red.exec_cycles);
  EXPECT_GT(ratio, 0.93);
}

TEST(Shape, IdealBoundsEveryRealCache) {
  const RunResult ideal = RunSim("IDEAL", "RDX");
  for (const char* a : {"Alloy", "Bear", "RedCache"}) {
    const RunResult r= RunSim(a, "RDX");
    EXPECT_GT(r.exec_cycles, ideal.exec_cycles) << a;
  }
}

TEST(Shape, AlphaMovesColdTrafficOffTheCache) {
  const RunResult alloy = RunSim("Alloy", "HIST");
  const RunResult red = RunSim("RedCache", "HIST");
  // The cold-dominant workload: RedCache's HBM traffic collapses.
  EXPECT_LT(2 * red.HbmBytes(), alloy.HbmBytes());
}

TEST(Shape, AlphaOnlyCarriesMostOfTheGain) {
  // Paper: alpha contributes more than gamma.
  const RunResult alloy = RunSim("Alloy", "OCN");
  const RunResult alpha = RunSim("Red-Alpha", "OCN");
  const RunResult gamma = RunSim("Red-Gamma", "OCN");
  const double alpha_gain = 1.0 - static_cast<double>(alpha.exec_cycles) /
                                      static_cast<double>(alloy.exec_cycles);
  const double gamma_gain = 1.0 - static_cast<double>(gamma.exec_cycles) /
                                      static_cast<double>(alloy.exec_cycles);
  EXPECT_GT(alpha_gain, gamma_gain);
  EXPECT_GT(alpha_gain, 0.05);
}

}  // namespace
}  // namespace redcache
