// Cross-architecture invariants: for every controller, on several
// workloads, a run must complete, answer every demand read exactly once,
// keep its internal accounting consistent, and stay deterministic.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "sim/runner.hpp"

namespace redcache {
namespace {

// The paper's seven-policy comparison plus its two reference systems, in
// figure order. The enum indexes kPolicyNames; keeping a 4-byte enum as the
// parameter keeps the parameterised test names stable.
enum class PaperPolicy {
  kNoHbm, kIdeal, kAlloy, kBear, kRedAlpha, kRedGamma, kRedBasic,
  kRedInSitu, kRedCache,
};

constexpr const char* kPolicyNames[] = {
    "No-HBM",    "IDEAL",     "Alloy",      "Bear",     "Red-Alpha",
    "Red-Gamma", "Red-Basic", "Red-InSitu", "RedCache",
};

std::string NameOf(PaperPolicy p) {
  return kPolicyNames[static_cast<int>(p)];
}

using Param = std::tuple<PaperPolicy, std::string>;

class ArchInvariants : public ::testing::TestWithParam<Param> {};

RunSpec SmallSpec(const std::string& policy, const std::string& wl) {
  RunSpec spec;
  spec.policy = policy;
  spec.workload = wl;
  spec.scale = 0.05;
  spec.preset = EvalPreset();
  spec.preset.hierarchy.num_cores = 4;
  return spec;
}

TEST_P(ArchInvariants, CompletesAndConserves) {
  const auto [p, wl] = GetParam();
  const std::string policy = NameOf(p);
  const RunResult r = RunOne(SmallSpec(policy, wl));
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.exec_cycles, 0u);

  // Every L3 miss became exactly one controller read.
  EXPECT_EQ(r.stats.GetCounter("core.misses"), r.stats.GetCounter("ctrl.reads"));

  // Refs were fully consumed and the hit counters partition them.
  const auto refs = r.stats.GetCounter("core.refs");
  EXPECT_EQ(refs, r.stats.GetCounter("core.l1_hits") +
                      r.stats.GetCounter("core.l2_hits") +
                      r.stats.GetCounter("core.l3_hits") +
                      r.stats.GetCounter("core.misses"));

  // Off-chip devices only move whole bursts.
  if (policy != "IDEAL") {
    EXPECT_GT(r.stats.GetCounter("ddr4.transactions"), 0u) << "below-L3 "
        "traffic must reach main memory for non-ideal systems";
  }
  EXPECT_GT(r.energy.SystemNj(), 0.0);
}

TEST_P(ArchInvariants, Deterministic) {
  const auto [p, wl] = GetParam();
  const std::string policy = NameOf(p);
  const RunResult a = RunOne(SmallSpec(policy, wl));
  const RunResult b = RunOne(SmallSpec(policy, wl));
  EXPECT_EQ(a.exec_cycles, b.exec_cycles);
  EXPECT_EQ(a.stats.GetCounter("hbm.bytes_transferred"),
            b.stats.GetCounter("hbm.bytes_transferred"));
  EXPECT_EQ(a.stats.GetCounter("ddr4.bytes_transferred"),
            b.stats.GetCounter("ddr4.bytes_transferred"));
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ArchInvariants,
    ::testing::Combine(::testing::Values(PaperPolicy::kNoHbm,
                                         PaperPolicy::kIdeal,
                                         PaperPolicy::kAlloy,
                                         PaperPolicy::kBear,
                                         PaperPolicy::kRedAlpha,
                                         PaperPolicy::kRedGamma,
                                         PaperPolicy::kRedBasic,
                                         PaperPolicy::kRedInSitu,
                                         PaperPolicy::kRedCache),
                       ::testing::Values(std::string("LREG"),
                                         std::string("RDX"),
                                         std::string("BRN"))),
    [](const ::testing::TestParamInfo<Param>& info) {
      std::string name = NameOf(std::get<0>(info.param)) +
                         "_" + std::get<1>(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace redcache
