#include "dramcache/policy_registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "controller_harness.hpp"

namespace redcache {
namespace {

bool Contains(const std::vector<std::string>& names, const std::string& n) {
  return std::find(names.begin(), names.end(), n) != names.end();
}

TEST(PolicyRegistry, AllBuiltinsRegistered) {
  const auto names = PolicyRegistry::Instance().Names();
  for (const char* expected :
       {"No-HBM", "IDEAL", "Alloy", "Bear", "Red-Alpha", "Red-Gamma",
        "Red-Basic", "Red-InSitu", "RedCache", "RedCache-2way",
        "RedCache-4way", "RedCache-8way", "Footprint-2KB", "Banshee",
        "TicToc"}) {
    EXPECT_TRUE(Contains(names, expected)) << expected << " not registered";
  }
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(PolicyRegistry, EveryRegisteredPolicyServesTrivialTraffic) {
  for (const std::string& name : PolicyRegistry::Instance().Names()) {
    ControllerHarness h(MakePolicy(name, SmallMemConfig()));
    EXPECT_STRNE(h.ctrl().name(), "") << name;
    h.Read(0x1000);
    h.Writeback(0x2000);
    h.Read(0x1000);
    h.RunToIdle();
    EXPECT_EQ(h.completions.size(), 2u) << name;
  }
}

TEST(PolicyRegistry, UnknownNameErrorListsEveryPolicy) {
  try {
    MakePolicy("bogus-policy", SmallMemConfig());
    FAIL() << "unknown policy name must throw";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("bogus-policy"), std::string::npos) << msg;
    for (const std::string& name : PolicyRegistry::Instance().Names()) {
      EXPECT_NE(msg.find(name), std::string::npos)
          << "error message omits registered policy " << name << ": " << msg;
    }
  }
}

TEST(PolicyRegistry, DuplicateRegistrationRejected) {
  PolicyInfo dup;
  dup.name = "Alloy";  // already taken by the builtin
  dup.make = [](const MemControllerConfig& cfg) {
    return MakePolicy("Alloy", cfg);
  };
  EXPECT_THROW(PolicyRegistry::Instance().Register(dup),
               std::invalid_argument);
}

TEST(PolicyRegistry, InvalidInfosRejected) {
  PolicyInfo no_factory;
  no_factory.name = "test-only-no-factory";
  EXPECT_THROW(PolicyRegistry::Instance().Register(no_factory),
               std::invalid_argument);

  PolicyInfo no_name;
  no_name.make = [](const MemControllerConfig& cfg) {
    return MakePolicy("Alloy", cfg);
  };
  EXPECT_THROW(PolicyRegistry::Instance().Register(no_name),
               std::invalid_argument);
}

TEST(PolicyRegistry, CapabilitySetsAreConsistentSubsets) {
  const auto& reg = PolicyRegistry::Instance();
  const auto names = reg.Names();
  for (const auto& subset :
       {reg.DifferentialNames(), reg.GoldenNames(), reg.SweepNames()}) {
    EXPECT_TRUE(std::is_sorted(subset.begin(), subset.end()));
    for (const std::string& n : subset) {
      EXPECT_TRUE(Contains(names, n)) << n;
    }
  }
  // Golden pinning without differential coverage would let a policy drift
  // from the reference model while still matching its own stale numbers.
  for (const std::string& n : reg.GoldenNames()) {
    EXPECT_TRUE(Contains(reg.DifferentialNames(), n))
        << n << " is golden-pinned but not differentially checked";
  }
}

TEST(PolicyRegistry, RivalFamiliesAreFullyEnrolled) {
  const auto& reg = PolicyRegistry::Instance();
  for (const char* rival : {"Banshee", "TicToc"}) {
    const PolicyInfo info = reg.Get(rival);
    EXPECT_TRUE(info.differential) << rival;
    EXPECT_TRUE(info.golden) << rival;
    EXPECT_TRUE(info.sweep) << rival;
    EXPECT_FALSE(info.summary.empty()) << rival;
  }
}

// --- the paper's policies by name ------------------------------------------

/// Every memory system of the paper's Fig. 2 and Fig. 9-11 comparisons.
const char* const kPaperPolicies[] = {
    "No-HBM",    "IDEAL",     "Alloy",      "Bear",     "Red-Alpha",
    "Red-Gamma", "Red-Basic", "Red-InSitu", "RedCache",
};

TEST(Factory, AllArchesConstruct) {
  for (const char* name : kPaperPolicies) {
    auto ctrl = MakePolicy(name, SmallMemConfig());
    ASSERT_NE(ctrl, nullptr) << name;
    EXPECT_STRNE(ctrl->name(), "");
  }
}

TEST(Factory, NamesRoundTrip) {
  for (const char* name : kPaperPolicies) {
    EXPECT_EQ(PolicyRegistry::Instance().Get(name).name, name);
  }
  EXPECT_THROW(MakePolicy("bogus", SmallMemConfig()), std::invalid_argument);
}

TEST(Factory, EvaluationListMatchesPaperFigures) {
  const auto& policies = EvaluationPolicies();
  ASSERT_EQ(policies.size(), 7u);
  EXPECT_EQ(policies.front(), "Alloy");  // normalization baseline
  EXPECT_EQ(policies.back(), "RedCache");
}

TEST(Factory, EveryArchServesTrivialTraffic) {
  for (const std::string& name : EvaluationPolicies()) {
    ControllerHarness h(MakePolicy(name, SmallMemConfig()));
    h.Read(0x1000);
    h.Writeback(0x2000);
    h.Read(0x1000);
    h.RunToIdle();
    EXPECT_EQ(h.completions.size(), 2u) << name;
  }
}

}  // namespace
}  // namespace redcache
