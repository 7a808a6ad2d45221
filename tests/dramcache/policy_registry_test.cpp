#include "dramcache/policy_registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <type_traits>

#include "controller_harness.hpp"

namespace redcache {
namespace {

bool Contains(const std::vector<std::string>& names, const std::string& n) {
  return std::find(names.begin(), names.end(), n) != names.end();
}

TEST(PolicyRegistry, AllBuiltinsRegistered) {
  const auto names = PolicyNames();
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
  for (const std::string& name : PolicyNames()) {
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
    for (const std::string& name : PolicyNames()) {
      EXPECT_NE(msg.find(name), std::string::npos)
          << "error message omits registered policy " << name << ": " << msg;
    }
  }
}

std::unique_ptr<MemController> MakeAlloy(const MemControllerConfig& cfg) {
  return MakePolicy("Alloy", cfg);
}

PolicyInfo Row(std::string_view name) {
  return {.name = name, .summary = "s", .family = "f", .make = MakeAlloy};
}

TEST(PolicyRegistry, DuplicateRegistrationRejected) {
  // The shipped table has strictly increasing, hence unique, names; the
  // invariant the build asserts rejects a repeated or out-of-order row.
  EXPECT_TRUE(ValidPolicyTable(Policies()));
  const PolicyInfo dup[] = {Row("Alloy"), Row("Alloy")};
  EXPECT_FALSE(ValidPolicyTable(dup));
  const PolicyInfo unsorted[] = {Row("Bear"), Row("Alloy")};
  EXPECT_FALSE(ValidPolicyTable(unsorted));
  const PolicyInfo sorted[] = {Row("Alloy"), Row("Bear")};
  EXPECT_TRUE(ValidPolicyTable(sorted));
}

TEST(PolicyRegistry, InvalidInfosRejected) {
  for (const PolicyInfo& row : Policies()) {
    EXPECT_FALSE(row.name.empty());
    EXPECT_FALSE(row.summary.empty()) << row.name;
    EXPECT_FALSE(row.family.empty()) << row.name;
  }
  // A row without a factory does not compile: `make` is a reference.
  static_assert(!std::is_default_constructible_v<PolicyInfo>);
  PolicyInfo no_name = Row("");
  PolicyInfo no_summary = Row("a");
  no_summary.summary = {};
  PolicyInfo no_family = Row("a");
  no_family.family = {};
  for (const PolicyInfo& bad : {no_name, no_summary, no_family}) {
    const PolicyInfo table[] = {bad};
    EXPECT_FALSE(ValidPolicyTable(table)) << bad.name;
  }
}

TEST(PolicyRegistry, CapabilitySetsAreConsistentSubsets) {
  const auto names = PolicyNames();
  const auto differential = DifferentialPolicyNames();
  for (const auto& subset :
       {differential, GoldenPolicyNames(), SweepPolicyNames()}) {
    EXPECT_TRUE(std::is_sorted(subset.begin(), subset.end()));
    for (const std::string& n : subset) {
      EXPECT_TRUE(Contains(names, n)) << n;
    }
  }
  // Golden pinning without differential coverage would let a policy drift
  // from the reference model while still matching its own stale numbers.
  for (const std::string& n : GoldenPolicyNames()) {
    EXPECT_TRUE(Contains(differential, n))
        << n << " is golden-pinned but not differentially checked";
  }
}

TEST(PolicyRegistry, RivalFamiliesAreFullyEnrolled) {
  for (const char* rival : {"Banshee", "TicToc"}) {
    const PolicyInfo& info = GetPolicy(rival);
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
    EXPECT_EQ(GetPolicy(name).name, name);
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
