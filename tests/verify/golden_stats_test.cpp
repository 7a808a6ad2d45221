// Golden-stats regression: every Table II workload under every registry
// policy that opts in (PolicyInfo::golden — Alloy, BEAR, RedCache, plus
// the Banshee and TicToc rival families) is pinned to the exact counters
// recorded in tests/verify/golden/golden_stats.json.
//
// Intentional behaviour changes regenerate the file with
//   REDCACHE_UPDATE_GOLDEN=1 ctest -R Golden
// and the diff goes into the same commit as the change that caused it.
#include "verify/golden.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <tuple>

#include "dramcache/policy_registry.hpp"

namespace redcache {
namespace {

constexpr double kGoldenScale = 0.02;

std::vector<std::string> GoldenPolicies() {
  return GoldenPolicyNames();
}

RunSpec SpecFor(const std::string& policy, const std::string& workload) {
  RunSpec spec;
  spec.policy = policy;
  spec.workload = workload;
  spec.scale = kGoldenScale;
  spec.seed = 1;
  return spec;
}

/// The pinned 2-tenant mix cell: LU + RDX co-scheduled at golden scale.
/// Mix records pin the per-tenant counters too (see CollectGolden), so QoS
/// attribution drift fails the same way end-to-end drift does.
RunSpec MixSpecFor(const std::string& policy) {
  RunSpec spec;
  spec.policy = policy;
  spec.scale = kGoldenScale;
  spec.seed = 1;
  tenant::TenantSpec lu;
  lu.workload = "LU";
  tenant::TenantSpec rdx;
  rdx.workload = "RDX";
  spec.mix.tenants = {lu, rdx};
  return spec;
}

std::string GoldenPath() {
  return std::string(REDCACHE_GOLDEN_DIR) + "/golden_stats.json";
}

bool UpdateMode() {
  const char* env = std::getenv("REDCACHE_UPDATE_GOLDEN");
  return env != nullptr && env[0] != '\0' && std::string(env) != "0";
}

/// The golden numbers are absolute, so the ambient scale override must not
/// leak in.
void NeutralizeScaleEnv() { ::unsetenv("REDCACHE_REFS_SCALE"); }

TEST(GoldenStats, RegistryExportsExpectedPolicies) {
  const std::vector<std::string> policies = GoldenPolicies();
  for (const char* required :
       {"Alloy", "Bear", "RedCache", "Banshee", "TicToc"}) {
    EXPECT_NE(std::find(policies.begin(), policies.end(), required),
              policies.end())
        << required << " missing from the golden set";
  }
}

TEST(GoldenStats, SerializationRoundTrips) {
  GoldenTable table;
  table["Alloy/LU/eval@scale=0.02,seed=1"] = {{"a", 1}, {"b", 22}};
  table["RedCache/FT/eval@scale=0.02,seed=1"] = {{"x", 0}};
  const std::string text = SerializeGolden(table);
  GoldenTable parsed;
  std::string error;
  ASSERT_TRUE(ParseGolden(text, parsed, error)) << error;
  EXPECT_EQ(parsed, table);
  // Serialization is canonical: a second pass is byte-identical.
  EXPECT_EQ(SerializeGolden(parsed), text);
}

TEST(GoldenStats, ParserRejectsMalformedInput) {
  GoldenTable out;
  std::string error;
  EXPECT_FALSE(ParseGolden("{\"a\": {\"b\": }}", out, error));
  EXPECT_FALSE(ParseGolden("not json", out, error));
  EXPECT_FALSE(ParseGolden("{\"a\"", out, error));
  EXPECT_TRUE(ParseGolden("{}", out, error)) << error;
}

TEST(GoldenStats, ParserTakesOnlyExactWholeCounts) {
  GoldenTable out;
  std::string error;
  const auto parse = [&](const std::string& value) {
    return ParseGolden("{\"k\": {\"c\": " + value + "}}", out, error);
  };
  // Past 2^64 (the old digit loop wrapped it), past 2^53 (a double no
  // longer holds it exactly), fractions, signs and non-numbers.
  for (const char* bad : {"99999999999999999999", "9007199254740994", "1.5",
                          "-1", "\"7\"", "true", "null", "[1]", "{}"}) {
    EXPECT_FALSE(parse(bad)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
  EXPECT_FALSE(ParseGolden("{\"k\": 5}", out, error));
  EXPECT_FALSE(ParseGolden("[{\"c\": 5}]", out, error));
  ASSERT_TRUE(parse("6151464")) << error;
  EXPECT_EQ(out.at("k").at("c"), 6151464u);
  ASSERT_TRUE(parse("9007199254740992")) << error;
  EXPECT_EQ(out.at("k").at("c"), std::uint64_t{1} << 53);
  ASSERT_TRUE(parse("0")) << error;
  EXPECT_EQ(out.at("k").at("c"), 0u);
}

TEST(GoldenStats, CollectionIsDeterministic) {
  NeutralizeScaleEnv();
  const RunSpec spec = SpecFor("Alloy", "IS");
  const GoldenRecord a = CollectGolden(spec);
  const GoldenRecord b = CollectGolden(spec);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.at("completed"), 1u);
}

/// Regenerates the whole golden file; only runs with REDCACHE_UPDATE_GOLDEN.
TEST(GoldenStats, Regenerate) {
  if (!UpdateMode()) {
    GTEST_SKIP() << "set REDCACHE_UPDATE_GOLDEN=1 to regenerate "
                 << GoldenPath();
  }
  NeutralizeScaleEnv();
  GoldenTable table;
  for (const std::string& policy : GoldenPolicies()) {
    for (const std::string& wl : WorkloadLabels()) {
      const RunSpec spec = SpecFor(policy, wl);
      table[GoldenKey(spec)] = CollectGolden(spec);
    }
    const RunSpec mix = MixSpecFor(policy);
    table[GoldenKey(mix)] = CollectGolden(mix);
  }
  ASSERT_TRUE(WriteGoldenFile(GoldenPath(), table));
  std::printf("wrote %zu golden records to %s\n", table.size(),
              GoldenPath().c_str());
}

class GoldenCompare
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {
};

TEST_P(GoldenCompare, MatchesGoldenFile) {
  if (UpdateMode()) {
    GTEST_SKIP() << "regeneration run; comparisons are meaningless";
  }
  NeutralizeScaleEnv();
  const auto [policy, workload] = GetParam();
  GoldenTable golden;
  std::string error;
  ASSERT_TRUE(ReadGoldenFile(GoldenPath(), golden, error))
      << error << " — regenerate with REDCACHE_UPDATE_GOLDEN=1";

  const RunSpec spec = SpecFor(policy, workload);
  const std::string key = GoldenKey(spec);
  auto it = golden.find(key);
  ASSERT_NE(it, golden.end())
      << key << " missing; regenerate with REDCACHE_UPDATE_GOLDEN=1";

  const GoldenTable expected = {{key, it->second}};
  const GoldenTable actual = {{key, CollectGolden(spec)}};
  const auto diffs = DiffGolden(expected, actual);
  std::ostringstream msg;
  for (const auto& d : diffs) msg << "  " << d << "\n";
  EXPECT_TRUE(diffs.empty())
      << "golden drift (intentional? REDCACHE_UPDATE_GOLDEN=1):\n"
      << msg.str();
}

std::string CompareName(
    const ::testing::TestParamInfo<GoldenCompare::ParamType>& info) {
  std::string name = std::get<0>(info.param) + "_" + std::get<1>(info.param);
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, GoldenCompare,
    ::testing::Combine(::testing::ValuesIn(GoldenPolicies()),
                       ::testing::ValuesIn(WorkloadLabels())),
    CompareName);

/// The 2-tenant mix cell per golden policy, including tenant<N>.* counters.
class GoldenMixCompare : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenMixCompare, MatchesGoldenFile) {
  if (UpdateMode()) {
    GTEST_SKIP() << "regeneration run; comparisons are meaningless";
  }
  NeutralizeScaleEnv();
  GoldenTable golden;
  std::string error;
  ASSERT_TRUE(ReadGoldenFile(GoldenPath(), golden, error))
      << error << " — regenerate with REDCACHE_UPDATE_GOLDEN=1";

  const RunSpec spec = MixSpecFor(GetParam());
  const std::string key = GoldenKey(spec);
  auto it = golden.find(key);
  ASSERT_NE(it, golden.end())
      << key << " missing; regenerate with REDCACHE_UPDATE_GOLDEN=1";

  const GoldenTable expected = {{key, it->second}};
  const GoldenTable actual = {{key, CollectGolden(spec)}};
  const auto diffs = DiffGolden(expected, actual);
  std::ostringstream msg;
  for (const auto& d : diffs) msg << "  " << d << "\n";
  EXPECT_TRUE(diffs.empty())
      << "golden drift (intentional? REDCACHE_UPDATE_GOLDEN=1):\n"
      << msg.str();
}

std::string MixCompareName(
    const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, GoldenMixCompare,
                         ::testing::ValuesIn(GoldenPolicies()),
                         MixCompareName);

}  // namespace
}  // namespace redcache
