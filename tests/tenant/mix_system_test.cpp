// End-to-end mix runs: tenant counters must exactly partition the global
// totals for every registered policy, and single-tenant runs must export no
// tenant counters at all (byte-identical stats to pre-mix builds).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dramcache/policy_registry.hpp"
#include "sim/runner.hpp"
#include "tenant/qos.hpp"

namespace redcache {
namespace {

RunSpec TwoTenantSpec(const std::string& policy) {
  RunSpec s;
  s.policy = policy;
  s.scale = 0.02;
  s.ignore_env_scale = true;
  s.seed = 7;
  tenant::TenantSpec a;
  a.workload = "LU";
  tenant::TenantSpec b;
  b.workload = "RDX";
  b.weight = 2;
  s.mix.tenants = {a, b};
  return s;
}

TEST(MixSystem, TenantCountersPartitionTotalsForEveryPolicy) {
  for (const std::string& policy : PolicyNames()) {
    const RunResult r = RunOne(TwoTenantSpec(policy));
    ASSERT_TRUE(r.completed) << policy;

    const auto rows = tenant::QosFromStats(r.stats);
    ASSERT_EQ(rows.size(), 2u) << policy;
    std::uint64_t refs = 0, reads = 0, writebacks = 0, serves = 0;
    for (const auto& row : rows) {
      EXPECT_GT(row.refs, 0u)
          << policy << ": tenant " << row.tenant << " was starved";
      refs += row.refs;
      reads += row.reads;
      writebacks += row.writebacks;
      serves += row.serve_hits + row.serve_misses;
    }
    // The per-tenant rows must partition — not approximate — the global
    // counters the solo simulator already exports.
    EXPECT_EQ(refs, r.stats.GetCounter("core.refs")) << policy;
    EXPECT_EQ(reads, r.stats.GetCounter("ctrl.reads")) << policy;
    EXPECT_EQ(writebacks, r.stats.GetCounter("ctrl.writebacks")) << policy;
    EXPECT_EQ(serves, r.stats.GetCounter("ctrl.reads"))
        << policy << ": every demand read must be attributed hit-or-miss";
  }
}

TEST(MixSystem, MixRunsSurviveTheShadowChecker) {
  // The co-scheduled stream must still satisfy the reference memory model:
  // verify mode throws on any divergence and audits the drain.
  RunSpec s = TwoTenantSpec("RedCache");
  s.verify = true;
  const RunResult r = RunOne(s);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.stats.GetCounter("verify.divergences"), 0u);
}

TEST(MixSystem, SingleTenantRunsExportNoTenantCounters) {
  RunSpec s;
  s.workload = "LU";
  s.scale = 0.02;
  s.ignore_env_scale = true;
  const RunResult r = RunOne(s);
  ASSERT_TRUE(r.completed);
  for (const auto& [name, value] : r.stats.counters()) {
    EXPECT_NE(name.rfind("tenant", 0), 0u)
        << name << "=" << value
        << ": single-tenant stats must stay byte-identical";
  }
  EXPECT_TRUE(tenant::QosFromStats(r.stats).empty());
}

TEST(MixSystem, InterleavePlacementStillPartitions) {
  RunSpec s = TwoTenantSpec("RedCache");
  s.mix.mode = tenant::TenantAddressMap::Mode::kInterleave;
  const RunResult r = RunOne(s);
  ASSERT_TRUE(r.completed);
  const auto rows = tenant::QosFromStats(r.stats);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].refs + rows[1].refs, r.stats.GetCounter("core.refs"));
}

}  // namespace
}  // namespace redcache
