// Mix cells in the batch engine: the cache key must incorporate the whole
// mix descriptor, results must be deterministic across worker counts, the
// build-stamped disk cache must round-trip tenant counters, and the batch
// report JSON must carry the per-tenant QoS rows.
#include "sim/batch.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace redcache {
namespace {

/// Quiet batch options: `jobs` workers, no progress lines.
BatchOptions Quiet(unsigned jobs, const std::string& label = "t") {
  BatchOptions opts;
  opts.jobs = jobs;
  opts.progress = false;
  opts.label = label;
  return opts;
}

std::string Serialize(const RunResult& r) {
  std::ostringstream os;
  os << "completed=" << r.completed << "\nexec_cycles=" << r.exec_cycles
     << "\nhbm_energy=" << r.energy.HbmCacheNj()
     << "\nsystem_energy=" << r.energy.SystemNj() << "\n"
     << r.stats.ToString();
  return os.str();
}

RunSpec TwoTenantSpec() {
  RunSpec s;
  s.policy = "RedCache";
  s.scale = 0.02;
  s.ignore_env_scale = true;
  s.seed = 9;
  tenant::TenantSpec a;
  a.workload = "LU";
  tenant::TenantSpec b;
  b.workload = "RDX";
  s.mix.tenants = {a, b};
  return s;
}

TEST(MixBatch, CellKeyIncorporatesTheWholeMixDescriptor) {
  CellSpec solo;
  solo.spec = TwoTenantSpec();
  solo.spec.mix = {};
  solo.spec.workload = "LU";
  EXPECT_EQ(CellKey(solo).find("_mix"), std::string::npos)
      << "inactive mixes must keep pre-mix keys byte-identical";

  CellSpec mix;
  mix.spec = TwoTenantSpec();
  mix.spec.workload = "LU";  // same label: only the mix distinguishes them
  EXPECT_NE(CellKey(mix), CellKey(solo));
  EXPECT_NE(CellKey(mix).find("_mix"), std::string::npos);

  CellSpec weights = mix;
  weights.spec.mix.tenants[1].weight = 3;
  EXPECT_NE(CellKey(weights), CellKey(mix));

  CellSpec throttled = mix;
  throttled.spec.mix.tenants[0].min_gap = 8;
  EXPECT_NE(CellKey(throttled), CellKey(mix));

  CellSpec tenants = mix;
  tenants.spec.mix.tenants[1].workload = "FT";
  EXPECT_NE(CellKey(tenants), CellKey(mix));

  CellSpec interleaved = mix;
  interleaved.spec.mix.mode = tenant::TenantAddressMap::Mode::kInterleave;
  EXPECT_NE(CellKey(interleaved), CellKey(mix));

  CellSpec window = mix;
  window.spec.mix.window_bits = 16;
  EXPECT_NE(CellKey(window), CellKey(mix));

  // Solo baselines are observability-only and must NOT change the key —
  // otherwise attaching a baseline would orphan every cached mix cell.
  CellSpec baselined = mix;
  baselined.spec.mix.tenants[0].solo_exec_cycles = 123456;
  EXPECT_EQ(CellKey(baselined), CellKey(mix));
}

TEST(MixBatch, MixCellsAreDeterministicAcrossWorkerCounts) {
  std::vector<RunSpec> specs;
  for (const char* policy : {"Alloy", "RedCache", "Banshee"}) {
    RunSpec s = TwoTenantSpec();
    s.policy = policy;
    specs.push_back(s);
  }
  BatchOptions serial = Quiet(1);
  BatchOptions wide = Quiet(8);
  const auto base = RunBatch(specs, serial);
  const auto par = RunBatch(specs, wide);
  ASSERT_EQ(base.size(), par.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(Serialize(base[i]), Serialize(par[i]))
        << specs[i].policy << " mix diverged between jobs=1 and jobs=8";
  }
}

TEST(MixBatch, DiskCacheRoundTripsTenantCounters) {
  char tmpl[] = "/tmp/redcache_mix_disk_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  ASSERT_EQ(::setenv("REDCACHE_CACHE_DIR", dir.c_str(), 1), 0);

  CellSpec cell;
  cell.spec = TwoTenantSpec();
  cell.spec.seed = 21;
  cell.variant = "mixdisk1";

  CellProfile first_profile;
  const RunResult first = RunCellCached(cell, &first_profile);
  ASSERT_TRUE(first.completed);
  ASSERT_EQ(first_profile.tenants.size(), 2u)
      << "mix cells must surface QoS rows in their profile";
  const std::string path = dir + "/" + CellKey(cell) + ".stats";
  ASSERT_TRUE(std::ifstream(path).good()) << path;

  // The in-process memo would mask the disk path for the same key; copy the
  // entry under a memo-cold key (an entry stores the build identity, not
  // its key) and it must be served from disk, tenant counters intact.
  CellSpec cold = cell;
  cold.variant = "mixdisk2";
  const std::string cold_path = dir + "/" + CellKey(cold) + ".stats";
  std::filesystem::copy_file(path, cold_path);

  CellProfile profile;
  const RunResult loaded = RunCellCached(cold, &profile);
  EXPECT_TRUE(profile.disk_hit)
      << "identity mismatch: the mix entry was recomputed, not loaded";
  const auto want = tenant::QosFromStats(first.stats);
  const auto got = tenant::QosFromStats(loaded.stats);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t t = 0; t < want.size(); ++t) {
    EXPECT_EQ(got[t].refs, want[t].refs);
    EXPECT_EQ(got[t].finish_cycles, want[t].finish_cycles);
    EXPECT_EQ(got[t].serve_hits, want[t].serve_hits);
    EXPECT_EQ(got[t].hbm_bytes, want[t].hbm_bytes);
    EXPECT_EQ(got[t].rcu_drains, want[t].rcu_drains);
  }
  ASSERT_EQ(profile.tenants.size(), 2u)
      << "disk hits must re-derive QoS rows from the loaded counters";
  EXPECT_EQ(profile.tenants[0].refs, want[0].refs);

  ::unsetenv("REDCACHE_CACHE_DIR");
  std::remove(path.c_str());
  std::remove(cold_path.c_str());
  ::rmdir(dir.c_str());
}

TEST(MixBatch, ReportJsonCarriesTenantRowsOnlyForMixCells) {
  CellSpec mix;
  mix.spec = TwoTenantSpec();
  mix.variant = "mixreport";
  CellSpec solo;
  solo.spec = TwoTenantSpec();
  solo.spec.mix = {};
  solo.spec.workload = "LU";
  solo.variant = "mixreport";

  BatchReport report;
  BatchOptions opts = Quiet(2);
  opts.report = &report;
  const auto results = RunCells({mix, solo}, opts);
  ASSERT_EQ(results.size(), 2u);

  obs::JsonValue doc;
  std::string err;
  const std::string json = BatchReportJson(report);
  ASSERT_TRUE(obs::ParseJson(json, doc, &err)) << err << "\n" << json;
  const obs::JsonValue* cells = doc.Find("cells");
  ASSERT_NE(cells, nullptr);
  ASSERT_EQ(cells->array.size(), 2u);

  const obs::JsonValue* tenants = cells->array[0].Find("tenants");
  ASSERT_NE(tenants, nullptr) << "mix cell lost its tenants array:\n" << json;
  ASSERT_EQ(tenants->array.size(), 2u);
  for (const char* field :
       {"tenant", "refs", "finish_cycles", "reads", "writebacks",
        "serve_hits", "serve_misses", "hbm_bytes", "mm_bytes", "rcu_drains",
        "hit_rate", "hbm_share", "mm_share"}) {
    EXPECT_NE(tenants->array[0].Find(field), nullptr)
        << field << " missing from the per-tenant QoS row";
  }
  EXPECT_EQ(cells->array[1].Find("tenants"), nullptr)
      << "single-tenant cells must not grow a tenants array";
}

}  // namespace
}  // namespace redcache
