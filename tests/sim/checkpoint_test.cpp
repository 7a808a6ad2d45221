// Checkpoint/restore differential: snapshotting a run at an arbitrary
// cycle and restoring it in a fresh System must be invisible — the resumed
// run's final StatSet and exec_cycles are byte-identical to an undisturbed
// run. Parameterized over EVERY registered policy (the serialization
// contract is part of the policy plugin obligations) plus a two-tenant mix
// cell; a "fuzzer-chosen" checkpoint cycle is derived per policy from the
// baseline run length so different policies snapshot at different phases.
#include "sim/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "dramcache/policy_registry.hpp"
#include "obs/json.hpp"
#include "sim/batch.hpp"
#include "sim/runner.hpp"
#include "sim/system.hpp"
#include "workloads/benchmarks.hpp"
#include "workloads/trace_file.hpp"

namespace redcache {
namespace {

RunSpec TinySpec(const std::string& policy, const std::string& wl = "LREG") {
  RunSpec spec;
  spec.policy = policy;
  spec.workload = wl;
  spec.scale = 0.02;
  spec.ignore_env_scale = true;
  spec.preset = EvalPreset();
  spec.preset.hierarchy.num_cores = 4;
  return spec;
}

/// Byte-exact StatSet equality via the serializer itself.
std::vector<std::uint8_t> Bytes(const StatSet& stats) {
  ser::Writer w;
  stats.Snapshot(w);
  return w.buffer();
}

/// Deterministic per-policy "fuzz" cycle inside (0, 2/3 * exec_cycles].
/// exec_cycles includes core finish-time tails past the event loop's last
/// visited cycle, so a checkpoint scheduled in the very tail of the run may
/// legitimately never fire; staying under 2/3 keeps the hook reachable.
Cycle FuzzCycle(const std::string& policy, Cycle exec_cycles) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : policy) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return 1 + h % std::max<Cycle>((2 * exec_cycles) / 3, 1);
}

/// Run with a one-shot checkpoint at `at`, returning the blob; then
/// restore into a fresh System, run to completion, and require final
/// stats + exec_cycles byte-identical to `baseline`.
void CheckRoundTrip(const RunSpec& spec, Cycle at,
                    const RunResult& baseline) {
  const std::string key = ckpt::SpecKeyOf(spec);
  std::string blob;
  {
    auto sys = BuildSystem(spec);
    System* raw = sys.get();
    sys->SetCheckpointHook(at, /*every=*/0, [raw, &blob, &key](Cycle now) {
      blob = ckpt::Capture(*raw, now, key);
    });
    const RunResult with_ckpt = sys->Run(spec.max_cycles);
    // Taking a checkpoint must not perturb the run it was taken from.
    ASSERT_TRUE(with_ckpt.completed);
    EXPECT_EQ(with_ckpt.exec_cycles, baseline.exec_cycles);
    EXPECT_EQ(Bytes(with_ckpt.stats), Bytes(baseline.stats));
  }
  ASSERT_FALSE(blob.empty()) << "checkpoint hook never fired";

  auto fresh = BuildSystem(spec);
  const ckpt::CheckpointMeta meta = ckpt::RestoreInto(*fresh, blob, key);
  EXPECT_GE(meta.cycle, at);
  const RunResult resumed = fresh->Run(spec.max_cycles);
  ASSERT_TRUE(resumed.completed);
  EXPECT_EQ(resumed.exec_cycles, baseline.exec_cycles)
      << "restored run diverged (checkpoint at cycle " << meta.cycle << ")";
  EXPECT_EQ(Bytes(resumed.stats), Bytes(baseline.stats))
      << "restored run's final stats differ (checkpoint at cycle "
      << meta.cycle << ")";
}

TEST(CheckpointDifferential, EveryRegisteredPolicyRoundTrips) {
  for (const std::string& policy : PolicyNames()) {
    SCOPED_TRACE("policy=" + policy);
    const RunSpec spec = TinySpec(policy);
    const RunResult baseline = RunOne(spec);
    ASSERT_TRUE(baseline.completed);
    ASSERT_GT(baseline.exec_cycles, 2u);
    CheckRoundTrip(spec, FuzzCycle(policy, baseline.exec_cycles), baseline);
  }
}

TEST(CheckpointDifferential, RedCacheAtSeveralPhases) {
  const RunSpec spec = TinySpec("RedCache", "RDX");
  const RunResult baseline = RunOne(spec);
  ASSERT_TRUE(baseline.completed);
  for (const Cycle at :
       {Cycle{1}, baseline.exec_cycles / 7, baseline.exec_cycles / 3,
        (2 * baseline.exec_cycles) / 3}) {
    SCOPED_TRACE("checkpoint_at=" + std::to_string(at));
    CheckRoundTrip(spec, std::max<Cycle>(at, 1), baseline);
  }
}

TEST(CheckpointDifferential, TwoTenantMixRoundTrips) {
  RunSpec spec = TinySpec("RedCache");
  tenant::TenantSpec a, b;
  a.workload = "LREG";
  b.workload = "RDX";
  spec.mix.tenants = {a, b};
  const RunResult baseline = RunOne(spec);
  ASSERT_TRUE(baseline.completed);
  CheckRoundTrip(spec, baseline.exec_cycles / 3 + 1, baseline);
}

/// Fnv64 of the blob a one-shot hook captures at cycle `at`.
std::uint64_t CaptureHash(const RunSpec& spec, Cycle at,
                          const std::string& key) {
  auto sys = BuildSystem(spec);
  System* raw = sys.get();
  std::string blob;
  sys->SetCheckpointHook(at, /*every=*/0, [raw, &blob, &key](Cycle now) {
    blob = ckpt::Capture(*raw, now, key);
  });
  const RunResult result = sys->Run(spec.max_cycles);
  EXPECT_TRUE(result.completed);
  EXPECT_FALSE(blob.empty())
      << "checkpoint hook never fired (" << key << " ran "
      << result.exec_cycles << " cycles)";
  return Fnv64(reinterpret_cast<const std::uint8_t*>(blob.data()),
               blob.size());
}

TEST(Checkpoint, BlobBytesArePinned) {
  // The wire format is pinned byte for byte: a checkpoint blob per policy,
  // a two-tenant mix and a replayed RCTR file, all captured at one fixed
  // mid-run cycle, plus one disk-cache entry. A layout change
  // must bump kCheckpointVersion / kCacheFormatVersion and then re-pin the
  // hash this test prints.
  constexpr Cycle kAt = 150000;
  const std::map<std::string, std::uint64_t> kPinned = {
      {"Alloy", 0x57291261eee27c68ull},
      {"Banshee", 0xe3e7157591d42d1aull},
      {"Bear", 0x3c3518459cc5eef7ull},
      {"Footprint-2KB", 0x759efcae869b6c65ull},
      {"IDEAL", 0xde486324b0c3bd3ull},
      {"No-HBM", 0xd294b443ffd24535ull},
      {"Red-Alpha", 0x298be633efbfafdcull},
      {"Red-Basic", 0x296e3df7e6f14739ull},
      {"Red-Gamma", 0xc40795652ec5b5aull},
      {"Red-InSitu", 0x45c1e57e95cf67e6ull},
      {"RedCache", 0x6edc281509920a0eull},
      {"RedCache[alpha=1]", 0x9a0277c736e81ec4ull},
      {"RedCache-2way", 0xc882f5060a04afc0ull},
      {"RedCache-4way", 0x8d8ed57b3bcf20cfull},
      {"RedCache-4way[alpha=1]", 0xdba12806c3152c20ull},
      {"RedCache-8way", 0x3f970380a157f605ull},
      {"TicToc", 0xa73cca980b85db37ull},
      {"cache:Bear/LU", 0xec9aef0e2ca631d0ull},
      {"mix:LREG+RDX", 0xa478d7d129374fdull},
      {"replay:LU", 0x1815e7240dfe70feull},
  };
  std::map<std::string, std::uint64_t> actual;
  // Every policy (a superset of the differential set), on a cell large
  // enough that the caches hold lines and the queues are busy at kAt. At
  // this size alpha admits nothing yet, so two RedCache cells pin alpha at
  // 1 to put lines (and 4-way LRU stamps) into the tag store.
  for (const std::string& policy : PolicyNames()) {
    RunSpec spec = TinySpec(policy, "LU");
    spec.scale = 0.1;
    actual[policy] = CaptureHash(spec, kAt, ckpt::SpecKeyOf(spec));
    if (policy == "RedCache" || policy == "RedCache-4way") {
      spec.alpha_pin = 1;
      actual[policy + "[alpha=1]"] =
          CaptureHash(spec, kAt, ckpt::SpecKeyOf(spec));
    }
  }

  RunSpec mix = TinySpec("RedCache");
  mix.scale = 0.1;
  tenant::TenantSpec a, b;
  a.workload = "LREG";
  b.workload = "RDX";
  mix.mix.tenants = {a, b};
  actual["mix:LREG+RDX"] = CaptureHash(mix, kAt, ckpt::SpecKeyOf(mix));

  // The spec key of a replay names its path, so this blob uses a fixed key.
  RunSpec replay = TinySpec("Alloy", "LU");
  replay.scale = 0.1;
  replay.serve_path = testing::TempDir() + "/pinned_lu.rctr";
  {
    WorkloadBuildParams wp;
    wp.num_cores = replay.preset.hierarchy.num_cores;
    wp.scale = replay.scale;
    auto source = MakeWorkload("LU", wp);
    TraceFileWriter w(replay.serve_path, source->num_cores());
    w.CaptureAll(*source);
  }
  actual["replay:LU"] = CaptureHash(replay, kAt, "replay:LU");
  std::remove(replay.serve_path.c_str());

  // A disk-cache entry, hashed without its build identity (which changes
  // with every source edit).
  char tmpl[] = "/tmp/redcache_ckpt_pinned_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  ASSERT_EQ(::setenv("REDCACHE_CACHE_DIR", dir.c_str(), 1), 0);
  CellSpec cell{TinySpec("Bear", "LU"), "pinned"};
  cell.spec.scale = 0.1;
  RunCellCached(cell);
  ::unsetenv("REDCACHE_CACHE_DIR");
  const std::string path = dir + "/" + CellKey(cell) + ".stats";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "expected cache file at " << path;
  std::string entry((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  const std::size_t id_at = entry.find(CacheIdentity());
  ASSERT_NE(id_at, std::string::npos);
  entry.erase(id_at, CacheIdentity().size());
  actual["cache:Bear/LU"] = Fnv64(
      reinterpret_cast<const std::uint8_t*>(entry.data()), entry.size());
  std::remove(path.c_str());
  ::rmdir(dir.c_str());

  for (const auto& [cell_name, hash] : actual) {
    const auto it = kPinned.find(cell_name);
    std::ostringstream got;
    got << "0x" << std::hex << hash << "ull";
    if (it == kPinned.end()) {
      ADD_FAILURE() << "no pinned hash for " << cell_name << " (actual "
                    << got.str() << ")";
      continue;
    }
    EXPECT_EQ(hash, it->second)
        << cell_name << " blob bytes changed: hash is now " << got.str();
  }
  EXPECT_EQ(actual.size(), kPinned.size());
}

TEST(Checkpoint, BlobHeaderRoundTrips) {
  const RunSpec spec = TinySpec("Alloy");
  auto sys = BuildSystem(spec);
  const std::string key = ckpt::SpecKeyOf(spec);
  const std::string blob = ckpt::Capture(*sys, 0, key);
  const ckpt::CheckpointMeta meta = ckpt::PeekMeta(blob);
  EXPECT_EQ(meta.version, ckpt::kCheckpointVersion);
  EXPECT_EQ(meta.spec_key, key);
  EXPECT_EQ(meta.cycle, 0u);
}

TEST(Checkpoint, SpecKeyMismatchRejected) {
  const RunSpec spec = TinySpec("Alloy");
  auto sys = BuildSystem(spec);
  const std::string blob = ckpt::Capture(*sys, 0, ckpt::SpecKeyOf(spec));

  RunSpec other = spec;
  other.seed = 99;  // different spec => different key
  auto target = BuildSystem(other);
  EXPECT_THROW(ckpt::RestoreInto(*target, blob, ckpt::SpecKeyOf(other)),
               ser::SerializeError);
}

TEST(Checkpoint, CorruptBlobRejected) {
  const RunSpec spec = TinySpec("Alloy");
  auto sys = BuildSystem(spec);
  const std::string key = ckpt::SpecKeyOf(spec);
  std::string blob = ckpt::Capture(*sys, 0, key);

  auto fresh = BuildSystem(spec);
  std::string truncated = blob.substr(0, blob.size() / 2);
  EXPECT_THROW(ckpt::RestoreInto(*fresh, truncated, key),
               ser::SerializeError);

  std::string flipped = blob;
  flipped[flipped.size() / 2] ^= 0x5a;
  auto fresh2 = BuildSystem(spec);
  EXPECT_THROW(ckpt::RestoreInto(*fresh2, flipped, key),
               ser::SerializeError);

  std::string not_a_ckpt = "definitely not a checkpoint";
  auto fresh3 = BuildSystem(spec);
  EXPECT_THROW(ckpt::RestoreInto(*fresh3, not_a_ckpt, key),
               ser::SerializeError);
}

TEST(CheckpointTelemetry, RestoredRunTelescopesWithBaseline) {
  // Satellite: restoring with DIFFERENT telemetry epoch settings must not
  // corrupt the epoch telescoping invariant. The resumed run's NDJSON
  // header carries restored_at plus the pre-restore cumulative counters as
  // a baseline, the first epoch begins exactly at restored_at, and
  // sum(epoch deltas) + baseline == the end record's totals.
  char tmpl[] = "/tmp/redcache_ckpt_telem_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  const std::string ckpt_path = dir + "/mid.ckpt";
  const std::string ndjson_path = dir + "/resumed.ndjson";

  const RunSpec plain = TinySpec("RedCache", "RDX");
  const RunResult baseline = RunOne(plain);
  ASSERT_TRUE(baseline.completed);

  RunSpec capture = plain;
  capture.checkpoint_path = ckpt_path;
  capture.checkpoint_at = baseline.exec_cycles / 3;
  ASSERT_TRUE(RunOne(capture).completed);

  RunSpec resume = plain;
  resume.restore_path = ckpt_path;
  resume.telemetry_path = ndjson_path;
  // A deliberately odd epoch width, unlike anything the capture run or the
  // preset default would have used.
  resume.epoch.cycles = 7777;
  const RunResult resumed = RunOne(resume);
  ASSERT_TRUE(resumed.completed);
  // Telemetry attach + restore stay invisible to the results.
  EXPECT_EQ(resumed.exec_cycles, baseline.exec_cycles);
  EXPECT_EQ(Bytes(resumed.stats), Bytes(baseline.stats));

  std::ifstream in(ndjson_path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::uint64_t restored_at = 0;
  std::uint64_t baseline_refs = 0;
  std::int64_t delta_refs_sum = 0;
  std::uint64_t total_refs = 0;
  bool saw_header = false, saw_first_epoch = false, saw_end = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    obs::JsonValue doc;
    std::string err;
    ASSERT_TRUE(obs::ParseJson(line, doc, &err)) << err << "\n" << line;
    const std::string type = doc.Find("type")->string;
    if (type == "header") {
      saw_header = true;
      ASSERT_NE(doc.Find("restored_at"), nullptr)
          << "restored run's header must carry restored_at";
      restored_at = static_cast<std::uint64_t>(doc.Find("restored_at")->number);
      const obs::JsonValue* base = doc.Find("baseline");
      ASSERT_NE(base, nullptr);
      const obs::JsonValue* refs = base->Find("core.refs");
      ASSERT_NE(refs, nullptr) << "baseline must carry the core counters";
      baseline_refs = static_cast<std::uint64_t>(refs->number);
      EXPECT_GT(baseline_refs, 0u)
          << "a mid-run checkpoint has non-zero progress";
    } else if (type == "epoch") {
      if (!saw_first_epoch) {
        saw_first_epoch = true;
        EXPECT_EQ(static_cast<std::uint64_t>(doc.Find("begin")->number),
                  restored_at)
            << "first epoch must begin exactly where the restore resumed";
      }
      const obs::JsonValue* refs = doc.Find("delta")->Find("core.refs");
      if (refs != nullptr) {
        delta_refs_sum += static_cast<std::int64_t>(refs->number);
      }
    } else if (type == "end") {
      saw_end = true;
      total_refs = static_cast<std::uint64_t>(
          doc.Find("totals")->Find("core.refs")->number);
    }
  }
  ASSERT_TRUE(saw_header);
  ASSERT_TRUE(saw_first_epoch) << "resumed run produced no epochs";
  ASSERT_TRUE(saw_end);
  EXPECT_EQ(baseline_refs + static_cast<std::uint64_t>(delta_refs_sum),
            total_refs)
      << "epoch telescoping with baseline must cover the full run";
  EXPECT_EQ(total_refs, baseline.stats.GetCounter("core.refs"));

  std::remove(ckpt_path.c_str());
  std::remove(ndjson_path.c_str());
  ::rmdir(dir.c_str());
}

TEST(Checkpoint, VerifyDecoratorFailsLoudly) {
  // The ShadowChecker decorator inherits the throwing MemController
  // defaults: checkpointing a --verify run must fail with a clear error,
  // never silently skip the checker's state.
  RunSpec spec = TinySpec("Alloy");
  spec.verify = true;
  auto sys = BuildSystem(spec);
  ser::Writer w;
  EXPECT_THROW(sys->Snapshot(w, 0), ser::SerializeError);
}

}  // namespace
}  // namespace redcache
