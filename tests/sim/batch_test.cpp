// Batch engine invariants: worker-count determinism, result ordering,
// cell keys, the build-stamped disk cache, and ParallelFor coverage.
#include "sim/batch.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.hpp"
#include "common/serialize.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "sim/runner.hpp"

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

// Serialize everything a figure could print from a RunResult so "identical"
// means byte-identical output, not just matching headline cycles.
std::string Serialize(const RunResult& r) {
  std::ostringstream os;
  os << "completed=" << r.completed << "\nexec_cycles=" << r.exec_cycles
     << "\nhbm_energy=" << r.energy.HbmCacheNj()
     << "\nsystem_energy=" << r.energy.SystemNj() << "\n"
     << r.stats.ToString();
  return os.str();
}

/// A disk-cache entry in the layout RunCellCached writes: header with
/// `identity`, then the checksummed payload (exec_cycles + stats).
void WriteEntry(const std::string& path, const std::string& identity,
                std::uint64_t exec_cycles, const StatSet& stats) {
  ser::Writer w;
  // One allocation; also keeps GCC 12's -Wstringop-overflow quiet.
  w.Reserve(256);
  w.Section("rcache");
  w.U64(kCacheFormatVersion);
  w.Str(identity);
  const std::size_t checksum_off = w.buffer().size();
  w.U64(0);
  const std::size_t payload_off = w.buffer().size();
  w.U64(exec_cycles);
  stats.Snapshot(w);
  w.PatchU64(checksum_off, Fnv64(w.buffer().data() + payload_off,
                                 w.buffer().size() - payload_off));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(w.buffer().data()),
            static_cast<std::streamsize>(w.buffer().size()));
}

std::vector<RunSpec> Matrix() {
  // 8 policies x 3 workloads, tiny but nonzero runs.
  const char* policies[] = {"No-HBM",    "IDEAL",    "Alloy",   "Bear",
                            "Red-Alpha", "RedCache", "Banshee", "TicToc"};
  const char* wls[] = {"LU", "RDX", "HIST"};
  std::vector<RunSpec> specs;
  for (const char* policy : policies) {
    for (const char* wl : wls) {
      RunSpec s;
      s.policy = policy;
      s.workload = wl;
      s.scale = 0.02;
      s.ignore_env_scale = true;  // immune to REDCACHE_REFS_SCALE in CI
      s.seed = 11;
      specs.push_back(s);
    }
  }
  return specs;
}

TEST(Batch, DeterministicAcrossWorkerCounts) {
  const auto specs = Matrix();

  BatchOptions serial;
  serial.jobs = 1;
  serial.progress = false;
  const auto base = RunBatch(specs, serial);

  BatchOptions wide;
  wide.jobs = 8;
  wide.progress = false;
  const auto par = RunBatch(specs, wide);

  ASSERT_EQ(base.size(), specs.size());
  ASSERT_EQ(par.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(Serialize(base[i]), Serialize(par[i]))
        << "cell " << i << " (" << specs[i].policy << "/"
        << specs[i].workload << ") diverged between jobs=1 and jobs=8";
  }
}

TEST(Batch, ProgressLinesFromEveryWorker) {
  // Progress on: workers share the completion counter and print under the
  // io mutex. Every completion prints exactly one numbered line, and the
  // results match a quiet run.
  std::vector<RunSpec> specs = Matrix();
  specs.resize(6);
  ASSERT_EQ(::setenv("REDCACHE_PROGRESS", "1", 1), 0);
  BatchOptions loud = Quiet(3, "prog");
  loud.progress = true;
  testing::internal::CaptureStderr();
  const auto results = RunBatch(specs, loud);
  const std::string err = testing::internal::GetCapturedStderr();
  ::unsetenv("REDCACHE_PROGRESS");

  const auto quiet = RunBatch(specs, Quiet(1));
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(Serialize(results[i]), Serialize(quiet[i])) << "cell " << i;
  }
  for (std::size_t d = 1; d <= specs.size(); ++d) {
    const std::string tag = "[prog " + std::to_string(d) + "/6] ";
    const std::size_t at = err.find(tag);
    ASSERT_NE(at, std::string::npos) << "missing " << tag << " in\n" << err;
    EXPECT_EQ(err.find(tag, at + 1), std::string::npos) << "twice: " << tag;
  }
}

TEST(Batch, RunCellsMatchesRunBatchAndSharesDuplicates) {
  // The same cell requested twice must produce the same object both times
  // and agree with the uncached path.
  RunSpec s;
  s.policy = "Alloy";
  s.workload = "FT";
  s.scale = 0.02;
  s.ignore_env_scale = true;
  s.seed = 11;

  const auto direct = RunBatch({s}, Quiet(1));

  CellSpec cell{s, ""};
  BatchOptions opts = Quiet(4);
  const auto cached = RunCells({cell, cell, cell}, opts);
  ASSERT_EQ(cached.size(), 3u);
  EXPECT_EQ(Serialize(cached[0]), Serialize(direct[0]));
  EXPECT_EQ(Serialize(cached[0]), Serialize(cached[1]));
  EXPECT_EQ(Serialize(cached[0]), Serialize(cached[2]));
}

TEST(Batch, CellKeyDistinguishesEverythingThatMattersToResults) {
  RunSpec s;
  s.workload = "LU";
  CellSpec a{s, ""};

  CellSpec b = a;
  b.spec.policy = "Bear";
  EXPECT_NE(CellKey(a), CellKey(b));

  CellSpec c = a;
  c.spec.workload = "MG";
  EXPECT_NE(CellKey(a), CellKey(c));

  CellSpec d = a;
  d.variant = "gran4";
  EXPECT_NE(CellKey(a), CellKey(d));

  CellSpec f = a;
  f.spec.seed = a.spec.seed + 1;
  EXPECT_NE(CellKey(a), CellKey(f))
      << "the seed flows into trace generation and must feed the key";

  CellSpec g = a;
  g.spec.max_cycles = 12345;
  EXPECT_NE(CellKey(a), CellKey(g)) << "the cycle cap truncates results";

  CellSpec h1 = a, h2 = a;
  h1.spec.scale = 1e-5;
  h1.spec.ignore_env_scale = true;
  h2.spec.scale = 2e-5;
  h2.spec.ignore_env_scale = true;
  EXPECT_NE(CellKey(h1), CellKey(h2))
      << "scales differing below 1e-4 must not alias";

  CellSpec t1 = a, t2 = a, t3 = a;
  t1.spec.serve_path = "traces/lu.rctr";
  t2.spec.serve_path = "traces/rdx.rctr";
  t3.spec.serve_path = "traces-lu.rctr";  // sanitizes like t1
  EXPECT_NE(CellKey(a), CellKey(t1));
  EXPECT_NE(CellKey(t1), CellKey(t2))
      << "a checkpoint must not restore into a run over another trace";
  EXPECT_NE(CellKey(t1), CellKey(t3));

  // Keys are filenames: no separators or spaces.
  for (char ch : CellKey(a)) {
    EXPECT_TRUE(ch != '/' && ch != ' ') << "unsafe char in key";
  }

  // The key is the only guard for preset data (the build identity covers
  // code), so every SimPreset field but the observability-only
  // telemetry_epoch_cycles must move it.
  using Tweak = std::function<void(SimPreset&)>;
  std::vector<std::pair<std::string, Tweak>> tweaks = {
      {"name", [](SimPreset& p) { p.name = "paper"; }},
      {"num_cores", [](SimPreset& p) { p.hierarchy.num_cores /= 2; }},
      {"max_outstanding", [](SimPreset& p) { p.core.max_outstanding++; }},
      {"dependent_fraction",
       [](SimPreset& p) { p.core.dependent_fraction += 0.125; }},
      {"l1_hit_cost", [](SimPreset& p) { p.core.l1_hit_cost++; }},
      {"l2_hit_cost", [](SimPreset& p) { p.core.l2_hit_cost++; }},
      {"l3_hit_cost", [](SimPreset& p) { p.core.l3_hit_cost++; }},
      {"retry_interval", [](SimPreset& p) { p.core.retry_interval++; }},
      {"has_hbm", [](SimPreset& p) { p.mem.has_hbm = !p.mem.has_hbm; }},
      {"input_queue_cap", [](SimPreset& p) { p.mem.input_queue_cap++; }},
      {"txn_pool_size", [](SimPreset& p) { p.mem.txn_pool_size++; }},
      {"line_blocks", [](SimPreset& p) { p.mem.line_blocks *= 2; }},
      {"alpha_pin", [](SimPreset& p) { p.mem.alpha_pin = 2; }},
      {"gamma_pin", [](SimPreset& p) { p.mem.gamma_pin = 2; }},
  };
  using SramTweak = void (*)(SramCacheConfig&);
  const std::pair<const char*, SramTweak> sram_fields[] = {
      {"name", [](SramCacheConfig& c) { c.name += "x"; }},
      {"size_bytes", [](SramCacheConfig& c) { c.size_bytes *= 2; }},
      {"ways", [](SramCacheConfig& c) { c.ways *= 2; }},
      {"latency", [](SramCacheConfig& c) { c.latency++; }},
  };
  for (const auto& [level, cfg] :
       {std::pair{"l1.", &HierarchyConfig::l1}, {"l2.", &HierarchyConfig::l2},
        {"l3.", &HierarchyConfig::l3}}) {
    for (const auto& [field, f] : sram_fields) {
      tweaks.emplace_back(std::string(level) + field,
                          [cfg, f](SimPreset& p) { f(p.hierarchy.*cfg); });
    }
  }
  using DramTweak = void (*)(DramConfig&);
  const std::pair<const char*, DramTweak> dram_fields[] = {
      {"name", [](DramConfig& d) { d.name += "x"; }},
      {"tRCD", [](DramConfig& d) { d.timing.tRCD++; }},
      {"tCAS", [](DramConfig& d) { d.timing.tCAS++; }},
      {"tCCD", [](DramConfig& d) { d.timing.tCCD++; }},
      {"tWTR", [](DramConfig& d) { d.timing.tWTR++; }},
      {"tWR", [](DramConfig& d) { d.timing.tWR++; }},
      {"tRTP", [](DramConfig& d) { d.timing.tRTP++; }},
      {"tBL", [](DramConfig& d) { d.timing.tBL++; }},
      {"tCWD", [](DramConfig& d) { d.timing.tCWD++; }},
      {"tRP", [](DramConfig& d) { d.timing.tRP++; }},
      {"tRRD", [](DramConfig& d) { d.timing.tRRD++; }},
      {"tRAS", [](DramConfig& d) { d.timing.tRAS++; }},
      {"tRC", [](DramConfig& d) { d.timing.tRC++; }},
      {"tFAW", [](DramConfig& d) { d.timing.tFAW++; }},
      {"tREFI", [](DramConfig& d) { d.timing.tREFI++; }},
      {"tRFC", [](DramConfig& d) { d.timing.tRFC++; }},
      {"tRTW_bubble", [](DramConfig& d) { d.timing.tRTW_bubble++; }},
      {"channels", [](DramConfig& d) { d.geometry.channels *= 2; }},
      {"ranks", [](DramConfig& d) { d.geometry.ranks_per_channel *= 2; }},
      {"banks", [](DramConfig& d) { d.geometry.banks_per_rank *= 2; }},
      {"row_bytes", [](DramConfig& d) { d.geometry.row_bytes *= 2; }},
      {"capacity", [](DramConfig& d) { d.geometry.capacity_bytes *= 2; }},
      {"bus_bits", [](DramConfig& d) { d.geometry.bus_bits *= 2; }},
      {"burst_bytes", [](DramConfig& d) { d.geometry.burst_bytes *= 2; }},
      {"sideband", [](DramConfig& d) { d.geometry.sideband_bytes += 8; }},
      {"queue_depth", [](DramConfig& d) { d.controller.queue_depth++; }},
      {"starvation", [](DramConfig& d) { d.controller.starvation_cycles++; }},
  };
  for (const auto& [device, cfg] :
       {std::pair{"hbm.", &MemControllerConfig::hbm},
        {"mainmem.", &MemControllerConfig::mainmem}}) {
    for (const auto& [field, f] : dram_fields) {
      tweaks.emplace_back(std::string(device) + field,
                          [cfg, f](SimPreset& p) { f(p.mem.*cfg); });
    }
  }
  std::set<std::string> keys = {CellKey(a)};
  for (const auto& [field, tweak] : tweaks) {
    CellSpec t = a;
    tweak(t.spec.preset);
    EXPECT_TRUE(keys.insert(CellKey(t)).second)
        << "preset field " << field << " does not feed the key";
  }

  CellSpec telemetry = a;
  telemetry.spec.preset.telemetry_epoch_cycles *= 2;
  EXPECT_EQ(CellKey(a), CellKey(telemetry))
      << "telemetry pacing is observability only";
}

TEST(Batch, ThresholdPinsJoinCellKeyOnlyWhenSet) {
  RunSpec s;
  s.policy = "RedCache";
  s.workload = "LU";
  const std::string plain = CellKey({s, ""});
  EXPECT_EQ(plain.find("_alpha"), std::string::npos);
  EXPECT_EQ(plain.find("_gamma"), std::string::npos);

  CellSpec alpha{s, ""};
  alpha.spec.alpha_pin = 2;
  CellSpec gamma{s, ""};
  gamma.spec.gamma_pin = 2;
  EXPECT_NE(CellKey(alpha).find("_alpha2_"), std::string::npos);
  EXPECT_NE(CellKey(gamma).find("_gamma2_"), std::string::npos);
  EXPECT_NE(CellKey(alpha), CellKey(gamma));
  EXPECT_NE(CellKey(alpha), plain);
}

TEST(Batch, DiskCacheRoundTripsAndRejectsBadFingerprint) {
  char tmpl[] = "/tmp/redcache_batch_test_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  ASSERT_EQ(::setenv("REDCACHE_CACHE_DIR", dir.c_str(), 1), 0);

  RunSpec s;
  s.policy = "Bear";
  s.workload = "RDX";
  s.scale = 0.02;
  s.ignore_env_scale = true;
  s.seed = 13;
  CellSpec cell{s, "disk"};

  const RunResult first = RunCellCached(cell);
  const std::string path = dir + "/" + CellKey(cell) + ".stats";
  {
    // The entry is a binary blob framed by the common serializer:
    // section tag, format version, build identity, payload checksum.
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << "expected cache file at " << path;
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    ser::Reader r(bytes);
    ASSERT_NO_THROW(r.Section("rcache"));
    EXPECT_EQ(r.U64(), kCacheFormatVersion);
    EXPECT_EQ(r.Str(), CacheIdentity());
    const std::uint64_t checksum = r.U64();
    EXPECT_EQ(checksum,
              Fnv64(reinterpret_cast<const std::uint8_t*>(bytes.data()) +
                        (bytes.size() - r.remaining()),
                    r.remaining()));
    EXPECT_EQ(r.U64(), first.exec_cycles);
  }

  // A second process would hit the disk entry; emulate the load path by
  // checking it agrees with the in-memo result (same key -> same result).
  const RunResult again = RunCellCached(cell);
  EXPECT_EQ(Serialize(first), Serialize(again));

  // An entry from another build (structurally valid, checksum intact,
  // foreign identity) must miss and re-simulate rather than serve stale
  // numbers. The in-process memo holds the first key, so use a fresh one.
  CellSpec cell2{s, "disk2"};
  const std::string path2 = dir + "/" + CellKey(cell2) + ".stats";
  WriteEntry(path2, "another-build", 1, StatSet{});
  CellProfile prof;
  const RunResult fresh = RunCellCached(cell2, &prof);
  EXPECT_FALSE(prof.disk_hit);
  EXPECT_EQ(fresh.exec_cycles, first.exec_cycles)
      << "identical spec under a different key must re-derive the same run";

  ::unsetenv("REDCACHE_CACHE_DIR");
  std::remove(path.c_str());
  std::remove(path2.c_str());
  ::rmdir(dir.c_str());
}

TEST(Batch, DiskCacheRoundTripsHistograms) {
  // No current workload emits histograms, so exercise the load path with a
  // hand-written entry in the binary format: exec_cycles + a StatSet
  // holding counters and one histogram. RunCellCached must
  // serve it (memo-cold key) with the histogram restored exactly.
  char tmpl[] = "/tmp/redcache_batch_hist_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  ASSERT_EQ(::setenv("REDCACHE_CACHE_DIR", dir.c_str(), 1), 0);

  RunSpec s;
  s.policy = "Alloy";
  s.workload = "RDX";
  s.scale = 0.02;
  s.ignore_env_scale = true;
  s.seed = 17;
  CellSpec cell{s, "histrt"};

  StatSet source;
  source.Counter("hbm.reads") = 7;
  Histogram& src_h = source.Hist("lat", /*bucket_width=*/10,
                                 /*num_buckets=*/4);
  src_h.Add(5);               // bucket 0
  src_h.Add(15);              // bucket 1
  src_h.Add(15);              // bucket 1
  src_h.Add(25, /*weight=*/2);  // bucket 2, weighted
  src_h.Add(1000);            // overflow

  const std::string path = dir + "/" + CellKey(cell) + ".stats";
  WriteEntry(path, CacheIdentity(), 4242, source);

  const RunResult r = RunCellCached(cell);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.exec_cycles, 4242u);
  EXPECT_EQ(r.stats.GetCounter("hbm.reads"), 7u);
  const Histogram* h = r.stats.FindHist("lat");
  ASSERT_NE(h, nullptr) << "cache hits must not drop histograms";
  EXPECT_EQ(h->bucket_width(), 10u);
  ASSERT_EQ(h->num_buckets(), 4u);
  EXPECT_EQ(h->bucket(0), 1u);
  EXPECT_EQ(h->bucket(1), 2u);
  EXPECT_EQ(h->bucket(2), 2u);  // weight-2 sample: buckets count weight
  EXPECT_EQ(h->bucket(3), 0u);
  EXPECT_EQ(h->overflow(), 1u);
  EXPECT_EQ(h->total_samples(), 5u);
  EXPECT_EQ(h->total_weight(), 6u);
  EXPECT_DOUBLE_EQ(h->weighted_sum(), src_h.weighted_sum());
  // Loaded StatSet must be byte-identical to the source under the
  // serializer (counters AND histogram state).
  ser::Writer ws, wl;
  source.Snapshot(ws);
  r.stats.Snapshot(wl);
  EXPECT_EQ(ws.buffer(), wl.buffer());

  ::unsetenv("REDCACHE_CACHE_DIR");
  std::remove(path.c_str());
  ::rmdir(dir.c_str());
}

TEST(Batch, DiskCacheCorruptEntryIsMissAndRepaired) {
  // Negative test for the binary format: a truncated or bit-flipped
  // entry must load as a miss (never fault, never serve garbage), the cell
  // re-simulates, and the bad file is overwritten with a valid entry that
  // then round-trips. Flips inside stored values parse cleanly, so only
  // the payload checksum can catch them.
  char tmpl[] = "/tmp/redcache_batch_corrupt_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  ASSERT_EQ(::setenv("REDCACHE_CACHE_DIR", dir.c_str(), 1), 0);

  RunSpec s;
  s.policy = "Bear";
  s.workload = "LREG";
  s.scale = 0.02;
  s.ignore_env_scale = true;
  s.seed = 23;

  // Seed a valid entry, then damage it in place.
  CellSpec warm{s, "corrupt-seed"};
  const RunResult truth = RunCellCached(warm);
  const std::string warm_path = dir + "/" + CellKey(warm) + ".stats";
  std::string good_bytes;
  {
    std::ifstream in(warm_path, std::ios::binary);
    ASSERT_TRUE(in.good());
    good_bytes.assign((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  }
  ASSERT_GT(good_bytes.size(), 16u);

  const auto damage = [&](const std::string& variant,
                          const std::string& bytes) {
    SCOPED_TRACE(variant);
    // A fresh key so the in-process memo cannot mask the disk path.
    CellSpec cell{s, "corrupt-" + variant};
    const std::string path = dir + "/" + CellKey(cell) + ".stats";
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    const RunResult r = RunCellCached(cell);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.exec_cycles, truth.exec_cycles)
        << "corrupt entry must re-simulate, not serve garbage";
    // The entry was repaired: a byte-identical copy of a good entry.
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    const std::string repaired((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
    EXPECT_EQ(repaired, good_bytes);
    std::remove(path.c_str());
  };

  // Offsets of the payload's values: exec_cycles, then the first counter's
  // value (after the stats section tag, the counter count and its name).
  ser::Reader r(good_bytes);
  r.Section("rcache");
  r.U64();
  r.Str();
  r.U64();
  const std::size_t exec_off = good_bytes.size() - r.remaining();
  ASSERT_EQ(r.U64(), truth.exec_cycles);
  r.Section("stats");
  ASSERT_GT(r.U64(), 0u) << "the run exported no counters";
  r.Str();
  const std::size_t counter_off = good_bytes.size() - r.remaining();

  const auto flip = [&](std::size_t off, std::uint8_t mask) {
    std::string bytes = good_bytes;
    bytes[off] = static_cast<char>(bytes[off] ^ mask);
    return bytes;
  };
  damage("truncated", good_bytes.substr(0, good_bytes.size() / 3));
  damage("version-flip", flip(4, 0x01));
  damage("exec-cycles-flip", flip(exec_off, 0x01));
  damage("exec-cycles-high-flip", flip(exec_off + 5, 0x80));
  damage("counter-value-flip", flip(counter_off, 0x04));
  damage("garbage", "this is not a cache entry at all");
  damage("empty", "");

  ::unsetenv("REDCACHE_CACHE_DIR");
  std::remove(warm_path.c_str());
  ::rmdir(dir.c_str());
}

TEST(Batch, WorkerExceptionsPropagateToCaller) {
  // A throwing cell must abort the batch with the exception rethrown on
  // the calling thread — not std::terminate from a worker.
  std::vector<RunSpec> specs(4);
  for (auto& s : specs) {
    s.policy = "No-HBM";
    s.workload = "LU";
    s.scale = 0.01;
    s.ignore_env_scale = true;
  }
  specs[2].workload = "NO_SUCH_WORKLOAD";

  BatchOptions par = Quiet(4);
  EXPECT_THROW(RunBatch(specs, par), std::invalid_argument);
  BatchOptions serial = Quiet(1);
  EXPECT_THROW(RunBatch(specs, serial), std::invalid_argument);

  EXPECT_THROW(ParallelFor(64, 8,
                           [](std::size_t i) {
                             if (i == 13) throw std::runtime_error("boom");
                           }),
               std::runtime_error);
}

TEST(Batch, ParallelForHitsEveryIndexOnce) {
  constexpr std::size_t kN = 257;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h = 0;
  ParallelFor(kN, 8, [&](std::size_t i) { hits[i]++; });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(Batch, EnforceDiskCacheBoundEvictsLeastRecentlyUsed) {
  namespace fs = std::filesystem;
  char tmpl[] = "/tmp/redcache_batch_lru_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const fs::path dir = tmpl;

  const auto make = [&](const char* name, int age_minutes) {
    const fs::path p = dir / name;
    std::ofstream(p) << std::string(1000, 'x');
    fs::last_write_time(
        p, fs::file_time_type::clock::now() - std::chrono::minutes(age_minutes));
    return p;
  };
  const fs::path oldest = make("a.stats", 30);
  const fs::path middle = make("b.stats", 20);
  const fs::path newest = make("c.stats", 10);
  const fs::path other = make("not_a_cache_entry.txt", 40);

  // Within bound: nothing evicted.
  EnforceDiskCacheBound(dir.string(), 10000);
  EXPECT_TRUE(fs::exists(oldest));

  // 3000 bytes of entries, 2000 allowed: exactly the oldest goes.
  EnforceDiskCacheBound(dir.string(), 2000);
  EXPECT_FALSE(fs::exists(oldest));
  EXPECT_TRUE(fs::exists(middle));
  EXPECT_TRUE(fs::exists(newest));

  // Shrinking further evicts in recency order; non-.stats files are never
  // touched even though the oldest file in the directory.
  EnforceDiskCacheBound(dir.string(), 500);
  EXPECT_FALSE(fs::exists(middle));
  EXPECT_FALSE(fs::exists(newest));
  EXPECT_TRUE(fs::exists(other));

  fs::remove_all(dir);
}

TEST(Batch, DiskCacheHitRefreshesRecencyAndProfilesAsDiskHit) {
  namespace fs = std::filesystem;
  char tmpl[] = "/tmp/redcache_batch_touch_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  ASSERT_EQ(::setenv("REDCACHE_CACHE_DIR", dir.c_str(), 1), 0);

  RunSpec s;
  s.policy = "Alloy";
  s.workload = "RDX";
  s.scale = 0.02;
  s.ignore_env_scale = true;
  s.seed = 19;
  CellSpec cell{s, "lru_touch"};  // memo-cold key: must go to disk

  const std::string path = dir + "/" + CellKey(cell) + ".stats";
  {
    StatSet stats;
    stats.Counter("hbm.reads") = 5;
    WriteEntry(path, CacheIdentity(), 777, stats);
  }
  const auto stale = fs::file_time_type::clock::now() - std::chrono::hours(1);
  fs::last_write_time(path, stale);

  CellProfile prof;
  const RunResult r = RunCellCached(cell, &prof);
  EXPECT_EQ(r.exec_cycles, 777u);
  EXPECT_TRUE(prof.disk_hit);
  EXPECT_FALSE(prof.memo_hit);
  EXPECT_DOUBLE_EQ(prof.sim_seconds, 0.0) << "served from disk, not simulated";
  EXPECT_GT(prof.wall_seconds, 0.0);
  EXPECT_EQ(prof.exec_cycles, 777u);
  EXPECT_EQ(prof.key, CellKey(cell));
  // The hit refreshed the entry's mtime so LRU eviction keeps it.
  EXPECT_GT(fs::last_write_time(path), stale);

  ::unsetenv("REDCACHE_CACHE_DIR");
  fs::remove_all(fs::path(dir));
}

TEST(Batch, DiskCacheMissKeepsEntryMtime) {
  // Only an entry that parsed and matched its checksum is touched: a
  // corrupt or truncated entry is a miss and keeps its stale mtime. The
  // cell is capped short of completion, so the miss is not re-saved and
  // the file stays exactly as it was written.
  namespace fs = std::filesystem;
  char tmpl[] = "/tmp/redcache_batch_nottouch_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  ASSERT_EQ(::setenv("REDCACHE_CACHE_DIR", dir.c_str(), 1), 0);

  RunSpec s;
  s.policy = "Alloy";
  s.workload = "RDX";
  s.scale = 0.02;
  s.ignore_env_scale = true;
  s.seed = 29;
  s.max_cycles = 2000;

  const auto check = [&](const std::string& variant,
                         const std::function<std::string(std::string)>& damage) {
    SCOPED_TRACE(variant);
    CellSpec cell{s, "nottouch-" + variant};
    const std::string path = dir + "/" + CellKey(cell) + ".stats";
    {
      StatSet stats;
      stats.Counter("hbm.reads") = 5;
      WriteEntry(path, CacheIdentity(), 777, stats);
    }
    std::string bytes;
    {
      std::ifstream in(path, std::ios::binary);
      bytes.assign((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
    }
    bytes = damage(bytes);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    const auto stale = fs::file_time_type::clock::now() - std::chrono::hours(1);
    fs::last_write_time(path, stale);

    CellProfile prof;
    const RunResult r = RunCellCached(cell, &prof);
    EXPECT_FALSE(prof.disk_hit);
    EXPECT_FALSE(r.completed) << "the capped re-simulation must not finish";
    EXPECT_NE(r.exec_cycles, 777u);
    EXPECT_EQ(fs::last_write_time(path), stale) << "a miss must not touch";
    std::ifstream in(path, std::ios::binary);
    const std::string after((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    EXPECT_EQ(after, bytes);
  };
  check("corrupt", [](std::string b) {
    b.back() = static_cast<char>(b.back() ^ 0x01);  // the counter's value
    return b;
  });
  check("truncated", [](std::string b) { return b.substr(0, b.size() / 2); });

  ::unsetenv("REDCACHE_CACHE_DIR");
  fs::remove_all(fs::path(dir));
}

TEST(Batch, ParallelForRunsOnCallerAndAtMostJobsThreads) {
  // `jobs` workers in all, the calling thread among them. Each task waits
  // (bounded) until `jobs` threads have taken one, so every worker runs a
  // task however the indices fall.
  constexpr unsigned kJobs = 4;
  std::mutex mu;
  std::condition_variable cv;
  std::set<std::thread::id> seen;
  ParallelFor(64, kJobs, [&](std::size_t) {
    std::unique_lock<std::mutex> lock(mu);
    seen.insert(std::this_thread::get_id());
    cv.notify_all();
    cv.wait_for(lock, std::chrono::seconds(10),
                [&] { return seen.size() >= kJobs; });
  });
  EXPECT_LE(seen.size(), kJobs);
  EXPECT_EQ(seen.count(std::this_thread::get_id()), 1u)
      << "the calling thread must be one of the workers";

  seen.clear();
  ParallelFor(8, 1, [&](std::size_t) {
    std::lock_guard<std::mutex> lock(mu);
    seen.insert(std::this_thread::get_id());
  });
  EXPECT_EQ(seen, std::set<std::thread::id>{std::this_thread::get_id()});
}

TEST(Batch, RunCellsNeverTracesIntoCallersBuffer) {
  RunSpec s;
  s.policy = "RedCache";
  s.workload = "LU";
  s.scale = 0.01;
  s.ignore_env_scale = true;
  s.seed = 31;
  {
    // The cell emits events when traced directly, so an empty buffer
    // below means the guard held.
    obs::TraceBuffer direct(1024);
    const obs::TraceScope scope(&direct);
    ASSERT_TRUE(RunOne(s).completed);
    ASSERT_GT(direct.emitted(), 0u);
  }
  for (const unsigned jobs : {1u, 2u}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    std::vector<CellSpec> cells;
    for (int i = 0; i < 4; ++i) {
      // Fresh keys, so every cell simulates instead of hitting the memo.
      cells.push_back(
          {s, "untraced-" + std::to_string(jobs) + "-" + std::to_string(i)});
    }
    obs::TraceBuffer caller(1024);
    const obs::TraceScope scope(&caller);
    const std::vector<RunResult> results = RunCells(cells, Quiet(jobs));
    for (const RunResult& r : results) EXPECT_TRUE(r.completed);
    EXPECT_EQ(caller.emitted(), 0u);
    EXPECT_EQ(obs::ActiveTrace(), &caller);
  }
}

TEST(Batch, RunCellsFillsBatchReport) {
  RunSpec s;
  s.policy = "No-HBM";
  s.workload = "HIST";
  s.scale = 0.02;
  s.ignore_env_scale = true;
  s.seed = 23;
  CellSpec a{s, "report_a"};
  RunSpec s2 = s;
  s2.workload = "LREG";
  CellSpec b{s2, "report_b"};

  BatchReport report;
  BatchOptions opts = Quiet(1, "report-test");
  opts.report = &report;
  // Serial execution: the duplicate in slot 1 is guaranteed a memo hit.
  const auto results = RunCells({a, a, b}, opts);
  ASSERT_EQ(results.size(), 3u);

  EXPECT_EQ(report.label, "report-test");
  EXPECT_EQ(report.jobs, 1u);
  EXPECT_GT(report.wall_seconds, 0.0);
  ASSERT_EQ(report.cells.size(), 3u);
  EXPECT_FALSE(report.cells[0].memo_hit);
  EXPECT_GT(report.cells[0].sim_seconds, 0.0);
  EXPECT_TRUE(report.cells[1].memo_hit);
  EXPECT_DOUBLE_EQ(report.cells[1].sim_seconds, 0.0);
  EXPECT_EQ(report.cells[0].exec_cycles, report.cells[1].exec_cycles);
  EXPECT_EQ(report.cells[0].exec_cycles, results[0].exec_cycles);
  EXPECT_EQ(report.cells[2].workload, "LREG");
  EXPECT_EQ(report.cells[0].key, CellKey(a));

  const std::string json = BatchReportJson(report);
  obs::JsonValue doc;
  std::string err;
  ASSERT_TRUE(obs::ParseJson(json, doc, &err)) << err << "\n" << json;
  const obs::JsonValue* summary = doc.Find("summary");
  ASSERT_NE(summary, nullptr);
  EXPECT_DOUBLE_EQ(summary->Find("cells")->number, 3.0);
  EXPECT_DOUBLE_EQ(summary->Find("memo_hits")->number, 1.0);
  EXPECT_DOUBLE_EQ(summary->Find("simulated")->number, 2.0);
  EXPECT_EQ(doc.Find("cells")->array.size(), 3u);
}

TEST(Batch, CacheEnvironmentParsesStrictly) {
  // A typo in a worker count or a cache bound must fail loudly, naming the
  // variable, instead of meaning "unbounded" or "default".
  for (const char* bad :
       {"abc", "-1", "3x", " 3", "+3", "99999999999999999999999"}) {
    SCOPED_TRACE(bad);
    ASSERT_EQ(::setenv("REDCACHE_JOBS", bad, 1), 0);
    try {
      ResolveJobs(0);
      ADD_FAILURE() << "REDCACHE_JOBS accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("REDCACHE_JOBS"),
                std::string::npos)
          << e.what();
    }
  }
  ASSERT_EQ(::setenv("REDCACHE_JOBS", "4294967296", 1), 0);  // > UINT_MAX
  EXPECT_THROW(ResolveJobs(0), std::invalid_argument);
  ::unsetenv("REDCACHE_JOBS");

  char tmpl[] = "/tmp/redcache_batch_env_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  ASSERT_EQ(::setenv("REDCACHE_CACHE_DIR", dir.c_str(), 1), 0);
  RunSpec s;
  s.policy = "No-HBM";
  s.workload = "LU";
  s.scale = 0.01;
  s.ignore_env_scale = true;
  // MiB beyond 2^64 bytes used to wrap around to a tiny bound.
  for (const char* bad : {"abc", "-5", "1.5", "17592186044416"}) {
    SCOPED_TRACE(bad);
    ASSERT_EQ(::setenv("REDCACHE_CACHE_MAX_MB", bad, 1), 0);
    CellSpec cell{s, std::string("env-") + bad};
    try {
      RunCellCached(cell);
      ADD_FAILURE() << "REDCACHE_CACHE_MAX_MB accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("REDCACHE_CACHE_MAX_MB"),
                std::string::npos)
          << e.what();
    }
  }
  // 0 and unset keep meaning unbounded.
  for (const char* ok : {"0", ""}) {
    SCOPED_TRACE(ok);
    ASSERT_EQ(::setenv("REDCACHE_CACHE_MAX_MB", ok, 1), 0);
    CellSpec cell{s, std::string("env-ok-") + ok};
    EXPECT_TRUE(RunCellCached(cell).completed);
  }
  ::unsetenv("REDCACHE_CACHE_MAX_MB");
  ::unsetenv("REDCACHE_CACHE_DIR");
  std::filesystem::remove_all(dir);
}

TEST(Batch, ResolveJobsHonorsEnvAndFloor) {
  ASSERT_EQ(::setenv("REDCACHE_JOBS", "3", 1), 0);
  EXPECT_EQ(ResolveJobs(0), 3u);
  EXPECT_EQ(ResolveJobs(5), 5u) << "explicit request beats the env";
  ASSERT_EQ(::setenv("REDCACHE_JOBS", "0", 1), 0);
  EXPECT_GE(ResolveJobs(0), 1u);
  ::unsetenv("REDCACHE_JOBS");
  EXPECT_GE(ResolveJobs(0), 1u);
}

}  // namespace
}  // namespace redcache
