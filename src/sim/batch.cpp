#include "sim/batch.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/hash.hpp"
#include "common/parse.hpp"
#include "common/serialize.hpp"
#include "energy/model.hpp"
#include "obs/json.hpp"

namespace redcache {

/// SHA-256 of the src/ tree and toolchain, generated into build_id.cpp by
/// src/sim/build_id.cmake.
extern const char kBuildId[];

namespace {

// ---------------------------------------------------------------------------
// Hashing (FNV-1a). Deterministic across platforms; speed is irrelevant.

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t FnvBytes(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t FnvU64(std::uint64_t h, std::uint64_t v) {
  return FnvBytes(h, &v, sizeof(v));
}

std::uint64_t FnvStr(std::uint64_t h, const std::string& s) {
  return FnvBytes(FnvU64(h, s.size()), s.data(), s.size());
}

std::uint64_t FnvPin(std::uint64_t h,
                     const std::optional<std::uint32_t>& pin) {
  h = FnvU64(h, pin.has_value() ? 1 : 0);
  return FnvU64(h, pin.value_or(0));
}

// Explicit field-by-field hash of every preset field except
// telemetry_epoch_cycles (observability only). The build identity covers
// code, not data, so this hash is the only thing that separates the cache
// entries of two presets: a field missed here serves one preset's numbers
// for the other. Batch.CellKeyDistinguishesEverythingThatMattersToResults
// perturbs each field.
std::uint64_t HashSram(std::uint64_t h, const SramCacheConfig& c) {
  h = FnvStr(h, c.name);  // stat prefix
  h = FnvU64(h, c.size_bytes);
  h = FnvU64(h, c.ways);
  return FnvU64(h, c.latency);
}

std::uint64_t HashDram(std::uint64_t h, const DramConfig& d) {
  h = FnvStr(h, d.name);  // stat prefix (hbm. / ddr4.)
  const DramTimingParams& t = d.timing;
  for (const Cycle v :
       {t.tRCD, t.tCAS, t.tCCD, t.tWTR, t.tWR, t.tRTP, t.tBL, t.tCWD, t.tRP,
        t.tRRD, t.tRAS, t.tRC, t.tFAW, t.tREFI, t.tRFC, t.tRTW_bubble}) {
    h = FnvU64(h, v);
  }
  const DramGeometry& g = d.geometry;
  h = FnvU64(h, g.channels);
  h = FnvU64(h, g.ranks_per_channel);
  h = FnvU64(h, g.banks_per_rank);
  h = FnvU64(h, g.row_bytes);
  h = FnvU64(h, g.capacity_bytes);
  h = FnvU64(h, g.bus_bits);
  h = FnvU64(h, g.burst_bytes);
  h = FnvU64(h, g.sideband_bytes);
  h = FnvU64(h, d.controller.queue_depth);
  return FnvU64(h, d.controller.starvation_cycles);
}

std::uint64_t PresetFieldHash(const SimPreset& p) {
  std::uint64_t h = FnvStr(kFnvOffset, p.name);
  h = FnvU64(h, p.hierarchy.num_cores);
  h = HashSram(h, p.hierarchy.l1);
  h = HashSram(h, p.hierarchy.l2);
  h = HashSram(h, p.hierarchy.l3);
  h = FnvU64(h, p.core.max_outstanding);
  h = FnvBytes(h, &p.core.dependent_fraction,
               sizeof(p.core.dependent_fraction));
  h = FnvU64(h, p.core.l1_hit_cost);
  h = FnvU64(h, p.core.l2_hit_cost);
  h = FnvU64(h, p.core.l3_hit_cost);
  h = FnvU64(h, p.core.retry_interval);
  h = HashDram(h, p.mem.hbm);
  h = HashDram(h, p.mem.mainmem);
  h = FnvU64(h, p.mem.has_hbm ? 1 : 0);
  h = FnvU64(h, p.mem.input_queue_cap);
  h = FnvU64(h, p.mem.txn_pool_size);
  h = FnvU64(h, p.mem.line_blocks);
  // BuildSystem copies preset.mem whole, so pins carried there run too.
  h = FnvPin(h, p.mem.alpha_pin);
  return FnvPin(h, p.mem.gamma_pin);
}

// ---------------------------------------------------------------------------
// Progress reporting.

bool ProgressEnvEnabled() {
  const char* env = std::getenv("REDCACHE_PROGRESS");
  return env == nullptr || std::string(env) != "0";
}

std::string FormatScale(double scale) {
  // %.17g round-trips every double exactly, so scales that differ anywhere
  // in the value (1e-5 vs 2e-5, or past the fourth decimal) never alias.
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", scale);
  return buf;
}

std::string SanitizeKey(std::string key) {
  for (char& c : key) {
    if (c == ' ' || c == '/') c = '-';
  }
  return key;
}

std::string HexU64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------------------
// Disk cache (binary, format v4, one ".stats" file per cell). Shares the
// checkpoint serializer and its checksummed frame:
//   Section | version | build identity | checksum | exec_cycles | StatSet
// The checksum (common/hash.hpp) covers everything after itself, so a
// flipped byte in a stored value is a miss, not a silently wrong hit. ANY
// malformed byte (truncation, corruption, a stale version or identity, a
// section-tag mismatch) is treated as a plain miss; the entry is
// overwritten after re-simulation. Energy is not stored: it is derived from
// counters and recomputed on load.

bool LoadCached(const std::string& path, const std::string& identity,
                RunResult& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  try {
    ser::Reader r(bytes);
    r.Section("rcache");
    if (r.U64() != kCacheFormatVersion) return false;
    if (r.Str() != identity) return false;
    if (!ser::ChecksumMatches(r)) return false;
    out.exec_cycles = r.U64();
    out.stats.Restore(r);
    r.ExpectEnd();
  } catch (const ser::SerializeError&) {
    return false;  // corrupt or truncated entry == miss
  }
  out.completed = true;
  return true;
}

void SaveCached(const std::string& path, const std::string& identity,
                const RunResult& r) {
  ser::Writer w;
  w.Section("rcache");
  w.U64(kCacheFormatVersion);
  w.Str(identity);
  ser::WriteChecksummed(w, [&] {
    w.U64(r.exec_cycles);
    r.stats.Snapshot(w);
  });
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return;
  const auto& buf = w.buffer();
  out.write(reinterpret_cast<const char*>(buf.data()),
            static_cast<std::streamsize>(buf.size()));
}

std::string DescribeSpec(const RunSpec& spec) {
  return PolicyNameOf(spec) + "/" + spec.workload;
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Batch loop over ParallelFor: runs task(0..n-1) with results keyed by
// index, printing per-completion progress/ETA.
std::vector<RunResult> RunIndexed(
    std::size_t n, const BatchOptions& opts,
    const std::function<RunResult(std::size_t)>& task,
    const std::function<std::string(std::size_t)>& describe) {
  std::vector<RunResult> results(n);
  const bool progress = opts.progress && ProgressEnvEnabled();
  std::atomic<std::size_t> done{0};
  const auto start = std::chrono::steady_clock::now();
  std::mutex io_mu;
  ParallelFor(n, opts.jobs, [&](std::size_t i) {
    results[i] = task(i);
    if (!progress) return;
    const std::size_t d = done.fetch_add(1) + 1;
    const double elapsed = SecondsSince(start);
    const double eta =
        elapsed / static_cast<double>(d) * static_cast<double>(n - d);
    std::lock_guard<std::mutex> lock(io_mu);
    std::fprintf(stderr, "[%s %zu/%zu] %s done (%.1fs elapsed, ETA %.1fs)\n",
                 opts.label.c_str(), d, n, describe(i).c_str(), elapsed, eta);
  });
  return results;
}

/// The whole number in environment variable `name`, or 0 when it is unset
/// or empty. A value that is not all decimal digits (a sign, a suffix,
/// "abc") or exceeds `max` throws std::invalid_argument naming the
/// variable, instead of silently meaning something else.
std::uint64_t EnvCount(const char* name, std::uint64_t max) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return 0;
  std::uint64_t v = 0;
  if (!ParseNumber(env, std::uint64_t{0}, max, v)) {
    throw std::invalid_argument(std::string(name) + "=\"" + env +
                                "\" is not a whole number in [0, " +
                                std::to_string(max) + "]");
  }
  return v;
}

constexpr std::uint64_t kMiB = 1024ull * 1024ull;

/// REDCACHE_CACHE_MAX_MB as bytes; 0 = unbounded (default).
std::uint64_t DiskCacheMaxBytes() {
  return EnvCount("REDCACHE_CACHE_MAX_MB", UINT64_MAX / kMiB) * kMiB;
}

/// Refresh mtime so LRU eviction sees this entry as recently used. Best
/// effort: a failed touch only makes the entry evictable sooner.
void TouchCacheEntry(const std::string& path) {
  std::error_code ec;
  std::filesystem::last_write_time(
      path, std::filesystem::file_time_type::clock::now(), ec);
}

}  // namespace

unsigned ResolveJobs(unsigned requested) {
  if (requested != 0) return requested;
  if (const std::uint64_t v = EnvCount("REDCACHE_JOBS", UINT_MAX); v > 0) {
    return static_cast<unsigned>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::vector<RunResult> RunBatch(const std::vector<RunSpec>& specs,
                                const BatchOptions& opts) {
  return RunIndexed(
      specs.size(), opts, [&](std::size_t i) { return RunOne(specs[i]); },
      [&](std::size_t i) { return DescribeSpec(specs[i]); });
}

void ParallelFor(std::size_t n, unsigned jobs,
                 const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const unsigned workers =
      static_cast<unsigned>(std::min<std::size_t>(ResolveJobs(jobs), n));
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex err_mu;
  auto worker = [&]() {
    for (;;) {
      if (failed.load(std::memory_order_relaxed)) return;
      const std::size_t i = next.fetch_add(1);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(err_mu);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned t = 0; t < workers; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

std::string CacheIdentity() { return kBuildId; }

std::string CellKey(const CellSpec& cell) {
  const RunSpec& spec = cell.spec;
  std::string key = spec.preset.name;
  key += '_';
  key += PolicyNameOf(spec);
  key += '_';
  key += spec.workload;
  key += '_';
  // Mirror RunOne: the key must name the scale the run actually uses.
  key += FormatScale(spec.ignore_env_scale ? spec.scale
                                           : EffectiveScale(spec.scale));
  key += "_s";
  key += std::to_string(spec.seed);
  if (!cell.variant.empty()) {
    key += '_';
    key += cell.variant;
  }
  // An active mix replaces the workload's meaning entirely, so its full
  // canonical descriptor (mode, window, every tenant's label / weight /
  // rate limit) joins the key. Inactive mixes add nothing: pre-mix cells
  // keep byte-identical keys and stay disk-cache compatible.
  if (spec.mix.active()) {
    key += "_mix";
    key += spec.mix.Describe();
  }
  // Threshold pins join the key only when set, so unpinned keys (every
  // existing disk-cache entry) are unchanged.
  if (spec.alpha_pin) key += "_alpha" + std::to_string(*spec.alpha_pin);
  if (spec.gamma_pin) key += "_gamma" + std::to_string(*spec.gamma_pin);
  // A replayed or served trace names its records, so a checkpoint blob
  // cannot restore into a run over another trace.
  if (!spec.serve_path.empty()) key += "_serve" + spec.serve_path;
  // The tail hash covers every remaining result-affecting input: the preset
  // fields and the cycle cap (the seed is spelled out above for legibility).
  std::uint64_t tail = PresetFieldHash(spec.preset);
  tail = FnvU64(tail, spec.max_cycles);
  // SanitizeKey folds '/' into '-', so the raw trace path joins the hash.
  if (!spec.serve_path.empty()) tail = FnvStr(tail, spec.serve_path);
  key += '_';
  key += HexU64(tail);
  return SanitizeKey(key);
}

void EnforceDiskCacheBound(const std::string& dir, std::uint64_t max_bytes) {
  namespace fs = std::filesystem;
  // One sweep at a time per process; cross-process races are benign (a
  // concurrent remove just makes our remove a no-op).
  static std::mutex sweep_mu;
  std::lock_guard<std::mutex> lock(sweep_mu);

  struct Entry {
    fs::path path;
    std::uint64_t size;
    fs::file_time_type mtime;
  };
  std::vector<Entry> entries;
  std::uint64_t total = 0;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; ec.value() == 0 && it != end;
       it.increment(ec)) {
    if (it->path().extension() != ".stats") continue;
    std::error_code fec;
    if (!it->is_regular_file(fec) || fec) continue;
    const std::uint64_t size = it->file_size(fec);
    if (fec) continue;
    const fs::file_time_type mtime = it->last_write_time(fec);
    if (fec) continue;
    entries.push_back({it->path(), size, mtime});
    total += size;
  }
  if (total <= max_bytes) return;
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.mtime < b.mtime; });
  for (const Entry& e : entries) {
    if (total <= max_bytes) break;
    std::error_code rec;
    if (fs::remove(e.path, rec) && !rec) total -= e.size;
  }
}

RunResult RunCellCached(const CellSpec& cell) {
  return RunCellCached(cell, nullptr);
}

RunResult RunCellCached(const CellSpec& cell, CellProfile* profile) {
  static std::mutex mu;
  static std::map<std::string, std::shared_future<RunResult>> memo;

  const auto t_enter = std::chrono::steady_clock::now();
  const std::string key = CellKey(cell);
  if (profile != nullptr) {
    profile->key = key;
    profile->policy = PolicyNameOf(cell.spec);
    profile->workload = cell.spec.workload;
  }
  // Serve cells replay an external stream whose content no key covers, and
  // restored/checkpointing cells depend on (or produce) blob files outside
  // any key: never memoize or disk-cache either.
  if (!cell.spec.serve_path.empty() || !cell.spec.restore_path.empty() ||
      !cell.spec.checkpoint_path.empty()) {
    const auto t_sim = std::chrono::steady_clock::now();
    RunResult result = RunOne(cell.spec);
    if (profile != nullptr) {
      profile->sim_seconds = SecondsSince(t_sim);
      profile->exec_cycles = result.exec_cycles;
      profile->tenants = tenant::QosFromStats(result.stats);
      profile->telemetry_path = cell.spec.telemetry_path;
      profile->telemetry_epochs = result.telemetry_epochs;
      profile->wall_seconds = SecondsSince(t_enter);
    }
    return result;
  }
  std::shared_future<RunResult> future;
  std::promise<RunResult> promise;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(mu);
    auto it = memo.find(key);
    if (it == memo.end()) {
      future = promise.get_future().share();
      memo.emplace(key, future);
      owner = true;
    } else {
      future = it->second;
    }
  }
  if (!owner) {
    const RunResult& shared = future.get();
    if (profile != nullptr) {
      profile->memo_hit = true;
      profile->exec_cycles = shared.exec_cycles;
      profile->tenants = tenant::QosFromStats(shared.stats);
      profile->wall_seconds = SecondsSince(t_enter);
    }
    return shared;
  }

  try {
    RunResult result;
    const char* cache_dir = std::getenv("REDCACHE_CACHE_DIR");
    std::string path;
    std::string identity;
    bool loaded = false;
    std::uint64_t max_bytes = 0;
    if (cache_dir != nullptr) {
      max_bytes = DiskCacheMaxBytes();  // a malformed bound fails up front
      const auto t_id = std::chrono::steady_clock::now();
      identity = CacheIdentity();
      path = std::string(cache_dir) + "/" + key + ".stats";
      if (profile != nullptr) {
        profile->fingerprint_seconds = SecondsSince(t_id);
      }
      loaded = LoadCached(path, identity, result);
      if (loaded) TouchCacheEntry(path);
    }
    if (!loaded) {
      const auto t_sim = std::chrono::steady_clock::now();
      result = RunOne(cell.spec);
      if (profile != nullptr) {
        profile->sim_seconds = SecondsSince(t_sim);
        profile->telemetry_path = cell.spec.telemetry_path;
        profile->telemetry_epochs = result.telemetry_epochs;
      }
      if (!path.empty() && result.completed) {
        SaveCached(path, identity, result);
        if (max_bytes != 0) EnforceDiskCacheBound(cache_dir, max_bytes);
      }
    } else {
      // Energy is derived from counters; recompute instead of storing it.
      const SimPreset& p = cell.spec.preset;
      result.energy = EnergyModel().Compute(
          result.stats, result.exec_cycles, p.hierarchy.num_cores,
          p.mem.hbm.geometry.channels, p.mem.mainmem.geometry.channels);
    }
    if (profile != nullptr) {
      profile->disk_hit = loaded;
      profile->exec_cycles = result.exec_cycles;
      profile->ticks_executed = result.ticks_executed;
      profile->cycles_skipped = result.cycles_skipped;
      profile->dram_ledger = result.dram_ledger;
      profile->tenants = tenant::QosFromStats(result.stats);
      profile->wall_seconds = SecondsSince(t_enter);
    }
    promise.set_value(result);
    return future.get();
  } catch (...) {
    promise.set_exception(std::current_exception());
    {
      // Do not pin the failure for later retries within the process.
      std::lock_guard<std::mutex> lock(mu);
      memo.erase(key);
    }
    throw;
  }
}

namespace {

/// The scheduler ledger as "dram_*" report fields.
void AppendLedgerJson(std::string& out, const SchedulerLedger& l) {
  out += ",\"dram_idle_sleeps\":" + std::to_string(l.idle_sleeps);
  out += ",\"dram_empty_passes\":" + std::to_string(l.empty_passes);
  out += ",\"dram_refresh_walks\":" + std::to_string(l.refresh_walks);
  out += ",\"dram_pick_candidates\":" + std::to_string(l.pick_candidates);
}

}  // namespace

std::string BatchReportJson(const BatchReport& report) {
  std::size_t memo_hits = 0, disk_hits = 0, simulated = 0;
  std::size_t telemetry_cells = 0;
  double fp_seconds = 0.0, sim_seconds = 0.0;
  std::uint64_t ticks = 0, skipped = 0, telemetry_epochs = 0;
  SchedulerLedger ledger;
  for (const CellProfile& c : report.cells) {
    if (c.memo_hit) {
      memo_hits++;
    } else if (c.disk_hit) {
      disk_hits++;
    } else {
      simulated++;
    }
    fp_seconds += c.fingerprint_seconds;
    sim_seconds += c.sim_seconds;
    ticks += c.ticks_executed;
    skipped += c.cycles_skipped;
    ledger += c.dram_ledger;
    if (!c.telemetry_path.empty()) telemetry_cells++;
    telemetry_epochs += c.telemetry_epochs;
  }
  std::string out = "{\"label\":\"" + obs::JsonEscape(report.label) + "\"";
  char buf[64];
  out += ",\"jobs\":" + std::to_string(report.jobs);
  std::snprintf(buf, sizeof(buf), ",\"wall_seconds\":%.6f",
                report.wall_seconds);
  out += buf;
  out += ",\"summary\":{\"cells\":" + std::to_string(report.cells.size());
  out += ",\"simulated\":" + std::to_string(simulated);
  out += ",\"memo_hits\":" + std::to_string(memo_hits);
  out += ",\"disk_hits\":" + std::to_string(disk_hits);
  std::snprintf(buf, sizeof(buf), ",\"fingerprint_seconds\":%.6f",
                fp_seconds);
  out += buf;
  std::snprintf(buf, sizeof(buf), ",\"sim_seconds\":%.6f", sim_seconds);
  out += buf;
  out += ",\"ticks_executed\":" + std::to_string(ticks);
  out += ",\"cycles_skipped\":" + std::to_string(skipped);
  AppendLedgerJson(out, ledger);
  out += ",\"telemetry_cells\":" + std::to_string(telemetry_cells);
  out += ",\"telemetry_epochs\":" + std::to_string(telemetry_epochs) + "}";
  out += ",\"cells\":[";
  bool first = true;
  for (const CellProfile& c : report.cells) {
    if (!first) out += ",";
    first = false;
    out += "{\"key\":\"" + obs::JsonEscape(c.key) + "\"";
    out += ",\"policy\":\"" + obs::JsonEscape(c.policy) + "\"";
    out += ",\"workload\":\"" + obs::JsonEscape(c.workload) + "\"";
    std::snprintf(buf, sizeof(buf), ",\"wall_seconds\":%.6f", c.wall_seconds);
    out += buf;
    std::snprintf(buf, sizeof(buf), ",\"fingerprint_seconds\":%.6f",
                  c.fingerprint_seconds);
    out += buf;
    std::snprintf(buf, sizeof(buf), ",\"sim_seconds\":%.6f", c.sim_seconds);
    out += buf;
    out += ",\"memo_hit\":";
    out += c.memo_hit ? "true" : "false";
    out += ",\"disk_hit\":";
    out += c.disk_hit ? "true" : "false";
    out += ",\"exec_cycles\":" + std::to_string(c.exec_cycles);
    out += ",\"ticks_executed\":" + std::to_string(c.ticks_executed);
    out += ",\"cycles_skipped\":" + std::to_string(c.cycles_skipped);
    AppendLedgerJson(out, c.dram_ledger);
    // Telemetry pointers: present only for cells that simulated under
    // --telemetry-dir, so plain reports serialize byte-identically.
    if (!c.telemetry_path.empty()) {
      out += ",\"telemetry\":\"" + obs::JsonEscape(c.telemetry_path) + "\"";
      out += ",\"telemetry_epochs\":" + std::to_string(c.telemetry_epochs);
    }
    // Sampling quality: present only for sampled cells, so full-detail
    // reports serialize byte-identically to pre-sampling builds.
    if (c.sampled) {
      out += ",\"sampled\":true";
      out += ",\"sampling_intervals\":" + std::to_string(c.sampling_intervals);
      std::snprintf(buf, sizeof(buf), ",\"sampling_ci_pct\":%.4f",
                    c.sampling_ci_pct);
      out += buf;
    }
    // Per-tenant QoS rows: present only for mix cells, so single-tenant
    // reports serialize byte-identically to pre-mix builds.
    if (!c.tenants.empty()) {
      out += ",\"tenants\":[";
      bool tfirst = true;
      for (const tenant::TenantQos& t : c.tenants) {
        if (!tfirst) out += ",";
        tfirst = false;
        out += "{\"tenant\":" + std::to_string(t.tenant);
        out += ",\"refs\":" + std::to_string(t.refs);
        out += ",\"finish_cycles\":" + std::to_string(t.finish_cycles);
        out += ",\"reads\":" + std::to_string(t.reads);
        out += ",\"writebacks\":" + std::to_string(t.writebacks);
        out += ",\"serve_hits\":" + std::to_string(t.serve_hits);
        out += ",\"serve_misses\":" + std::to_string(t.serve_misses);
        out += ",\"hbm_bytes\":" + std::to_string(t.hbm_bytes);
        out += ",\"mm_bytes\":" + std::to_string(t.mm_bytes);
        out += ",\"rcu_drains\":" + std::to_string(t.rcu_drains);
        std::snprintf(buf, sizeof(buf), ",\"hit_rate\":%.6f", t.hit_rate());
        out += buf;
        std::snprintf(buf, sizeof(buf), ",\"hbm_share\":%.6f",
                      tenant::HbmShare(c.tenants, t));
        out += buf;
        std::snprintf(buf, sizeof(buf), ",\"mm_share\":%.6f",
                      tenant::MmShare(c.tenants, t));
        out += buf;
        out += "}";
      }
      out += "]";
    }
    out += "}";
  }
  out += "]}";
  return out;
}

bool WriteBatchReportJson(const std::string& path, const BatchReport& report) {
  std::ofstream out(path);
  if (!out) return false;
  out << BatchReportJson(report) << '\n';
  return static_cast<bool>(out);
}

std::vector<RunResult> RunCells(const std::vector<CellSpec>& cells,
                                const BatchOptions& opts) {
  const auto t0 = std::chrono::steady_clock::now();
  BatchReport* report = opts.report;
  if (report != nullptr) {
    report->label = opts.label;
    report->jobs = ResolveJobs(opts.jobs);
    report->cells.assign(cells.size(), CellProfile{});
  }
  std::vector<RunResult> results = RunIndexed(
      cells.size(), opts,
      [&](std::size_t i) {
        // Distinct indices write distinct report slots: thread-safe.
        CellProfile* profile =
            report != nullptr ? &report->cells[i] : nullptr;
        if (!opts.telemetry_dir.empty()) {
          // Per-cell series, keyed like the disk cache so artifacts from
          // different sweeps never collide. The copy keeps telemetry out
          // of the caller's specs (and CellKey never hashes these fields).
          CellSpec cell = cells[i];
          cell.spec.telemetry_path =
              opts.telemetry_dir + "/" + CellKey(cells[i]) + ".ndjson";
          cell.spec.epoch = opts.epoch;
          return RunCellCached(cell, profile);
        }
        return RunCellCached(cells[i], profile);
      },
      [&](std::size_t i) { return DescribeSpec(cells[i].spec); });
  if (report != nullptr) report->wall_seconds = SecondsSince(t0);
  return results;
}

}  // namespace redcache
