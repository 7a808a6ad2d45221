// Parallel batch execution of simulations.
//
// The evaluation sweeps (Fig. 9/10/11, Table II, the ablations) are
// embarrassingly parallel: every (architecture x workload) cell is an
// independent simulation. RunBatch fans a spec list out over a fixed-size
// worker pool; results land at the index of their spec, so output is
// byte-identical regardless of worker count.
//
// Layered on top:
//  - an in-process memo so shared cells (e.g. the Alloy baseline column
//    every figure normalizes against) simulate once per process even when
//    requested concurrently, and
//  - a disk cache (REDCACHE_CACHE_DIR) keyed by CellKey (every input of the
//    run: policy, workload, scale, seed, variant, mix, pins, preset fields,
//    cycle cap) whose entries carry the *build identity* of the simulator
//    (CacheIdentity: a hash of the src/ tree and toolchain) and a payload
//    checksum, so an entry written by a different build, or damaged on
//    disk, can never silently serve wrong numbers; it just misses and
//    re-simulates.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/runner.hpp"
#include "tenant/qos.hpp"

namespace redcache {

/// Host-side profile of one cell's execution through RunCellCached: where
/// the wall-clock went (keying vs. the simulation itself) and which cache
/// layer served the result.
struct CellProfile {
  std::string key;        ///< CellKey (cache filename stem)
  std::string policy;
  std::string workload;
  double wall_seconds = 0.0;         ///< total time inside RunCellCached
  /// Deriving the disk entry's build-identity stamp and path (0 without
  /// REDCACHE_CACHE_DIR). The name is kept for report readers.
  double fingerprint_seconds = 0.0;
  double sim_seconds = 0.0;          ///< RunOne (0 when served from cache)
  bool memo_hit = false;  ///< served by the in-process memo (shared future)
  bool disk_hit = false;  ///< served by the REDCACHE_CACHE_DIR entry
  std::uint64_t exec_cycles = 0;
  /// Event-loop economics of the run (0 when served from a cache layer,
  /// which stores only the simulation results).
  std::uint64_t ticks_executed = 0;
  std::uint64_t cycles_skipped = 0;
  /// DRAM scheduler host-cost ledger (RunResult::dram_ledger); zero when
  /// served from a cache layer.
  SchedulerLedger dram_ledger;
  /// Per-tenant QoS rows derived from the cell's exported tenant<N>.*
  /// counters. Empty for single-tenant cells, so reports stay unchanged
  /// unless a mix (or serve accounting) was actually active.
  std::vector<tenant::TenantQos> tenants;
  /// Where this cell's telemetry series landed and how many epochs it
  /// closed. Set only when the cell actually simulated under
  /// BatchOptions::telemetry_dir — cache hits carry no telemetry.
  std::string telemetry_path;
  std::uint64_t telemetry_epochs = 0;
  /// SMARTS sampled-execution quality (sim/sampling.hpp): set only when
  /// the cell ran sampled, so plain reports serialize byte-identically.
  bool sampled = false;
  std::uint64_t sampling_intervals = 0;
  double sampling_ci_pct = 0.0;  ///< 95% CI half-width, % of the estimate
};

/// Aggregated profile of one RunCells invocation.
struct BatchReport {
  std::string label;
  unsigned jobs = 0;
  double wall_seconds = 0.0;  ///< end-to-end batch wall time
  std::vector<CellProfile> cells;  ///< cells[i] profiles cells[i] of the call
};

/// Serialize a BatchReport as JSON (cells plus summary counts: simulated /
/// memo_hits / disk_hits and summed phase times). False on I/O failure.
bool WriteBatchReportJson(const std::string& path, const BatchReport& report);
std::string BatchReportJson(const BatchReport& report);

struct BatchOptions {
  /// Worker count. 0 resolves REDCACHE_JOBS, then hardware_concurrency.
  unsigned jobs = 0;
  /// Per-run progress/ETA lines on stderr. Also requires REDCACHE_PROGRESS
  /// to not be "0".
  bool progress = true;
  /// Prefix for progress lines.
  std::string label = "batch";
  /// When set, RunCells fills in per-cell profiles and batch totals.
  BatchReport* report = nullptr;
  /// When set, every cell that actually simulates streams its telemetry
  /// series to `<telemetry_dir>/<CellKey>.ndjson` (observability only; the
  /// path and epoch pacing never enter cache keys).
  std::string telemetry_dir;
  /// Epoch pacing for `telemetry_dir` series (fixed or adaptive).
  obs::EpochSpec epoch;
};

/// Resolve a worker count: `requested` if nonzero, else REDCACHE_JOBS,
/// else std::thread::hardware_concurrency (at least 1). A REDCACHE_JOBS
/// that is not a whole number throws std::invalid_argument.
unsigned ResolveJobs(unsigned requested);

/// Run every spec; `results[i]` is the result of `specs[i]` regardless of
/// thread count or completion order. No caching. If a run throws, the pool
/// drains and the first exception is rethrown from the calling thread.
std::vector<RunResult> RunBatch(const std::vector<RunSpec>& specs,
                                const BatchOptions& opts = {});

/// Generic parallel index loop (profiler sweeps, trace batches). Calls
/// fn(0..n-1) at most once each, from up to `jobs` threads (resolved via
/// ResolveJobs); every index runs exactly once unless fn throws, in which
/// case remaining indices are skipped and the first exception is rethrown
/// from the calling thread. fn must be thread-safe across distinct indices.
void ParallelFor(std::size_t n, unsigned jobs,
                 const std::function<void(std::size_t)>& fn);

/// Build identity stamped into every disk-cache entry: a SHA-256 (hex) over
/// every file under src/ plus the compiler ID/version, CMAKE_CXX_FLAGS and
/// build type, regenerated by the build whenever any of them changes
/// (src/sim/build_id.cmake). An entry from any other build misses.
std::string CacheIdentity();

/// One evaluation cell: a spec plus a variant tag distinguishing custom
/// preset configurations (e.g. fill granularity) in the cache key.
struct CellSpec {
  RunSpec spec;
  std::string variant;
};

/// Stable cache key for a cell: filename-safe, and covering every input
/// that affects the result apart from the code itself — preset name,
/// policy, workload, effective scale, seed, variant, mix descriptor, pins,
/// and a hash of every preset field and the cycle cap.
std::string CellKey(const CellSpec& cell);

/// Run one cell through the process-wide memo and, when REDCACHE_CACHE_DIR
/// is set, the disk cache (CellKey names the entry, CacheIdentity stamps
/// it). Concurrent requests for the same key share a single simulation.
/// Disk entries store exec_cycles, counters and histograms under a payload
/// checksum; energy is derived from counters and recomputed on load. With
/// REDCACHE_CACHE_MAX_MB set, the disk cache is bounded: a hit refreshes
/// the entry's mtime and each store evicts least-recently-used entries
/// until the directory fits; a value that is not a whole number of MiB
/// throws std::invalid_argument. `profile`, when non-null, receives the
/// host-side timing breakdown for this call.
RunResult RunCellCached(const CellSpec& cell);
RunResult RunCellCached(const CellSpec& cell, CellProfile* profile);

/// Delete least-recently-used "*.stats" entries in `dir` (by mtime) until
/// their total size is <= max_bytes. No-op when already within bound.
/// Exposed for tests; RunCellCached calls it after each store.
void EnforceDiskCacheBound(const std::string& dir, std::uint64_t max_bytes);

/// On-disk cache entry format version, stored in every entry's header so
/// bumping it invalidates every existing entry.
/// v2: histogram serialization, seed/max_cycles in key.
/// v3: binary via the common serializer (ser::Writer/Reader); the hand-rolled
///     text histogram format is retired and stats use StatSet::Snapshot.
/// v4: the build identity replaces the behavioral fingerprint, and a
///     payload checksum covers exec_cycles and the stats.
/// v5: the payload checksum folds each word's high bits down (Fnv64).
constexpr std::uint64_t kCacheFormatVersion = 5;

/// RunBatch over cells with memo + disk cache; duplicate keys (shared
/// baselines) simulate once. `results[i]` corresponds to `cells[i]`.
std::vector<RunResult> RunCells(const std::vector<CellSpec>& cells,
                                const BatchOptions& opts = {});

}  // namespace redcache
