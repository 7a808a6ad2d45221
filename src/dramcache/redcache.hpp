// RedCache controller (the paper's contribution, §III).
//
// A fine-grained DRAM cache — direct-mapped as in the paper, or `ways`-way
// set-associative with LRU replacement (the authors' R-Cache direction) —
// managed by:
//  * alpha counting — only blocks of pages that have proven bandwidth-hungry
//    (>= alpha average accesses per block) are ever installed; colder
//    traffic bypasses the cache straight to main memory;
//  * gamma counting — a write hitting a block whose r-count reached the
//    adaptive gamma is the block's last write: the block is invalidated and
//    the write routed to main memory, saving the HBM write, the future
//    victim writeback and a bus turnaround;
//  * the RCU manager — read-hit r-count updates are parked in a 32-entry
//    CAM+RAM and drained when they can piggyback on a same-row write, when
//    the channel idles, or when the queue fills; the RAM doubles as a tiny
//    block cache;
//  * bypass-on-refresh — requests to a rank mid-refresh go to main memory.
//
// Option flags turn individual mechanisms off to model the paper's
// Red-Alpha / Red-Gamma / Red-Basic / Red-InSitu ablation variants.
//
// With ways > 1 a set's ways share one DRAM row and its tags ride in the
// row's ECC lanes: the probe burst returns every tag plus the MRU way's
// data. A read hit on another way costs one more data burst, and a dirty
// LRU victim is streamed out with one extra read before its writeback.
#pragma once

#include <deque>
#include <vector>

#include "core/alpha_table.hpp"
#include "core/gamma.hpp"
#include "core/rcu.hpp"
#include "dramcache/controller.hpp"
#include "dramcache/tag_store.hpp"

namespace redcache {

struct RedCacheOptions {
  bool alpha_enabled = true;
  bool gamma_enabled = true;
  enum class UpdateMode {
    kImmediate,  ///< Red-Basic: write the r-count back on every read hit
    kRcu,        ///< RedCache: park updates in the RCU manager
    kInSitu      ///< Red-InSitu: updated inside the DRAM dies, free of bus
  };
  UpdateMode update_mode = UpdateMode::kRcu;
  bool bypass_on_refresh = true;
  AlphaTable::Params alpha;
  GammaController::Params gamma;
  std::size_t rcu_entries = 32;
  /// Alpha retuning / decay epoch, in memory requests. Must sit between a
  /// hot working set's revisit interval (no decay between its passes) and a
  /// cold stream's (full decay between its passes); see alpha_table.hpp.
  std::uint64_t epoch_requests = 131072;
  /// Test-only fault injection: silently drop dirty victims at Fill instead
  /// of writing them back. Exists so negative tests can prove the
  /// ShadowChecker catches lost writes; never set outside tests/verify.
  bool testing_drop_victim_writeback = false;

  static RedCacheOptions Full() { return {}; }
  static RedCacheOptions Basic() {
    RedCacheOptions o;
    o.update_mode = UpdateMode::kImmediate;
    return o;
  }
  static RedCacheOptions InSitu() {
    RedCacheOptions o;
    o.update_mode = UpdateMode::kInSitu;
    return o;
  }
  static RedCacheOptions AlphaOnly() {
    RedCacheOptions o;
    o.gamma_enabled = false;
    o.update_mode = UpdateMode::kInSitu;  // r-counts unused without gamma
    o.bypass_on_refresh = false;
    return o;
  }
  static RedCacheOptions GammaOnly() {
    // "An in-DRAM version of gamma counting applied to the Alloy caches."
    RedCacheOptions o;
    o.alpha_enabled = false;
    o.update_mode = UpdateMode::kInSitu;
    o.bypass_on_refresh = false;
    return o;
  }
};

class RedCacheController : public ControllerBase {
 public:
  RedCacheController(MemControllerConfig cfg, RedCacheOptions options,
                     const char* display_name = "redcache",
                     std::uint32_t ways = 1);

  const char* name() const override { return display_name_; }

  const AlphaTable& alpha() const { return alpha_; }
  const GammaController& gamma() const { return gamma_; }
  const RcuManager& rcu() const { return rcu_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 protected:
  void StartTxn(Txn& txn, Cycle now) override;
  void OnDeviceComplete(Txn& txn, bool from_hbm, const DramCompletion& c,
                        Cycle now) override;
  void PolicyTick(Cycle now) override;
  Cycle PolicyWake(Cycle now) const override;
  void ExportOwnStats(StatSet& stats) const override;
  void OnColumnCommand(const IssuedColumnCommand& cmd) override;
  void SnapshotPolicy(ser::Writer& w) const override;
  void RestorePolicy(ser::Reader& r) override;
  template <class Self, class Ar>
  static void Io(Self& s, Ar& a);

 public:
  void SampleTelemetry(StatSet& out) const override;

 private:
  void HandleProbeResult(Txn& txn, const DramCompletion& c, Cycle now);
  void RecordReadHitUpdate(Addr block, std::uint64_t set, std::uint32_t way,
                           Cycle now);
  /// `reason` is an obs::kRcuFlush* constant, recorded in the event trace.
  void FlushRcuEntries(const std::vector<RcuManager::Entry>& entries,
                       Cycle now, std::uint64_t reason);
  /// Drop the resident of (set, way). `lifetime_sample` feeds the block's
  /// final r-count to gamma (true only for natural evictions — gamma's own
  /// kills are truncated lifetimes and must not be sampled).
  void InvalidateBlock(std::uint64_t set, std::uint32_t way,
                       bool lifetime_sample);
  void NoteGammaInvalidation(Addr block);
  void CheckPrematureInvalidation(Addr block);
  void Fill(Addr addr, bool dirty, Cycle now);
  void RouteToMainMemory(Txn& txn, Cycle now);
  /// Mean r-count of blocks that left the cache this epoch.
  void MaybeRetune(Cycle now);
  /// The channels for which RCU drain condition 2 holds (bit c set: updates
  /// are parked for c and its transaction queue is empty), from two
  /// incrementally kept masks.
  std::uint64_t IdleWithParked() const {
    return rcu_.parked_mask() & hbm_->empty_queue_mask();
  }

  RedCacheOptions opt_;
  const char* display_name_;
  TagStore tags_;
  AlphaTable alpha_;
  GammaController gamma_;
  RcuManager rcu_;

  /// Column-command matches seen during a device tick; drained in
  /// PolicyTick because enqueueing from inside the observer would mutate a
  /// channel queue mid-scheduling.
  std::vector<RcuManager::Entry> pending_rcu_flushes_;

  // Epoch feedback for alpha retuning.
  std::uint64_t epoch_request_count_ = 0;
  std::uint64_t epoch_departures_ = 0;
  std::uint64_t epoch_dead_departures_ = 0;  ///< left with r-count == 0

  /// Direct-mapped signature of blocks gamma recently invalidated; a miss
  /// landing on one is evidence the invalidation was premature. Slots hold
  /// the complement of the block address, so a zeroed slot is empty.
  std::vector<Addr, ZeroedAllocator<Addr>> recent_invalidations_;

  // Counters.
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t read_hits_ = 0;
  std::uint64_t write_hits_ = 0;
  std::uint64_t fills_ = 0;
  std::uint64_t victim_writebacks_ = 0;
  std::uint64_t departures_ = 0;  ///< valid lines dropped, any cause
  std::uint64_t alpha_bypasses_ = 0;
  std::uint64_t refresh_bypasses_ = 0;
  std::uint64_t gamma_invalidations_ = 0;
  std::uint64_t dirty_miss_bypasses_ = 0;
  std::uint64_t write_miss_bypasses_ = 0;
  std::uint64_t rcu_served_reads_ = 0;
  std::uint64_t way_fetches_ = 0;  ///< read hits off the MRU way (ways > 1)
  std::uint64_t immediate_updates_ = 0;
  std::uint64_t insitu_updates_ = 0;
};

}  // namespace redcache
