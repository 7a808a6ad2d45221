// Banshee-style frequency-gated page-granularity DRAM cache.
//
// Models the class of SW/HW-managed page caches (Banshee, HPCA'17-style)
// whose tags live in SRAM/TLB state, so lookups cost no DRAM traffic, and
// whose replacement is *frequency based*: a candidate page only displaces
// the resident page of its set once it has proven (via a per-set challenger
// counter) that it is accessed more often. That sampling gate is Banshee's
// answer to page-granularity cache thrash — hot pages stay put, streaming
// pages never earn a slot.
//
// Structure per 2 KiB set: the resident page's tag, per-block present and
// dirty bitmaps (footprint caching: only touched blocks occupy HBM), a
// saturating access-frequency counter, and one challenger {tag, count}
// slot updated CLOCK-style on page misses. Reads install their block on
// the main-memory fetch's completion; CPU writebacks install directly on a
// page hit and bypass to main memory on a page miss (writes never trigger
// replacement). Sets with in-flight reads are pinned: replacement defers
// until the read drains so a served-from-cache decision can never be
// invalidated mid-flight.
#pragma once

#include <vector>

#include "dramcache/controller.hpp"

namespace redcache {

class BansheeController : public ControllerBase {
 public:
  explicit BansheeController(MemControllerConfig cfg,
                             std::uint64_t page_bytes = 2048);

  const char* name() const override { return "banshee"; }
  void SampleTelemetry(StatSet& out) const override;

 protected:
  void StartTxn(Txn& txn, Cycle now) override;
  void OnDeviceComplete(Txn& txn, bool from_hbm, const DramCompletion& c,
                        Cycle now) override;
  void ExportOwnStats(StatSet& stats) const override;
  void SnapshotPolicy(ser::Writer& w) const override;
  void RestorePolicy(ser::Reader& r) override;
  template <class Self, class Ar>
  static void Io(Self& s, Ar& a);

 private:
  struct PageEntry {
    std::uint64_t tag = 0;
    std::uint64_t present = 0;  ///< bitmap, bit i = block i resident in HBM
    std::uint64_t dirty = 0;
    std::uint8_t freq = 0;      ///< saturating access-frequency counter
    bool valid = false;
  };
  struct Challenger {
    std::uint64_t tag = 0;
    std::uint8_t count = 0;
  };

  std::uint64_t SetOf(Addr addr) const { return (addr / page_bytes_) % sets_; }
  std::uint64_t TagOf(Addr addr) const { return addr / page_bytes_ / sets_; }
  std::uint32_t BlockOf(Addr addr) const {
    return static_cast<std::uint32_t>((addr % page_bytes_) / kBlockBytes);
  }
  Addr HbmAddr(std::uint64_t set, std::uint32_t block) const {
    return set * page_bytes_ + Addr{block} * kBlockBytes;
  }
  Addr PageAddr(const PageEntry& e, std::uint64_t set) const {
    return (e.tag * sets_ + set) * page_bytes_;
  }

  void BumpFreq(PageEntry& e) {
    if (e.freq != 0xff) ++e.freq;
  }
  /// Page-miss bookkeeping for `addr`: update the set's challenger slot and
  /// return true when the frequency gate says the resident page should be
  /// replaced now (caller still checks the pin).
  bool ChallengerWins(std::uint64_t set, Addr addr);
  /// Evict the resident page of `set` (verify-notifying every present
  /// block) and claim it for `addr`'s page with an empty footprint.
  void ReplacePage(std::uint64_t set, Addr addr, Cycle now);
  /// Halve every frequency/challenger counter (deterministic aging).
  void DecayFrequencies();

  std::uint64_t ResidentBlocks() const;

  std::uint64_t page_bytes_;
  std::uint32_t blocks_per_page_;
  std::uint64_t sets_;
  std::vector<PageEntry> pages_;
  std::vector<Challenger> challengers_;
  std::vector<std::uint32_t> pins_;  ///< in-flight reads referencing the set

  std::uint64_t requests_since_decay_ = 0;

  std::uint64_t read_hits_ = 0;       ///< block present, served from HBM
  std::uint64_t write_hits_ = 0;      ///< page hit, block present
  std::uint64_t misses_ = 0;
  std::uint64_t fills_ = 0;           ///< blocks installed (read or write)
  std::uint64_t evictions_ = 0;       ///< present blocks displaced
  std::uint64_t victim_writebacks_ = 0;
  std::uint64_t page_replacements_ = 0;
  std::uint64_t replacements_blocked_ = 0;  ///< gate won but the set was pinned
  std::uint64_t read_bypasses_ = 0;   ///< page-miss reads served without a slot
  std::uint64_t write_bypasses_ = 0;  ///< page-miss writebacks routed to MM
  std::uint64_t install_races_ = 0;   ///< fetch completed after a write install
};

}  // namespace redcache
