// Coarse-grained footprint cache baseline.
//
// The paper's introduction contrasts fine-grained caches with
// coarse-grained designs (Unison/Footprint/tagless caches, refs [4],[6]-
// [9]) that manage kilobyte pages so the tag array fits on die. This
// controller models that class: direct-mapped 2 KiB pages, SRAM tags (no
// probe traffic — the coarse grain's big win), a per-page presence bitmap
// so only touched blocks are fetched (footprint caching), and dirty-block
// writeback on page eviction. RedCache targets exactly the workloads where
// this design loses to fine-grained management.
#pragma once

#include <vector>

#include "dramcache/controller.hpp"

namespace redcache {

class FootprintCacheController : public ControllerBase {
 public:
  /// `page_bytes` must be a multiple of the block size.
  FootprintCacheController(MemControllerConfig cfg,
                           std::uint64_t page_bytes = 2048);

  const char* name() const override { return "footprint"; }

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
    std::uint64_t present = 0;  ///< bitmap, bit i = block i resident
    std::uint64_t dirty = 0;
    bool valid = false;
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

  /// Evict the resident page of `set` (writing back dirty blocks) and
  /// allocate `addr`'s page.
  void Allocate(Addr addr, Cycle now);

  std::uint64_t page_bytes_;
  std::uint32_t blocks_per_page_;
  std::uint64_t sets_;
  std::vector<PageEntry> pages_;

  std::uint64_t block_hits_ = 0;
  std::uint64_t block_misses_ = 0;   ///< page present, block absent
  std::uint64_t page_misses_ = 0;
  std::uint64_t page_evictions_ = 0;
  std::uint64_t dirty_blocks_written_back_ = 0;
};

}  // namespace redcache
