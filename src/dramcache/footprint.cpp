#include "dramcache/footprint.hpp"

#include <cassert>

namespace redcache {

namespace {
enum State {
  kBlockFetch = 0,  ///< block streaming in from main memory
};
}  // namespace

FootprintCacheController::FootprintCacheController(MemControllerConfig cfg,
                                                   std::uint64_t page_bytes)
    : ControllerBase((cfg.has_hbm = true, cfg)),
      page_bytes_(page_bytes),
      blocks_per_page_(static_cast<std::uint32_t>(page_bytes / kBlockBytes)),
      sets_(cfg.hbm.geometry.capacity_bytes / page_bytes),
      pages_(sets_) {
  assert(blocks_per_page_ >= 1 && blocks_per_page_ <= 64);
}

void FootprintCacheController::Allocate(Addr addr, Cycle now) {
  const std::uint64_t set = SetOf(addr);
  PageEntry& e = pages_[set];
  if (e.valid) {
    page_evictions_++;
    // Stream dirty blocks out of HBM and write them back off-package.
    std::uint64_t dirty = e.dirty;
    for (std::uint32_t b = 0; b < blocks_per_page_; ++b) {
      if (dirty & (std::uint64_t{1} << b)) {
        SendHbm(kPostedOp, HbmAddr(set, b), /*is_write=*/false, now);
        SendMm(kPostedOp, PageAddr(e, set) + Addr{b} * kBlockBytes,
               /*is_write=*/true, now);
        dirty_blocks_written_back_++;
      }
    }
  }
  e.valid = true;
  e.tag = TagOf(addr);
  e.present = 0;
  e.dirty = 0;
}

void FootprintCacheController::StartTxn(Txn& txn, Cycle now) {
  const std::uint64_t set = SetOf(txn.addr);
  PageEntry& e = pages_[set];
  const std::uint32_t block = BlockOf(txn.addr);
  const std::uint64_t bit = std::uint64_t{1} << block;

  if (!e.valid || e.tag != TagOf(txn.addr)) {
    page_misses_++;
    Allocate(txn.addr, now);
  }
  PageEntry& page = pages_[set];

  if (txn.is_writeback) {
    // SRAM tags: no probe read needed; the write installs the block.
    if (page.present & bit) {
      block_hits_++;
    } else {
      block_misses_++;
    }
    page.present |= bit;
    page.dirty |= bit;
    SendHbm(kPostedOp, HbmAddr(set, block), /*is_write=*/true, now);
    FreeTxn(txn);
    return;
  }

  if (page.present & bit) {
    block_hits_++;
    txn.state = kBlockFetch;  // data comes from HBM
    SendHbm(TxnIndex(txn), HbmAddr(set, block), /*is_write=*/false, now);
    return;
  }
  // Footprint fetch: bring only the demanded block.
  block_misses_++;
  page.present |= bit;
  txn.state = kBlockFetch;
  txn.aux = 1;  // fill HBM copy after the fetch
  SendMm(TxnIndex(txn), txn.addr, /*is_write=*/false, now);
}

void FootprintCacheController::OnDeviceComplete(Txn& txn, bool from_hbm,
                                                const DramCompletion& c,
                                                Cycle now) {
  NotifyServeRead(txn,
                  from_hbm ? ServeSource::kCache : ServeSource::kMainMemory);
  CompleteRead(txn, c.done);
  if (!from_hbm && txn.aux == 1) {
    // Install the fetched block into the page's HBM frame.
    SendHbm(kPostedOp, HbmAddr(SetOf(txn.addr), BlockOf(txn.addr)),
            /*is_write=*/true, now);
  }
  FreeTxn(txn);
}

void FootprintCacheController::ExportOwnStats(StatSet& stats) const {
  stats.Counter("ctrl.cache_hits") = block_hits_;
  stats.Counter("ctrl.cache_misses") = block_misses_ + page_misses_;
  stats.Counter("ctrl.block_misses") = block_misses_;
  stats.Counter("ctrl.page_misses") = page_misses_;
  stats.Counter("ctrl.page_evictions") = page_evictions_;
  stats.Counter("ctrl.dirty_blocks_written_back") = dirty_blocks_written_back_;
}

template <class Self, class Ar>
void FootprintCacheController::Io(Self& s, Ar& a) {
  a.Section("fp");
  a.Records(
      s.pages_, 25,
      [&a](auto& e) {
        a.U64(e.tag);
        a.U64(e.present);
        a.U64(e.dirty);
        a.Bool(e.valid);
      },
      "footprint page table size mismatch");
  for (auto* counter : {&s.block_hits_, &s.block_misses_, &s.page_misses_,
                        &s.page_evictions_, &s.dirty_blocks_written_back_}) {
    a.U64(*counter);
  }
}

void FootprintCacheController::SnapshotPolicy(ser::Writer& w) const {
  Io(*this, w);
}
void FootprintCacheController::RestorePolicy(ser::Reader& r) { Io(*this, r); }

}  // namespace redcache
