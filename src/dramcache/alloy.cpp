#include "dramcache/alloy.hpp"

namespace redcache {

namespace {
enum State {
  kProbe = 0,    ///< waiting for the TAD read
  kMissFetch,    ///< waiting for the main-memory line
};
}  // namespace

AlloyController::AlloyController(MemControllerConfig cfg)
    : ControllerBase((cfg.has_hbm = true, cfg)),
      tags_(cfg.hbm.geometry.capacity_bytes, cfg.line_blocks) {}

void AlloyController::Fill(Addr addr, bool dirty, Cycle now) {
  const std::uint64_t set = tags_.SetOf(addr);
  TagStore::Line& line = tags_.line(set);
  if (line.valid) {
    evictions_++;
    if (line.dirty) {
      // The probe read already returned the victim block; wider lines need
      // the remaining blocks streamed out before the main-memory writeback.
      if (tags_.line_blocks() > 1) {
        SendHbm(kPostedOp, tags_.HbmAddr(set, addr), /*is_write=*/false, now,
                tags_.line_blocks() - 1);
      }
      NotifyVictimWriteback(tags_.VictimAddr(set));
      SendMm(kPostedOp, tags_.VictimAddr(set), /*is_write=*/true, now,
             tags_.line_blocks());
      victim_writebacks_++;
    } else {
      NotifyInvalidate(tags_.VictimAddr(set));
    }
  }
  NotifyFill(addr, dirty);
  line.valid = true;
  line.dirty = dirty;
  line.tag = tags_.TagOf(addr);
  line.r_count = 0;
  SendHbm(kPostedOp, tags_.HbmAddr(set, addr), /*is_write=*/true, now,
          tags_.line_blocks());
  fills_++;
}

void AlloyController::StartTxn(Txn& txn, Cycle now) {
  // Every request starts with the TAD probe read.
  txn.state = kProbe;
  const std::uint64_t set = tags_.SetOf(txn.addr);
  SendHbm(TxnIndex(txn), tags_.HbmAddr(set, txn.addr), /*is_write=*/false,
          now);
}

void AlloyController::OnDeviceComplete(Txn& txn, bool /*from_hbm*/,
                                       const DramCompletion& c, Cycle now) {
  const std::uint64_t set = tags_.SetOf(txn.addr);
  switch (txn.state) {
    case kProbe: {
      const bool hit = tags_.Hit(txn.addr);
      if (hit) {
        hits_++;
        if (txn.is_writeback) {
          write_hits_++;
          tags_.line(set).dirty = true;
          NotifyCacheWrite(txn.addr);
          SendHbm(kPostedOp, tags_.HbmAddr(set, txn.addr), /*is_write=*/true,
                  now);
          FreeTxn(txn);
        } else {
          read_hits_++;
          NotifyServeRead(txn, ServeSource::kCache);
          CompleteRead(txn, c.done);
          FreeTxn(txn);
        }
        return;
      }
      misses_++;
      if (txn.is_writeback) {
        // Write-allocate: the CPU supplied the block; wider lines fetch the
        // remainder from main memory (posted — approximation noted in docs).
        if (tags_.line_blocks() > 1) {
          SendMm(kPostedOp, txn.addr, /*is_write=*/false, now,
                 tags_.line_blocks() - 1);
        }
        Fill(txn.addr, /*dirty=*/true, now);
        FreeTxn(txn);
        return;
      }
      txn.state = kMissFetch;
      SendMm(TxnIndex(txn), txn.addr, /*is_write=*/false, now,
             tags_.line_blocks());
      return;
    }
    case kMissFetch: {
      NotifyServeRead(txn, ServeSource::kMainMemory);
      CompleteRead(txn, c.done);
      Fill(txn.addr, /*dirty=*/false, now);
      FreeTxn(txn);
      return;
    }
  }
}

void AlloyController::ExportOwnStats(StatSet& stats) const {
  stats.Counter("ctrl.cache_hits") = hits_;
  stats.Counter("ctrl.cache_misses") = misses_;
  stats.Counter("ctrl.read_hits") = read_hits_;
  stats.Counter("ctrl.write_hits") = write_hits_;
  stats.Counter("ctrl.fills") = fills_;
  stats.Counter("ctrl.victim_writebacks") = victim_writebacks_;
  stats.Counter("ctrl.evictions") = evictions_;
  stats.Counter("ctrl.resident_lines") = tags_.ValidLines();
}

template <class Self, class Ar>
void AlloyController::Io(Self& s, Ar& a) {
  a.Section("alloy");
  a.Part(s.tags_);
  for (auto* counter : {&s.hits_, &s.misses_, &s.read_hits_, &s.write_hits_,
                        &s.fills_, &s.victim_writebacks_, &s.evictions_}) {
    a.U64(*counter);
  }
}

void AlloyController::SnapshotPolicy(ser::Writer& w) const { Io(*this, w); }
void AlloyController::RestorePolicy(ser::Reader& r) { Io(*this, r); }

}  // namespace redcache
