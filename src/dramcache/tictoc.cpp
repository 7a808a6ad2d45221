#include "dramcache/tictoc.hpp"

namespace redcache {

namespace {
enum State {
  kProbe = 0,  ///< waiting for the TAD read (mirrors Alloy)
  kMissFetch,  ///< waiting for the main-memory line; txn.aux = install flag
};
}  // namespace

TicTocController::TicTocController(MemControllerConfig cfg)
    : AlloyController(std::move(cfg)) {}

void TicTocController::NoteRequest() {
  if (++window_requests_ < kWindow) return;
  // The side that moved more bursts this window is the pressured one: shed
  // optional HBM traffic (fills, metadata) when HBM is the bottleneck, add
  // it back when main memory is.
  if (hbm_bursts_ > mm_bursts_) {
    if (fill_duty_ > 1) {
      fill_duty_--;
      duty_drops_++;
    }
  } else {
    if (fill_duty_ < 8) {
      fill_duty_++;
      duty_raises_++;
    }
  }
  window_requests_ = 0;
  hbm_bursts_ = 0;
  mm_bursts_ = 0;
}

void TicTocController::StartTxn(Txn& txn, Cycle now) {
  NoteRequest();
  // Every request starts with the TAD probe read, exactly like Alloy.
  txn.state = kProbe;
  const std::uint64_t set = tags_.SetOf(txn.addr);
  hbm_bursts_++;
  SendHbm(TxnIndex(txn), tags_.HbmAddr(set, txn.addr), /*is_write=*/false,
          now);
}

void TicTocController::OnDeviceComplete(Txn& txn, bool /*from_hbm*/,
                                        const DramCompletion& c, Cycle now) {
  const std::uint64_t set = tags_.SetOf(txn.addr);
  switch (txn.state) {
    case kProbe: {
      const bool hit = tags_.Hit(txn.addr);
      TagStore::Line& line = tags_.line(set);
      if (hit) {
        hits_++;
        if (txn.is_writeback) {
          write_hits_++;
          if (line.r_count >= kLastWriteReuse) {
            // Predicted last write: route it to main memory and drop the
            // cached copy so the set stays clean. The MM write must be
            // reported before the invalidate — it carries the newest
            // version, making the dirty drop safe.
            last_write_routes_++;
            NotifyMmWrite(txn.addr);
            NotifyInvalidate(txn.addr);
            line.valid = false;
            line.dirty = false;
            evictions_++;
            mm_bursts_++;
            SendMm(kPostedOp, txn.addr, /*is_write=*/true, now);
          } else {
            absorbed_writes_++;
            line.dirty = true;
            NotifyCacheWrite(txn.addr);
            hbm_bursts_++;
            SendHbm(kPostedOp, tags_.HbmAddr(set, txn.addr),
                    /*is_write=*/true, now);
          }
          FreeTxn(txn);
        } else {
          read_hits_++;
          tags_.BumpRcount(set);
          // "Tic": pay the in-DRAM reuse-counter write only when the duty
          // says HBM has headroom; "toc": elide it under pressure.
          if (fill_duty_ >= 4) {
            metadata_updates_++;
            hbm_bursts_++;
            SendHbm(kPostedOp, tags_.HbmAddr(set, txn.addr),
                    /*is_write=*/true, now);
          } else {
            metadata_skips_++;
          }
          NotifyServeRead(txn, ServeSource::kCache);
          CompleteRead(txn, c.done);
          FreeTxn(txn);
        }
        return;
      }
      misses_++;
      if (txn.is_writeback) {
        // No write allocation: a clean cache means evictions stay free.
        write_bypasses_++;
        NotifyMmWrite(txn.addr);
        mm_bursts_++;
        SendMm(kPostedOp, txn.addr, /*is_write=*/true, now);
        FreeTxn(txn);
        return;
      }
      // Duty-gated fill decision, fixed at miss time so the completion
      // path needs no further cache state.
      txn.aux = (fill_seq_++ % 8) < fill_duty_ ? 1 : 0;
      txn.state = kMissFetch;
      mm_bursts_++;
      SendMm(TxnIndex(txn), txn.addr, /*is_write=*/false, now,
             tags_.line_blocks());
      return;
    }
    case kMissFetch: {
      NotifyServeRead(txn, ServeSource::kMainMemory);
      CompleteRead(txn, c.done);
      if (txn.aux != 0) {
        hbm_bursts_ += tags_.line_blocks();
        Fill(txn.addr, /*dirty=*/false, now);
      } else {
        bypassed_fills_++;
      }
      FreeTxn(txn);
      return;
    }
  }
}

void TicTocController::ExportOwnStats(StatSet& stats) const {
  AlloyController::ExportOwnStats(stats);
  stats.Counter("ctrl.bypassed_fills") = bypassed_fills_;
  stats.Counter("ctrl.last_write_routes") = last_write_routes_;
  stats.Counter("ctrl.absorbed_writes") = absorbed_writes_;
  stats.Counter("ctrl.write_bypasses") = write_bypasses_;
  stats.Counter("ctrl.metadata_updates") = metadata_updates_;
  stats.Counter("ctrl.metadata_skips") = metadata_skips_;
  stats.Counter("ctrl.fill_duty") = fill_duty_;
}

void TicTocController::SampleTelemetry(StatSet& out) const {
  ControllerBase::SampleTelemetry(out);
  out.Counter("gauge.fill_duty") = fill_duty_;
  out.Counter("gauge.resident_lines") = tags_.ValidLines();
  out.Counter("bypassed_fills") = bypassed_fills_;
  out.Counter("last_write_routes") = last_write_routes_;
  out.Counter("metadata_skips") = metadata_skips_;
  out.Counter("duty_raises") = duty_raises_;
  out.Counter("duty_drops") = duty_drops_;
}

template <class Self, class Ar>
void TicTocController::Io(Self& s, Ar& a) {
  a.Section("tictoc");
  a.U64(s.window_requests_);
  a.U64(s.hbm_bursts_);
  a.U64(s.mm_bursts_);
  a.U32(s.fill_duty_);
  for (auto* counter :
       {&s.fill_seq_, &s.bypassed_fills_, &s.last_write_routes_,
        &s.absorbed_writes_, &s.write_bypasses_, &s.metadata_updates_,
        &s.metadata_skips_, &s.duty_raises_, &s.duty_drops_}) {
    a.U64(*counter);
  }
}

void TicTocController::SnapshotPolicy(ser::Writer& w) const {
  AlloyController::SnapshotPolicy(w);
  Io(*this, w);
}

void TicTocController::RestorePolicy(ser::Reader& r) {
  AlloyController::RestorePolicy(r);
  Io(*this, r);
}

}  // namespace redcache
