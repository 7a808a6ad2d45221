#include "dramcache/ideal.hpp"

namespace redcache {

namespace {
enum State { kProbe = 0 };
}  // namespace

IdealController::IdealController(MemControllerConfig cfg)
    : ControllerBase((cfg.has_hbm = true, cfg)) {}

void IdealController::StartTxn(Txn& txn, Cycle now) {
  // IDEAL holds the whole working set: index by main-memory address modulo
  // the device capacity (conflicts never occur by construction).
  txn.state = kProbe;
  SendHbm(TxnIndex(txn), txn.addr, /*is_write=*/false, now);
}

void IdealController::OnDeviceComplete(Txn& txn, bool /*from_hbm*/,
                                       const DramCompletion& c, Cycle now) {
  if (txn.is_writeback) {
    // Tag check done; now write the data (bus reversal charged by the
    // DRAM model). IDEAL holds every block, so the write lands in the
    // cache copy: report it as a dirty fill (install-or-update).
    NotifyFill(txn.addr, /*dirty=*/true);
    SendHbm(kPostedOp, txn.addr, /*is_write=*/true, now);
    FreeTxn(txn);
    return;
  }
  // Never-written blocks are served from the (identical) main-memory image.
  NotifyServeRead(txn, ServeSource::kAny);
  CompleteRead(txn, c.done);
  FreeTxn(txn);
}

}  // namespace redcache
