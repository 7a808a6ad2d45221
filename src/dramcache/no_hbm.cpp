#include "dramcache/no_hbm.hpp"

namespace redcache {

NoHbmController::NoHbmController(MemControllerConfig cfg)
    : ControllerBase((cfg.has_hbm = false, cfg)) {}

void NoHbmController::StartTxn(Txn& txn, Cycle now) {
  if (txn.is_writeback) {
    NotifyMmWrite(txn.addr);
    SendMm(kPostedOp, txn.addr, /*is_write=*/true, now);
    FreeTxn(txn);
    return;
  }
  SendMm(TxnIndex(txn), txn.addr, /*is_write=*/false, now);
}

void NoHbmController::OnDeviceComplete(Txn& txn, bool /*from_hbm*/,
                                       const DramCompletion& c, Cycle /*now*/) {
  NotifyServeRead(txn, ServeSource::kMainMemory);
  CompleteRead(txn, c.done);
  FreeTxn(txn);
}

}  // namespace redcache
