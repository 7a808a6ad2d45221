#include "dramcache/controller.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace redcache {

ControllerBase::ControllerBase(const MemControllerConfig& cfg) : cfg_(cfg) {
  if (cfg_.has_hbm) {
    hbm_ = std::make_unique<DramSystem>(cfg_.hbm);
    hbm_->SetObserver(this);
  }
  mm_ = std::make_unique<DramSystem>(cfg_.mainmem);
  txns_.resize(cfg_.txn_pool_size);
  free_txns_.reserve(cfg_.txn_pool_size);
  for (std::uint32_t i = 0; i < cfg_.txn_pool_size; ++i) {
    free_txns_.push_back(cfg_.txn_pool_size - 1 - i);
  }
}

void ControllerBase::SubmitRead(Addr addr, std::uint64_t tag, Cycle now) {
  (void)now;
  REDCACHE_CHECK(CanAcceptRead(), "read submitted to a full input queue");
  input_.push_back({BlockAlign(addr), tag, false});
  reads_seen_++;
  if (acct_ != nullptr) acct_->OnCtrlRead(addr);
}

void ControllerBase::SubmitWriteback(Addr addr, Cycle now) {
  (void)now;
  REDCACHE_CHECK(CanAcceptWriteback(),
                 "writeback submitted to a full input queue");
  input_.push_back({BlockAlign(addr), 0, true});
  writebacks_seen_++;
  if (acct_ != nullptr) acct_->OnCtrlWriteback(addr);
}

ControllerBase::Txn& ControllerBase::AllocTxn(const Input& in) {
  REDCACHE_CHECK(!free_txns_.empty(), "transaction pool exhausted");
  const std::uint32_t idx = free_txns_.back();
  free_txns_.pop_back();
  Txn& t = txns_[idx];
  t = Txn{};
  t.addr = in.addr;
  t.tag = in.tag;
  t.is_writeback = in.is_writeback;
  t.active = true;
  active_txns_++;
  return t;
}

void ControllerBase::FreeTxn(Txn& txn) {
  REDCACHE_CHECK(txn.active, "double free of a transaction");
  txn.active = false;
  active_txns_--;
  free_txns_.push_back(TxnIndex(txn));
}

void ControllerBase::CompleteRead(Txn& txn, Cycle done) {
  read_completions_.push_back({txn.addr, txn.tag, done});
  if (acct_ != nullptr) acct_->OnReadComplete(txn.addr, done);
}

void ControllerBase::SendHbm(std::uint32_t txn, Addr addr, bool is_write,
                             Cycle now, std::uint32_t bursts) {
  REDCACHE_CHECK(hbm_ != nullptr, "HBM operation on a controller without HBM");
  std::uint16_t tenant = 0;
  if (acct_ != nullptr) {
    tenant = ResolveTenant(txn, addr);
    // Attribute device bytes at Send time, when the causing tenant is in
    // hand: every queued op eventually transfers exactly bursts * (burst +
    // sideband) bytes, so cumulative totals match the device counters
    // (per-epoch series may lead them by the queueing delay).
    const DramGeometry& geo = hbm_->config().geometry;
    acct_->OnDeviceBytes(
        true, tenant,
        std::uint64_t{bursts} * (geo.burst_bytes + geo.sideband_bytes));
  }
  const std::uint32_t channel = hbm_->ChannelOf(addr);
  if (deferred_hbm_.empty() && hbm_->ChannelCanAccept(channel)) {
    hbm_->Enqueue(addr, is_write, now, txn, bursts, tenant);
  } else {
    deferred_hbm_.push_back({addr, is_write, bursts, txn, channel, tenant});
  }
}

void ControllerBase::SendMm(std::uint32_t txn, Addr addr, bool is_write,
                            Cycle now, std::uint32_t bursts) {
  std::uint16_t tenant = 0;
  if (acct_ != nullptr) {
    tenant = ResolveTenant(txn, addr);
    const DramGeometry& geo = mm_->config().geometry;
    acct_->OnDeviceBytes(
        false, tenant,
        std::uint64_t{bursts} * (geo.burst_bytes + geo.sideband_bytes));
  }
  const std::uint32_t channel = mm_->ChannelOf(addr);
  if (deferred_mm_.empty() && mm_->ChannelCanAccept(channel)) {
    mm_->Enqueue(addr, is_write, now, txn, bursts, tenant);
  } else {
    deferred_mm_.push_back({addr, is_write, bursts, txn, channel, tenant});
  }
}

void ControllerBase::PumpDeferred(Cycle now) {
  // Scan a small window so one blocked channel does not stall the rest.
  constexpr std::size_t kWindow = 8;
  auto pump = [&](std::deque<DevOp>& q, DramSystem& dev) {
    for (std::size_t i = 0; i < q.size() && i < kWindow;) {
      if (dev.ChannelCanAccept(q[i].channel)) {
        dev.Enqueue(q[i].addr, q[i].is_write, now, q[i].txn, q[i].bursts,
                    q[i].tenant);
        q.erase(q.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
  };
  if (hbm_ != nullptr && !deferred_hbm_.empty()) pump(deferred_hbm_, *hbm_);
  if (!deferred_mm_.empty()) pump(deferred_mm_, *mm_);
}

void ControllerBase::RouteCompletions(DramSystem& dev, bool from_hbm,
                                      Cycle now) {
  auto& list = dev.completions();
  for (const DramCompletion& c : list) {
    if (c.user_tag == kPostedOp) continue;
    Txn& t = txns_[static_cast<std::uint32_t>(c.user_tag)];
    REDCACHE_CHECK(t.active, "device completion for a freed transaction");
    // Posted ops issued while handling this completion (fills, victim
    // writebacks) inherit the triggering transaction's tenant.
    TenantScope scope(*this, t.addr);
    OnDeviceComplete(t, from_hbm, c, now);
  }
  list.clear();
}

Cycle ControllerBase::Tick(Cycle now) {
  // Every step below is skipped inline when it has nothing to do; the
  // order of the steps is the behaviour.
  if (HasDeferred()) PumpDeferred(now);
  if (hbm_ != nullptr) hbm_->Tick(now);
  mm_->Tick(now);
  if (hbm_ != nullptr && !hbm_->completions().empty()) {
    RouteCompletions(*hbm_, true, now);
  }
  if (!mm_->completions().empty()) RouteCompletions(*mm_, false, now);
  PolicyTick(now);
  if (HasDeferred()) PumpDeferred(now);
  while (!input_.empty() && HasFreeTxn()) {
    const Input in = input_.front();
    input_.pop_front();
    Txn& t = AllocTxn(in);
    TenantScope scope(*this, t.addr);
    StartTxn(t, now);
  }
  if (HasDeferred()) PumpDeferred(now);
  return NextEventHint(now);
}

Cycle ControllerBase::NextEventHint(Cycle now) const {
  Cycle next = kNeverWake;
  if (hbm_ != nullptr) next = std::min(next, hbm_->NextEventHint(now));
  next = std::min(next, mm_->NextEventHint(now));
  // Fresh input needs a prompt tick only while transaction slots are free;
  // deferred device ops can only progress on device events, which the
  // device hints above already cover.
  if (!input_.empty() && !free_txns_.empty()) {
    next = std::min(next, now + 1);
  }
  // Policy-registered work (e.g. parked RCU updates waiting for an idle
  // channel) is not visible through any device or input term.
  next = std::min(next, PolicyWake(now));
  return next;
}

bool ControllerBase::Idle() const {
  return input_.empty() && active_txns_ == 0 && deferred_hbm_.empty() &&
         deferred_mm_.empty() && (hbm_ == nullptr || hbm_->inflight() == 0) &&
         mm_->inflight() == 0;
}

void ControllerBase::SampleTelemetry(StatSet& out) const {
  out.Counter("gauge.input_queue_depth") = input_.size();
  out.Counter("gauge.active_txns") = active_txns_;
  out.Counter("gauge.deferred_device_ops") =
      deferred_hbm_.size() + deferred_mm_.size();
  const auto per_channel = [&out](const DramSystem& dev) {
    const std::string& dev_name = dev.config().name;
    for (std::uint32_t c = 0; c < dev.num_channels(); ++c) {
      const ChannelCounters& cc = dev.channel_counters(c);
      const std::string prefix =
          dev_name + ".chan" + std::to_string(c) + ".";
      out.Counter(prefix + "data_busy_cycles") = cc.data_busy_cycles;
      out.Counter(prefix + "bytes_transferred") = cc.bytes_transferred;
      out.Counter(prefix + "activates") = cc.activates;
      out.Counter(prefix + "row_hits") = cc.row_hits;
      out.Counter(prefix + "turnarounds") =
          cc.turnarounds_rw + cc.turnarounds_wr;
      out.Counter(prefix + "queue_wait_cycles") = cc.queue_wait_cycles;
    }
  };
  if (hbm_ != nullptr) per_channel(*hbm_);
  per_channel(*mm_);
}

template <class Self, class Ar>
void ControllerBase::Io(Self& s, Ar& a) {
  a.Section("ctrl");
  a.Records(s.input_, 17, [&a](auto& in) {
    a.U64(in.addr);
    a.U64(in.tag);
    a.Bool(in.is_writeback);
  });
  a.Records(
      s.txns_, 30,
      [&a](auto& t) {
        a.U64(t.addr);
        a.U64(t.tag);
        a.Bool(t.is_writeback);
        a.I64(t.state);
        a.U64(t.aux_addr);
        a.U32(t.aux);
        a.Bool(t.active);
      },
      "transaction pool size mismatch");
  a.U64Seq(s.free_txns_);
  const auto dev_op = [&a](auto& op) {
    a.U64(op.addr);
    a.Bool(op.is_write);
    a.U32(op.bursts);
    a.U32(op.txn);
    a.U32(op.channel);
    a.U32(op.tenant);
  };
  a.Records(s.deferred_hbm_, 25, dev_op);
  a.Records(s.deferred_mm_, 25, dev_op);
  a.Records(s.read_completions_, 24, [&a](auto& c) {
    a.U64(c.addr);
    a.U64(c.tag);
    a.U64(c.done);
  });
  a.U64(s.active_txns_);
  a.U64(s.reads_seen_);
  a.U64(s.writebacks_seen_);
  if (s.hbm_ != nullptr) a.Part(*s.hbm_);
  a.Part(*s.mm_);
}

void ControllerBase::Snapshot(ser::Writer& w) const {
  Io(*this, w);
  SnapshotPolicy(w);
}

void ControllerBase::Restore(ser::Reader& r) {
  Io(*this, r);
  RestorePolicy(r);
}

void ControllerBase::ExportStats(StatSet& stats) const {
  if (hbm_ != nullptr) hbm_->ExportStats(stats);
  mm_->ExportStats(stats);
  stats.Counter("ctrl.reads") = reads_seen_;
  stats.Counter("ctrl.writebacks") = writebacks_seen_;
  ExportOwnStats(stats);
}

}  // namespace redcache
