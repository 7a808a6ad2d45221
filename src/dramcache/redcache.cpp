#include "dramcache/redcache.hpp"

#include <bit>
#include <cassert>

#include "obs/trace_macros.hpp"

namespace redcache {

namespace {
/// Policy-decision trace event (policy device renders on one track).
obs::TraceEvent PolicyEvent(Cycle now, obs::TraceEventType type, Addr addr,
                            std::uint64_t arg = 0) {
  return obs::TraceEvent{.cycle = now,
                         .type = type,
                         .device = obs::kTraceDevicePolicy,
                         .addr = addr,
                         .arg = arg};
}
}  // namespace

namespace {
enum State {
  kProbe = 0,    ///< waiting for the TAD probe read (aux = probed way)
  kMissFetch,    ///< waiting for main memory after a probe miss
  kDirectFetch,  ///< bypassed read served by main memory
  kWayFetch,     ///< hit off the probed way: its data burst in flight
};

/// Latency of a read served out of the RCU data RAM (SRAM on the
/// controller die; a handful of CPU cycles).
constexpr Cycle kRcuServeLatency = 6;

/// `o` with the config's alpha / gamma pins applied.
RedCacheOptions WithPins(RedCacheOptions o, const MemControllerConfig& cfg) {
  if (cfg.alpha_pin) {
    o.alpha.initial_alpha = o.alpha.min_alpha = o.alpha.max_alpha =
        *cfg.alpha_pin;
    o.alpha.adaptive = false;
  }
  if (cfg.gamma_pin) {
    o.gamma.initial_gamma = o.gamma.min_gamma = o.gamma.max_gamma =
        *cfg.gamma_pin;
  }
  return o;
}
}  // namespace

RedCacheController::RedCacheController(MemControllerConfig cfg,
                                       RedCacheOptions options,
                                       const char* display_name,
                                       std::uint32_t ways)
    : ControllerBase((cfg.has_hbm = true, cfg)),
      opt_(WithPins(options, cfg)),
      display_name_(display_name),
      tags_(cfg.hbm.geometry.capacity_bytes, /*line_blocks=*/1, ways,
            cfg.hbm.geometry.channels),
      alpha_(opt_.alpha),
      gamma_(opt_.gamma),
      rcu_(opt_.rcu_entries, cfg.hbm.geometry.channels),
      recent_invalidations_(16384, ~Addr{0}) {
  assert(cfg.line_blocks == 1 && "RedCache is a fine-grained (64 B) cache");
}

void RedCacheController::NoteGammaInvalidation(Addr block) {
  recent_invalidations_[BlockIndex(block) % recent_invalidations_.size()] =
      block;
}

void RedCacheController::CheckPrematureInvalidation(Addr block) {
  Addr& slot =
      recent_invalidations_[BlockIndex(block) % recent_invalidations_.size()];
  if (slot == block) {
    slot = ~Addr{0};
    gamma_.OnPrematureInvalidation();
  }
}

void RedCacheController::InvalidateBlock(std::uint64_t set, std::uint32_t way,
                                         bool lifetime_sample) {
  TagStore::Line& line = tags_.line(set, way);
  if (!line.write_filled) {
    // Alpha's feedback judges demand admissions only; trailing write fills
    // would otherwise dominate the dead-fill statistic and push alpha up.
    epoch_departures_++;
    if (line.r_count == 0) epoch_dead_departures_++;
  }
  if (lifetime_sample && opt_.gamma_enabled && line.r_count > 0) {
    gamma_.OnLifetimeSample(line.r_count);
  }
  departures_++;
  line.valid = false;
  line.dirty = false;
}

void RedCacheController::Fill(Addr addr, bool dirty, Cycle now) {
  const std::uint64_t set = tags_.SetOf(addr);
  const std::uint32_t way = tags_.VictimWay(set);
  TagStore::Line& line = tags_.line(set, way);
  if (line.valid) {
    const Addr victim = tags_.VictimAddr(set, way);
    rcu_.Remove(victim);
    if (line.dirty && !opt_.testing_drop_victim_writeback) {
      // Direct-mapped, the victim's data came back with the probe read. With
      // ways > 1 the probe returned the MRU way, never the LRU victim: read
      // the victim out with one more burst.
      if (tags_.ways() > 1) {
        SendHbm(kPostedOp, tags_.HbmAddr(set, victim, way),
                /*is_write=*/false, now);
      }
      NotifyVictimWriteback(victim);
      REDCACHE_TRACE_EVENT(
          PolicyEvent(now, obs::TraceEventType::kVictimWriteback, victim));
      SendMm(kPostedOp, victim, /*is_write=*/true, now);
      victim_writebacks_++;
    } else {
      NotifyInvalidate(victim);
    }
    InvalidateBlock(set, way, /*lifetime_sample=*/true);
  }
  NotifyFill(addr, dirty);
  line.valid = true;
  line.dirty = dirty;
  line.write_filled = dirty;  // fills carrying store data arrive dirty
  line.tag = tags_.TagOf(addr);
  line.r_count = 0;
  tags_.Touch(set, way);
  SendHbm(kPostedOp, tags_.HbmAddr(set, addr, way), /*is_write=*/true, now);
  fills_++;
  REDCACHE_TRACE_EVENT(
      PolicyEvent(now, obs::TraceEventType::kFill, addr, dirty ? 1 : 0));
}

void RedCacheController::RouteToMainMemory(Txn& txn, Cycle now) {
  if (txn.is_writeback) {
    NotifyMmWrite(txn.addr);
    SendMm(kPostedOp, txn.addr, /*is_write=*/true, now);
    FreeTxn(txn);
    return;
  }
  txn.state = kDirectFetch;
  SendMm(TxnIndex(txn), txn.addr, /*is_write=*/false, now);
}

void RedCacheController::StartTxn(Txn& txn, Cycle now) {
  epoch_request_count_++;
  MaybeRetune(now);

  // --- Alpha counting: cold pages never touch the HBM cache. -------------
  if (opt_.alpha_enabled && !alpha_.OnRequest(txn.addr)) {
    // A copy installed while the page was still hot must not go stale.
    // Presence comes from the controller-side tag mirror, like the refresh
    // bypass below.
    const std::uint64_t cold_set = tags_.SetOf(txn.addr);
    const std::uint32_t cold_way = tags_.FindWay(txn.addr);
    const bool present = cold_way != tags_.ways();
    if (txn.is_writeback && present) {
      // Main memory receives the newest data; the cached copy is stale now.
      rcu_.Remove(txn.addr);
      NotifyMmWrite(txn.addr);
      InvalidateBlock(cold_set, cold_way, /*lifetime_sample=*/false);
      NotifyInvalidate(txn.addr);
      alpha_bypasses_++;
      REDCACHE_TRACE_EVENT(PolicyEvent(
          now, obs::TraceEventType::kAlphaBypass, txn.addr, alpha_.alpha()));
      SendMm(kPostedOp, txn.addr, /*is_write=*/true, now);
      FreeTxn(txn);
      return;
    }
    if (txn.is_writeback || !present ||
        !tags_.line(cold_set, cold_way).dirty) {
      alpha_bypasses_++;
      REDCACHE_TRACE_EVENT(PolicyEvent(
          now, obs::TraceEventType::kAlphaBypass, txn.addr, alpha_.alpha()));
      RouteToMainMemory(txn, now);
      return;
    }
    // Dirty resident copy: only the cache has the newest data — serve it
    // through the normal probe path despite the cold page.
  }

  const std::uint64_t set = tags_.SetOf(txn.addr);

  // --- RCU block cache: recently read blocks are still on the die. -------
  if (opt_.update_mode == RedCacheOptions::UpdateMode::kRcu &&
      !txn.is_writeback && rcu_.Contains(txn.addr)) {
    // Every departure removes the block's parked update, so it is resident.
    const std::uint32_t way = tags_.FindWay(txn.addr);
    assert(way != tags_.ways());
    rcu_served_reads_++;
    hits_++;
    read_hits_++;
    const std::uint32_t r = tags_.BumpRcount(set, way);
    tags_.Touch(set, way);
    if (opt_.gamma_enabled) gamma_.OnHit(r);
    rcu_.Insert(txn.addr,
                hbm_->mapper().Map(tags_.HbmAddr(set, txn.addr, way)));
    NotifyServeRead(txn, ServeSource::kRcuRam);
    REDCACHE_TRACE_EVENT(
        PolicyEvent(now, obs::TraceEventType::kRcuServe, txn.addr, r));
    CompleteRead(txn, now + kRcuServeLatency);
    FreeTxn(txn);
    return;
  }

  // --- Bypass-on-refresh: don't queue behind a refreshing rank (only
  // worthwhile while the off-chip channel has headroom). ------------------
  if (opt_.bypass_on_refresh &&
      hbm_->Refreshing(tags_.HbmAddr(set, txn.addr), now) &&
      mm_->ChannelCanAccept(mm_->ChannelOf(txn.addr))) {
    const std::uint32_t way = tags_.FindWay(txn.addr);
    const bool present = way != tags_.ways();
    if (txn.is_writeback) {
      // Main memory receives the newest data; any cached copy is stale now.
      NotifyMmWrite(txn.addr);
      if (present) {
        rcu_.Remove(txn.addr);
        InvalidateBlock(set, way, /*lifetime_sample=*/false);
        NotifyInvalidate(txn.addr);
      }
      refresh_bypasses_++;
      REDCACHE_TRACE_EVENT(
          PolicyEvent(now, obs::TraceEventType::kRefreshBypass, txn.addr));
      SendMm(kPostedOp, txn.addr, /*is_write=*/true, now);
      FreeTxn(txn);
      return;
    }
    if (!present || !tags_.line(set, way).dirty) {
      // Clean or absent: the main-memory copy is current.
      refresh_bypasses_++;
      REDCACHE_TRACE_EVENT(
          PolicyEvent(now, obs::TraceEventType::kRefreshBypass, txn.addr));
      txn.state = kDirectFetch;
      SendMm(TxnIndex(txn), txn.addr, /*is_write=*/false, now);
      return;
    }
    // Dirty read hit: only the HBM copy is valid — fall through and wait.
  }

  txn.state = kProbe;
  txn.aux = tags_.MruWay(set);  // the way whose data the probe returns
  SendHbm(TxnIndex(txn), tags_.HbmAddr(set, txn.addr, txn.aux),
          /*is_write=*/false, now);
}

void RedCacheController::RecordReadHitUpdate(Addr block, std::uint64_t set,
                                             std::uint32_t way, Cycle now) {
  switch (opt_.update_mode) {
    case RedCacheOptions::UpdateMode::kInSitu:
      insitu_updates_++;
      return;
    case RedCacheOptions::UpdateMode::kImmediate:
      immediate_updates_++;
      SendHbm(kPostedOp, tags_.HbmAddr(set, block, way), /*is_write=*/true,
              now);
      return;
    case RedCacheOptions::UpdateMode::kRcu: {
      const auto evicted = rcu_.Insert(
          block, hbm_->mapper().Map(tags_.HbmAddr(set, block, way)));
      FlushRcuEntries(evicted, now, obs::kRcuFlushCapacity);
      return;
    }
  }
}

void RedCacheController::FlushRcuEntries(
    const std::vector<RcuManager::Entry>& entries, Cycle now,
    std::uint64_t reason) {
  for (const RcuManager::Entry& e : entries) {
    const std::uint64_t set = tags_.SetOf(e.block);
    // A merged update whose block left the cache after it matched still
    // drains; it lands in its set's first way.
    const std::uint32_t found = tags_.FindWay(e.block);
    const std::uint32_t way = found == tags_.ways() ? 0 : found;
    REDCACHE_TRACE_EVENT(
        PolicyEvent(now, obs::TraceEventType::kRcuFlush, e.block, reason));
    // The drain write targets a remapped set address; only `e.block` (the
    // CPU-visible block) identifies the tenant whose update is draining.
    TenantScope scope(*this, e.block);
    CountRcuDrain(e.block);
    SendHbm(kPostedOp, tags_.HbmAddr(set, e.block, way), /*is_write=*/true,
            now);
  }
}

void RedCacheController::HandleProbeResult(Txn& txn, const DramCompletion& c,
                                           Cycle now) {
  const std::uint64_t set = tags_.SetOf(txn.addr);
  const std::uint32_t way = tags_.FindWay(txn.addr);

  if (way != tags_.ways()) {
    hits_++;
    const std::uint32_t r = tags_.BumpRcount(set, way);
    tags_.Touch(set, way);
    if (opt_.gamma_enabled) gamma_.OnHit(r);

    if (txn.is_writeback) {
      write_hits_++;
      if (opt_.gamma_enabled && gamma_.IsLastWrite(r)) {
        // Last write: invalidate and route the data off-package directly,
        // saving the HBM write, the future victim writeback and a bus
        // turnaround.
        gamma_invalidations_++;
        REDCACHE_TRACE_EVENT(PolicyEvent(
            now, obs::TraceEventType::kGammaInvalidate, txn.addr, r));
        rcu_.Remove(txn.addr);
        NotifyMmWrite(txn.addr);
        InvalidateBlock(set, way, /*lifetime_sample=*/false);
        NotifyInvalidate(txn.addr);
        NoteGammaInvalidation(txn.addr);
        SendMm(kPostedOp, txn.addr, /*is_write=*/true, now);
      } else {
        tags_.line(set, way).dirty = true;
        // A parked r-count update (and its RAM block copy) is superseded by
        // the write: drop it, or the RCU block cache would serve pre-write
        // data to the next read. The refreshed r-count rides inside the
        // data write's tag/ECC bits.
        rcu_.Remove(txn.addr);
        NotifyCacheWrite(txn.addr);
        SendHbm(kPostedOp, tags_.HbmAddr(set, txn.addr, way),
                /*is_write=*/true, now);
      }
      FreeTxn(txn);
      return;
    }

    read_hits_++;
    NotifyServeRead(txn, ServeSource::kCache);
    if (way == txn.aux) {
      CompleteRead(txn, c.done);
      RecordReadHitUpdate(txn.addr, set, way, now);
      FreeTxn(txn);
      return;
    }
    // The probe returned another way's data. The hit is decided here; one
    // more burst fetches this way's block before the read completes.
    way_fetches_++;
    txn.state = kWayFetch;
    SendHbm(TxnIndex(txn), tags_.HbmAddr(set, txn.addr, way),
            /*is_write=*/false, now);
    RecordReadHitUpdate(txn.addr, set, way, now);
    return;
  }

  misses_++;
  if (opt_.gamma_enabled) CheckPrematureInvalidation(txn.addr);
  if (txn.is_writeback) {
    const TagStore::Line& victim = tags_.line(set, tags_.VictimWay(set));
    if (victim.valid && victim.dirty) {
      // Fig. 7: miss with a dirty resident — send the write to main memory
      // directly; no fill, no victim round trip.
      dirty_miss_bypasses_++;
      write_miss_bypasses_++;
      NotifyMmWrite(txn.addr);
      SendMm(kPostedOp, txn.addr, /*is_write=*/true, now);
    } else {
      Fill(txn.addr, /*dirty=*/true, now);
    }
    FreeTxn(txn);
    return;
  }
  txn.state = kMissFetch;
  SendMm(TxnIndex(txn), txn.addr, /*is_write=*/false, now);
}

void RedCacheController::OnDeviceComplete(Txn& txn, bool /*from_hbm*/,
                                          const DramCompletion& c, Cycle now) {
  switch (txn.state) {
    case kProbe:
      HandleProbeResult(txn, c, now);
      return;
    case kMissFetch:
      NotifyServeRead(txn, ServeSource::kMainMemory);
      CompleteRead(txn, c.done);
      Fill(txn.addr, /*dirty=*/false, now);
      FreeTxn(txn);
      return;
    case kDirectFetch:
      NotifyServeRead(txn, ServeSource::kMainMemory);
      CompleteRead(txn, c.done);
      FreeTxn(txn);
      return;
    case kWayFetch:
      CompleteRead(txn, c.done);
      FreeTxn(txn);
      return;
  }
}

void RedCacheController::OnColumnCommand(const IssuedColumnCommand& cmd) {
  if (opt_.update_mode != RedCacheOptions::UpdateMode::kRcu || !cmd.is_write) {
    return;
  }
  // Condition 1: a data write to this (channel, rank, bank, row) just
  // issued; parked updates for the same row can piggyback at tCCD cost.
  auto matches = rcu_.MatchIndex(cmd.loc);
  pending_rcu_flushes_.insert(pending_rcu_flushes_.end(), matches.begin(),
                              matches.end());
}

void RedCacheController::PolicyTick(Cycle now) {
  if (opt_.update_mode != RedCacheOptions::UpdateMode::kRcu) return;
  if (!pending_rcu_flushes_.empty()) {
    FlushRcuEntries(pending_rcu_flushes_, now, obs::kRcuFlushMerged);
    pending_rcu_flushes_.clear();
  }
  // Condition 2: drain parked updates into idle channels, in channel
  // order. The mask is re-read after each drain, which may fill a queue.
  for (std::uint32_t ch = 0;;) {
    const std::uint64_t idle = IdleWithParked() >> ch;
    if (idle == 0) break;
    ch += static_cast<std::uint32_t>(std::countr_zero(idle));
    FlushRcuEntries(rcu_.PopChannel(ch), now, obs::kRcuFlushIdle);
    if (++ch == 64) break;
  }
}

Cycle RedCacheController::PolicyWake(Cycle now) const {
  if (opt_.update_mode != RedCacheOptions::UpdateMode::kRcu) {
    return kNeverWake;
  }
  // Updates parked after this tick's drain (RCU-served reads insert during
  // admission) flush on the very next cycle if their own channel is idle.
  // An update parked for a busy channel needs no wake: that channel's queue
  // empties only inside its own device tick, which runs in the same
  // ControllerBase::Tick before PolicyTick and is covered by the device
  // hint. Merged flushes (pending_rcu_flushes_) never persist across ticks
  // — the observer fills them during the device tick and PolicyTick drains
  // them — but guard them anyway so a future reordering cannot silently
  // strand one.
  if (!pending_rcu_flushes_.empty() || IdleWithParked() != 0) return now + 1;
  return kNeverWake;
}

void RedCacheController::MaybeRetune(Cycle now) {
  if (epoch_request_count_ < opt_.epoch_requests) return;
  epoch_request_count_ = 0;
  alpha_.AdvanceEpoch();
  if (opt_.alpha_enabled && epoch_departures_ > 0) {
    const double dead_fraction =
        static_cast<double>(epoch_dead_departures_) /
        static_cast<double>(epoch_departures_);
    alpha_.Retune(dead_fraction);
    REDCACHE_TRACE_EVENT(PolicyEvent(now, obs::TraceEventType::kRetune,
                                     /*addr=*/0, alpha_.alpha()));
  }
  epoch_departures_ = 0;
  epoch_dead_departures_ = 0;
}

void RedCacheController::SampleTelemetry(StatSet& out) const {
  ControllerBase::SampleTelemetry(out);
  out.Counter("gauge.gamma") = gamma_.gamma();
  out.Counter("gauge.alpha") = alpha_.alpha();
  out.Counter("gauge.alpha_pages_hot") = alpha_.pages_hot();
  out.Counter("gauge.alpha_pages_tracked") = alpha_.pages_tracked();
  out.Counter("gauge.rcu_depth") = rcu_.size();
  out.Counter("gauge.resident_lines") = tags_.ValidLines();
}

void RedCacheController::ExportOwnStats(StatSet& stats) const {
  stats.Counter("ctrl.cache_hits") = hits_;
  stats.Counter("ctrl.cache_misses") = misses_;
  stats.Counter("ctrl.read_hits") = read_hits_;
  stats.Counter("ctrl.write_hits") = write_hits_;
  stats.Counter("ctrl.fills") = fills_;
  stats.Counter("ctrl.victim_writebacks") = victim_writebacks_;
  stats.Counter("ctrl.evictions") = departures_;
  stats.Counter("ctrl.resident_lines") = tags_.ValidLines();
  stats.Counter("ctrl.alpha_bypasses") = alpha_bypasses_;
  stats.Counter("ctrl.refresh_bypasses") = refresh_bypasses_;
  stats.Counter("ctrl.gamma_invalidations") = gamma_invalidations_;
  stats.Counter("ctrl.dirty_miss_bypasses") = dirty_miss_bypasses_;
  stats.Counter("ctrl.write_miss_bypasses") = write_miss_bypasses_;
  stats.Counter("ctrl.rcu_served_reads") = rcu_served_reads_;
  if (tags_.ways() > 1) {
    stats.Counter("ctrl.non_mru_hits") = way_fetches_;
    stats.Counter("ctrl.mru_hits") =
        read_hits_ - rcu_served_reads_ - way_fetches_;
  }
  stats.Counter("ctrl.immediate_updates") = immediate_updates_;
  stats.Counter("ctrl.insitu_updates") = insitu_updates_;
  stats.Counter("ctrl.alpha_lookups") = alpha_.lookups();
  stats.Counter("ctrl.alpha_buffer_misses") = alpha_.buffer_misses();
  stats.Counter("ctrl.alpha_value") = alpha_.alpha();
  stats.Counter("ctrl.alpha_pages_hot") = alpha_.pages_hot();
  stats.Counter("ctrl.alpha_pages_tracked") = alpha_.pages_tracked();
  stats.Counter("ctrl.gamma_value") = gamma_.gamma();
  stats.Counter("ctrl.gamma_updates") = gamma_.updates();
  stats.Counter("ctrl.gamma_premature") = gamma_.premature_invalidations();
  stats.Counter("ctrl.rcu_inserts") = rcu_.inserts();
  stats.Counter("ctrl.rcu_searches") = rcu_.searches();
  stats.Counter("ctrl.rcu_block_hits") = rcu_.block_hits();
  stats.Counter("ctrl.rcu_merged_flushes") = rcu_.merged_flushes();
  stats.Counter("ctrl.rcu_idle_flushes") = rcu_.idle_flushes();
  stats.Counter("ctrl.rcu_capacity_flushes") = rcu_.capacity_flushes();
  stats.Counter("ctrl.rcu_data_accesses") =
      rcu_.inserts() + rcu_.block_hits() + rcu_.merged_flushes() +
      rcu_.idle_flushes() + rcu_.capacity_flushes();
}

template <class Self, class Ar>
void RedCacheController::Io(Self& s, Ar& a) {
  a.Section("redc");
  a.Part(s.tags_);
  a.Part(s.alpha_);
  a.Part(s.gamma_);
  a.Part(s.rcu_);
  a.Records(s.pending_rcu_flushes_, 32,
            [&a](auto& e) { RcuManager::IoEntry(e, a); });
  a.U64(s.epoch_request_count_);
  a.U64(s.epoch_departures_);
  a.U64(s.epoch_dead_departures_);
  a.U64Seq(s.recent_invalidations_, "invalidation signature size mismatch");
  for (auto* counter :
       {&s.hits_, &s.misses_, &s.read_hits_, &s.write_hits_, &s.fills_,
        &s.victim_writebacks_, &s.departures_, &s.alpha_bypasses_,
        &s.refresh_bypasses_, &s.gamma_invalidations_, &s.dirty_miss_bypasses_,
        &s.write_miss_bypasses_, &s.rcu_served_reads_, &s.immediate_updates_,
        &s.insitu_updates_}) {
    a.U64(*counter);
  }
  if (s.tags_.ways() > 1) a.U64(s.way_fetches_);
}

void RedCacheController::SnapshotPolicy(ser::Writer& w) const {
  Io(*this, w);
}
void RedCacheController::RestorePolicy(ser::Reader& r) { Io(*this, r); }

}  // namespace redcache
