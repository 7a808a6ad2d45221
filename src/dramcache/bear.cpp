#include "dramcache/bear.hpp"

#include <algorithm>

namespace redcache {

namespace {
enum State {
  kProbe = 0,      ///< waiting for the TAD read (matches AlloyController)
  kMissFetch,      ///< waiting for main memory after a probe miss
  kDirectFetch,    ///< DCP said absent: main-memory read, no probe
};
}  // namespace

PresenceFilter::PresenceFilter(std::size_t buckets, std::uint32_t hashes)
    : counters_(buckets < 64 ? 64 : buckets), hashes_(hashes) {}

std::size_t PresenceFilter::Slot(Addr line_addr, std::uint32_t i) const {
  return static_cast<std::size_t>(Mix64(line_addr * 2654435761u + i * 40503u)) %
         counters_.size();
}

void PresenceFilter::Add(Addr line_addr) {
  for (std::uint32_t i = 0; i < hashes_; ++i) {
    std::uint8_t& c = counters_[Slot(line_addr, i)];
    if (c != 0xff) ++c;
  }
}

void PresenceFilter::Remove(Addr line_addr) {
  for (std::uint32_t i = 0; i < hashes_; ++i) {
    std::uint8_t& c = counters_[Slot(line_addr, i)];
    if (c != 0) --c;
  }
}

bool PresenceFilter::MayContain(Addr line_addr) const {
  checks_++;
  for (std::uint32_t i = 0; i < hashes_; ++i) {
    if (counters_[Slot(line_addr, i)] == 0) {
      absences_++;
      return false;
    }
  }
  return true;
}

BearController::BearController(MemControllerConfig cfg)
    : AlloyController(cfg),
      presence_(static_cast<std::size_t>(
          tags_.num_sets() * 8)),  // ~8 counters per line: low FP rate
      rng_(0xbea7bea7bea7bea7ULL) {}

bool BearController::ShouldFill(std::uint64_t set) {
  if (SampledSet(set)) return true;
  return rng_.Chance(fill_probability_);
}

void BearController::RecordOutcome(std::uint64_t set, bool hit) {
  if (SampledSet(set)) {
    sample_accesses_++;
    sample_hits_ += hit ? 1 : 0;
  } else {
    other_accesses_++;
    other_hits_ += hit ? 1 : 0;
  }
  MaybeRetuneBypass();
}

void BearController::MaybeRetuneBypass() {
  constexpr std::uint64_t kEpoch = 16384;
  if (sample_accesses_ + other_accesses_ < kEpoch) return;
  if (sample_accesses_ > 64 && other_accesses_ > 64) {
    const double sampled = static_cast<double>(sample_hits_) /
                           static_cast<double>(sample_accesses_);
    const double rest = static_cast<double>(other_hits_) /
                        static_cast<double>(other_accesses_);
    // Always-fill sets hitting notably more means the bypassed fills were
    // worth installing: raise the fill fraction, else fall back toward
    // BEAR's default 90% bypass.
    if (sampled > rest + 0.02) {
      fill_probability_ = std::min(1.0, fill_probability_ + 0.15);
    } else {
      fill_probability_ = std::max(0.10, fill_probability_ - 0.15);
    }
    bypass_retunes_++;
  }
  sample_hits_ = sample_accesses_ = 0;
  other_hits_ = other_accesses_ = 0;
}

void BearController::FillTracked(Addr addr, bool dirty, Cycle now) {
  const std::uint64_t set = tags_.SetOf(addr);
  const TagStore::Line& line = tags_.line(set);
  if (line.valid) presence_.Remove(tags_.VictimAddr(set) / tags_.line_bytes());
  Fill(addr, dirty, now);
  presence_.Add(addr / tags_.line_bytes());
}

void BearController::StartTxn(Txn& txn, Cycle now) {
  const Addr line_addr = txn.addr / tags_.line_bytes();
  if (!presence_.MayContain(line_addr)) {
    // DCP: definitely not cached — skip the probe.
    probe_skips_++;
    misses_++;
    RecordOutcome(tags_.SetOf(txn.addr), /*hit=*/false);
    if (txn.is_writeback) {
      write_miss_bypasses_++;
      NotifyMmWrite(txn.addr);
      SendMm(kPostedOp, txn.addr, /*is_write=*/true, now);
      FreeTxn(txn);
      return;
    }
    txn.state = kDirectFetch;
    SendMm(TxnIndex(txn), txn.addr, /*is_write=*/false, now);
    return;
  }
  txn.state = kProbe;
  const std::uint64_t set = tags_.SetOf(txn.addr);
  SendHbm(TxnIndex(txn), tags_.HbmAddr(set, txn.addr), /*is_write=*/false,
          now);
}

void BearController::OnDeviceComplete(Txn& txn, bool /*from_hbm*/,
                                      const DramCompletion& c, Cycle now) {
  const std::uint64_t set = tags_.SetOf(txn.addr);
  switch (txn.state) {
    case kProbe: {
      RecordOutcome(set, tags_.Hit(txn.addr));
      if (tags_.Hit(txn.addr)) {
        hits_++;
        if (txn.is_writeback) {
          write_hits_++;
          tags_.line(set).dirty = true;
          NotifyCacheWrite(txn.addr);
          SendHbm(kPostedOp, tags_.HbmAddr(set, txn.addr), /*is_write=*/true,
                  now);
        } else {
          read_hits_++;
          NotifyServeRead(txn, ServeSource::kCache);
          CompleteRead(txn, c.done);
        }
        FreeTxn(txn);
        return;
      }
      misses_++;
      if (txn.is_writeback) {
        // Write-miss bypass (probe was a DCP false positive).
        write_miss_bypasses_++;
        NotifyMmWrite(txn.addr);
        SendMm(kPostedOp, txn.addr, /*is_write=*/true, now);
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
      if (ShouldFill(set)) {
        FillTracked(txn.addr, /*dirty=*/false, now);
      } else {
        fill_bypasses_++;
      }
      FreeTxn(txn);
      return;
    }
    case kDirectFetch: {
      NotifyServeRead(txn, ServeSource::kMainMemory);
      CompleteRead(txn, c.done);
      if (ShouldFill(set)) {
        // Filling after a skipped probe needs the victim TAD read first.
        SendHbm(kPostedOp, tags_.HbmAddr(set, txn.addr), /*is_write=*/false,
                now);
        FillTracked(txn.addr, /*dirty=*/false, now);
      } else {
        fill_bypasses_++;
      }
      FreeTxn(txn);
      return;
    }
  }
}

void BearController::ExportOwnStats(StatSet& stats) const {
  AlloyController::ExportOwnStats(stats);
  stats.Counter("ctrl.fill_bypasses") = fill_bypasses_;
  stats.Counter("ctrl.probe_skips") = probe_skips_;
  stats.Counter("ctrl.write_miss_bypasses") = write_miss_bypasses_;
  stats.Counter("ctrl.presence_checks") = presence_.checks();
  stats.Counter("ctrl.presence_absences") = presence_.definite_absences();
  stats.Counter("ctrl.bypass_retunes") = bypass_retunes_;
  stats.Counter("ctrl.fill_probability_pct") =
      static_cast<std::uint64_t>(fill_probability_ * 100.0);
}

template <class Self, class Ar>
void BearController::Io(Self& s, Ar& a) {
  a.Section("bear");
  a.Part(s.presence_);
  a.Part(s.rng_);
  a.F64(s.fill_probability_);
  for (auto* counter :
       {&s.fill_bypasses_, &s.probe_skips_, &s.write_miss_bypasses_,
        &s.sample_hits_, &s.sample_accesses_, &s.other_hits_,
        &s.other_accesses_, &s.bypass_retunes_}) {
    a.U64(*counter);
  }
}

void BearController::SnapshotPolicy(ser::Writer& w) const {
  AlloyController::SnapshotPolicy(w);
  Io(*this, w);
}

void BearController::RestorePolicy(ser::Reader& r) {
  AlloyController::RestorePolicy(r);
  Io(*this, r);
}

}  // namespace redcache
