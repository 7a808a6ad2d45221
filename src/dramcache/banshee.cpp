#include "dramcache/banshee.hpp"

#include <bit>
#include <cassert>

namespace redcache {

namespace {
enum State {
  kHitRead = 0,   ///< block resident; data read in flight from HBM
  kFetchInstall,  ///< MM fetch in flight; install the block on completion
  kFetchBypass,   ///< MM fetch in flight; no slot, serve only
};

/// Requests between deterministic frequency-decay sweeps.
constexpr std::uint64_t kDecayPeriod = 8192;
}  // namespace

BansheeController::BansheeController(MemControllerConfig cfg,
                                     std::uint64_t page_bytes)
    : ControllerBase((cfg.has_hbm = true, cfg)),
      page_bytes_(page_bytes),
      blocks_per_page_(static_cast<std::uint32_t>(page_bytes / kBlockBytes)),
      sets_(cfg.hbm.geometry.capacity_bytes / page_bytes),
      pages_(sets_),
      challengers_(sets_),
      pins_(sets_, 0) {
  assert(blocks_per_page_ >= 1 && blocks_per_page_ <= 64);
  assert(sets_ >= 1);
}

bool BansheeController::ChallengerWins(std::uint64_t set, Addr addr) {
  Challenger& ch = challengers_[set];
  const std::uint64_t tag = TagOf(addr);
  if (ch.count == 0 || ch.tag == tag) {
    // Claim an empty slot or reinforce the incumbent challenger.
    ch.tag = tag;
    if (ch.count != 0xff) ++ch.count;
  } else {
    // CLOCK-style decay: a competing page weakens the current challenger.
    --ch.count;
    return false;
  }
  const PageEntry& resident = pages_[set];
  if (!resident.valid) return true;  // cold set: install immediately
  return ch.count > resident.freq;
}

void BansheeController::ReplacePage(std::uint64_t set, Addr addr, Cycle now) {
  PageEntry& e = pages_[set];
  if (e.valid) {
    page_replacements_++;
    for (std::uint32_t b = 0; b < blocks_per_page_; ++b) {
      const std::uint64_t bit = std::uint64_t{1} << b;
      if (!(e.present & bit)) continue;
      const Addr victim = PageAddr(e, set) + Addr{b} * kBlockBytes;
      if (e.dirty & bit) {
        // Stream the dirty block out of HBM and write it off-package.
        NotifyVictimWriteback(victim);
        SendHbm(kPostedOp, HbmAddr(set, b), /*is_write=*/false, now);
        SendMm(kPostedOp, victim, /*is_write=*/true, now);
        victim_writebacks_++;
      } else {
        NotifyInvalidate(victim);
      }
      evictions_++;
    }
  }
  e.valid = true;
  e.tag = TagOf(addr);
  e.present = 0;
  e.dirty = 0;
  // The winning challenger's evidence seeds the new resident's frequency.
  e.freq = challengers_[set].count;
  challengers_[set] = Challenger{};
}

void BansheeController::DecayFrequencies() {
  for (PageEntry& e : pages_) e.freq >>= 1;
  for (Challenger& ch : challengers_) ch.count >>= 1;
}

void BansheeController::StartTxn(Txn& txn, Cycle now) {
  if (++requests_since_decay_ >= kDecayPeriod) {
    requests_since_decay_ = 0;
    DecayFrequencies();
  }

  const std::uint64_t set = SetOf(txn.addr);
  const std::uint32_t block = BlockOf(txn.addr);
  const std::uint64_t bit = std::uint64_t{1} << block;
  PageEntry& e = pages_[set];
  const bool page_hit = e.valid && e.tag == TagOf(txn.addr);

  if (txn.is_writeback) {
    // SRAM tags: no probe traffic, the decision is immediate. Writes never
    // allocate a page and never feed the frequency gate.
    if (page_hit) {
      if (e.present & bit) {
        write_hits_++;
        NotifyCacheWrite(txn.addr);
      } else {
        misses_++;
        fills_++;
        NotifyFill(txn.addr, /*dirty=*/true);
        e.present |= bit;
      }
      e.dirty |= bit;
      SendHbm(kPostedOp, HbmAddr(set, block), /*is_write=*/true, now);
    } else {
      misses_++;
      write_bypasses_++;
      NotifyMmWrite(txn.addr);
      SendMm(kPostedOp, txn.addr, /*is_write=*/true, now);
    }
    FreeTxn(txn);
    return;
  }

  if (page_hit) {
    BumpFreq(e);
    if (e.present & bit) {
      read_hits_++;
      txn.state = kHitRead;
      pins_[set]++;
      SendHbm(TxnIndex(txn), HbmAddr(set, block), /*is_write=*/false, now);
      return;
    }
    // Footprint miss: fetch just this block and widen the page's footprint.
    misses_++;
    txn.state = kFetchInstall;
    pins_[set]++;
    SendMm(TxnIndex(txn), txn.addr, /*is_write=*/false, now);
    return;
  }

  // Page miss: consult the frequency gate before displacing the resident.
  misses_++;
  if (ChallengerWins(set, txn.addr)) {
    if (pins_[set] == 0) {
      ReplacePage(set, txn.addr, now);
      txn.state = kFetchInstall;
      pins_[set]++;
      SendMm(TxnIndex(txn), txn.addr, /*is_write=*/false, now);
      return;
    }
    replacements_blocked_++;
  }
  read_bypasses_++;
  txn.state = kFetchBypass;
  SendMm(TxnIndex(txn), txn.addr, /*is_write=*/false, now);
}

void BansheeController::OnDeviceComplete(Txn& txn, bool /*from_hbm*/,
                                         const DramCompletion& c, Cycle now) {
  const std::uint64_t set = SetOf(txn.addr);
  switch (txn.state) {
    case kHitRead: {
      NotifyServeRead(txn, ServeSource::kCache);
      CompleteRead(txn, c.done);
      assert(pins_[set] > 0);
      pins_[set]--;
      FreeTxn(txn);
      return;
    }
    case kFetchInstall: {
      NotifyServeRead(txn, ServeSource::kMainMemory);
      CompleteRead(txn, c.done);
      PageEntry& e = pages_[set];
      // The pin guarantees the page is still ours; the block may have been
      // installed meanwhile by a CPU writeback (then the fetch is wasted).
      assert(e.valid && e.tag == TagOf(txn.addr));
      const std::uint64_t bit = std::uint64_t{1} << BlockOf(txn.addr);
      if (e.present & bit) {
        install_races_++;
      } else {
        fills_++;
        NotifyFill(txn.addr, /*dirty=*/false);
        e.present |= bit;
        SendHbm(kPostedOp, HbmAddr(set, BlockOf(txn.addr)), /*is_write=*/true,
                now);
      }
      assert(pins_[set] > 0);
      pins_[set]--;
      FreeTxn(txn);
      return;
    }
    case kFetchBypass: {
      NotifyServeRead(txn, ServeSource::kMainMemory);
      CompleteRead(txn, c.done);
      FreeTxn(txn);
      return;
    }
  }
}

std::uint64_t BansheeController::ResidentBlocks() const {
  std::uint64_t resident = 0;
  for (const PageEntry& e : pages_) resident += std::popcount(e.present);
  return resident;
}

void BansheeController::ExportOwnStats(StatSet& stats) const {
  stats.Counter("ctrl.cache_hits") = read_hits_ + write_hits_;
  stats.Counter("ctrl.cache_misses") = misses_;
  stats.Counter("ctrl.read_hits") = read_hits_;
  stats.Counter("ctrl.write_hits") = write_hits_;
  stats.Counter("ctrl.fills") = fills_;
  stats.Counter("ctrl.victim_writebacks") = victim_writebacks_;
  stats.Counter("ctrl.evictions") = evictions_;
  stats.Counter("ctrl.resident_lines") = ResidentBlocks();
  stats.Counter("ctrl.page_replacements") = page_replacements_;
  stats.Counter("ctrl.replacements_blocked") = replacements_blocked_;
  stats.Counter("ctrl.read_bypasses") = read_bypasses_;
  stats.Counter("ctrl.write_bypasses") = write_bypasses_;
  stats.Counter("ctrl.install_races") = install_races_;
}

void BansheeController::SampleTelemetry(StatSet& out) const {
  ControllerBase::SampleTelemetry(out);
  out.Counter("gauge.resident_blocks") = ResidentBlocks();
  std::uint64_t valid_pages = 0;
  std::uint64_t freq_sum = 0;
  for (const PageEntry& e : pages_) {
    valid_pages += e.valid ? 1 : 0;
    freq_sum += e.freq;
  }
  out.Counter("gauge.valid_pages") = valid_pages;
  out.Counter("gauge.freq_sum") = freq_sum;
  out.Counter("page_replacements") = page_replacements_;
  out.Counter("read_bypasses") = read_bypasses_;
}

template <class Self, class Ar>
void BansheeController::Io(Self& s, Ar& a) {
  a.Section("banshee");
  a.Records(
      s.pages_, 26,
      [&a](auto& e) {
        a.U64(e.tag);
        a.U64(e.present);
        a.U64(e.dirty);
        a.U8(e.freq);
        a.Bool(e.valid);
      },
      "banshee page table size mismatch");
  a.Records(
      s.challengers_, 9,
      [&a](auto& c) {
        a.U64(c.tag);
        a.U8(c.count);
      },
      "banshee challenger table size mismatch");
  a.U64Seq(s.pins_, "banshee pin table size mismatch");
  for (auto* counter :
       {&s.requests_since_decay_, &s.read_hits_, &s.write_hits_, &s.misses_,
        &s.fills_, &s.evictions_, &s.victim_writebacks_,
        &s.page_replacements_, &s.replacements_blocked_, &s.read_bypasses_,
        &s.write_bypasses_, &s.install_races_}) {
    a.U64(*counter);
  }
}

void BansheeController::SnapshotPolicy(ser::Writer& w) const { Io(*this, w); }
void BansheeController::RestorePolicy(ser::Reader& r) { Io(*this, r); }

}  // namespace redcache
