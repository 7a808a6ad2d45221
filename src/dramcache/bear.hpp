// BEAR baseline (Chou, Jaleel & Qureshi, ISCA'15): Alloy plus techniques
// that cut DRAM-cache bandwidth bloat.
//
//  * Bandwidth-Aware Bypass (BAB): a fraction of miss fills is bypassed —
//    the demand data goes straight to the CPU from main memory without
//    installing the line. A 1-in-32 set sample always fills; comparing the
//    sampled sets' hit rate against the rest estimates what fills are
//    worth, and the bypass fraction adapts each epoch (BEAR's
//    sampling-based gain estimator), starting from the paper's 90%.
//  * DRAM Cache Presence (DCP): a counting Bloom filter on the controller
//    tracks installed lines; a definitely-absent read skips the tag-probe
//    read entirely and goes straight to main memory.
//  * Write-miss bypass: writebacks that miss are routed to main memory
//    rather than allocating, avoiding the fill round trip.
#pragma once

#include "common/rng.hpp"
#include "dramcache/alloy.hpp"

namespace redcache {

/// Counting Bloom filter sized for the DRAM-cache line population.
class PresenceFilter {
 public:
  PresenceFilter(std::size_t buckets, std::uint32_t hashes = 2);

  void Add(Addr line_addr);
  void Remove(Addr line_addr);
  bool MayContain(Addr line_addr) const;

  std::uint64_t checks() const { return checks_; }
  std::uint64_t definite_absences() const { return absences_; }

  void Snapshot(ser::Writer& w) const { Io(*this, w); }
  void Restore(ser::Reader& r) { Io(*this, r); }

 private:
  template <class Self, class Ar>
  static void Io(Self& s, Ar& a) {
    a.Section("bloom");
    a.U8Seq(s.counters_, "presence filter size mismatch");
    a.U64(s.checks_);
    a.U64(s.absences_);
  }

  std::size_t Slot(Addr line_addr, std::uint32_t i) const;

  std::vector<std::uint8_t, ZeroedAllocator<std::uint8_t>> counters_;
  std::uint32_t hashes_;
  mutable std::uint64_t checks_ = 0;
  mutable std::uint64_t absences_ = 0;
};

class BearController : public AlloyController {
 public:
  explicit BearController(MemControllerConfig cfg);

  const char* name() const override { return "bear"; }

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
  bool SampledSet(std::uint64_t set) const { return set % 32 == 0; }
  /// BAB decision for a miss to `set`.
  bool ShouldFill(std::uint64_t set);
  void FillTracked(Addr addr, bool dirty, Cycle now);
  void RecordOutcome(std::uint64_t set, bool hit);
  void MaybeRetuneBypass();

  PresenceFilter presence_;
  Rng rng_;
  double fill_probability_ = 0.10;  // BEAR's default: bypass ~90% of fills
  std::uint64_t fill_bypasses_ = 0;
  std::uint64_t probe_skips_ = 0;
  std::uint64_t write_miss_bypasses_ = 0;
  // Sampling-based gain estimator state (per epoch).
  std::uint64_t sample_hits_ = 0, sample_accesses_ = 0;
  std::uint64_t other_hits_ = 0, other_accesses_ = 0;
  std::uint64_t bypass_retunes_ = 0;
};

}  // namespace redcache
