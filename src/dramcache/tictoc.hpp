// TicToc-style bandwidth-aware DRAM-cache replacement.
//
// Builds on the Alloy TAD organization (direct-mapped, probe read fetches
// tag+data together) but makes every bandwidth-spending decision adaptive:
//
//  * Fill duty cycle ("tic"): miss fills consume HBM write bandwidth that
//    competes with demand hits. A per-window comparison of HBM vs main-
//    memory bursts sets a duty in [1, 8]; a read miss installs its line
//    only when its slot in the 8-phase fill rotation is below the duty.
//    HBM-bound windows shed fills, MM-bound windows install aggressively.
//  * Metadata updates ("toc"): the reuse counter lives in the TAD's spare
//    tag/ECC byte, so bumping it on a hit costs an HBM write. Under HBM
//    pressure (duty below half scale) the update is skipped — the SRAM
//    mirror still learns, only the modeled write-bandwidth cost is elided.
//  * Last-write routing: a CPU writeback hitting a line with enough
//    observed reuse is predicted to be the block's final store; it is
//    routed straight to main memory and the cached copy is invalidated,
//    keeping the cache clean so future evictions are free.
//
// Write misses always bypass to main memory (no write allocation): a clean
// cache plus duty-gated fills is the design's bandwidth story.
#pragma once

#include "dramcache/alloy.hpp"

namespace redcache {

class TicTocController : public AlloyController {
 public:
  explicit TicTocController(MemControllerConfig cfg);

  const char* name() const override { return "tictoc"; }
  void SampleTelemetry(StatSet& out) const override;

  std::uint32_t fill_duty() const { return fill_duty_; }

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
  /// Requests per bandwidth-observation window.
  static constexpr std::uint64_t kWindow = 4096;
  /// Reuse count at or above which a write hit is treated as a last write.
  static constexpr std::uint32_t kLastWriteReuse = 4;

  void NoteRequest();

  std::uint64_t window_requests_ = 0;
  std::uint64_t hbm_bursts_ = 0;  ///< device ops issued this window
  std::uint64_t mm_bursts_ = 0;
  std::uint32_t fill_duty_ = 8;   ///< of 8 fill-rotation phases, install these
  std::uint64_t fill_seq_ = 0;    ///< rotation position for duty gating

  std::uint64_t bypassed_fills_ = 0;     ///< read misses served without install
  std::uint64_t last_write_routes_ = 0;  ///< write hits invalidated to MM
  std::uint64_t absorbed_writes_ = 0;    ///< write hits kept in cache
  std::uint64_t write_bypasses_ = 0;     ///< write misses routed to MM
  std::uint64_t metadata_updates_ = 0;   ///< reuse-count writes paid to HBM
  std::uint64_t metadata_skips_ = 0;     ///< reuse-count writes elided
  std::uint64_t duty_raises_ = 0;
  std::uint64_t duty_drops_ = 0;
};

}  // namespace redcache
