// Alpha counting (paper §III-A1).
//
// One counter per 4 KB OS page estimates the *average* number of accesses
// per 64 B block of that page while the page's blocks still live in main
// memory. The counter is initialized to alpha * 64 (blocks per page) and
// decremented on every memory request to the page; when it reaches zero the
// page's blocks have averaged `alpha` accesses and become eligible for
// insertion into the HBM cache. Colder traffic bypasses the cache.
//
// Storage model: the authoritative counters live in main memory alongside
// the page table (a "virtually free ride" with TLB refills); an on-chip
// buffer with as many entries as the TLBs serves the block manager. We keep
// the authoritative copy in a hash map and model the buffer as a
// direct-mapped tag array to count buffer misses (they cost energy only).
//
// Two refinements over a literal reading of the paper (documented in
// DESIGN.md):
//  * Progress decays by half per elapsed epoch (lazily, using a per-page
//    epoch stamp). Alpha thereby measures access *intensity*: a streaming
//    page that collects 64 touches per pass with long pauses in between
//    never qualifies, while a tile touched continuously qualifies within
//    its first few sweeps. Without decay the two are indistinguishable.
//  * The run-time tuning loop (Retune) targets the fraction of cache
//    departures that were never reused ("dead fills"), a signal that
//    responds monotonically to alpha.
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/serialize.hpp"
#include "common/types.hpp"

namespace redcache {

class AlphaTable {
 public:
  struct Params {
    std::uint32_t initial_alpha = 2;  ///< average per-block reuses to qualify
    std::uint32_t min_alpha = 1;
    std::uint32_t max_alpha = 3;
    std::uint32_t buffer_entries = 1024;  ///< TLB-sized on-chip buffer
    bool adaptive = true;
    /// Retune targets on the dead-fill fraction (see file comment). The
    /// band is asymmetric: direct-mapped conflicts alone produce a baseline
    /// of dead fills that alpha cannot remove, so alpha backs off unless
    /// admissions are demonstrably wasteful.
    double waste_low = 0.45;
    double waste_high = 0.70;
    /// Progress halves once per `epochs_per_decay` elapsed epochs
    /// (decay_shift = 0 disables decay). Pages revisited within one epoch
    /// never decay; pages idle for several epochs fade out.
    std::uint32_t decay_shift = 1;
    std::uint32_t epochs_per_decay = 2;
  };

  AlphaTable() : AlphaTable(Params{}) {}
  explicit AlphaTable(const Params& params);

  /// Account one memory request to `addr`'s page. Returns true when the
  /// page has qualified (its blocks may be cached in HBM).
  bool OnRequest(Addr addr);

  /// Would OnRequest return true, without mutating state?
  bool IsHot(Addr addr) const;

  /// Advance the decay epoch (the controller calls this periodically).
  void AdvanceEpoch() { epoch_++; }

  /// Epoch feedback: `dead_fill_fraction` is the fraction of blocks that
  /// left the HBM cache this epoch without ever being reused.
  void Retune(double dead_fill_fraction);

  std::uint32_t alpha() const { return alpha_; }
  void SetAlpha(std::uint32_t a);

  std::uint64_t lookups() const { return lookups_; }
  std::uint64_t buffer_misses() const { return buffer_misses_; }
  std::uint64_t pages_tracked() const { return counts_.size(); }
  std::uint64_t pages_hot() const { return pages_hot_; }
  std::uint64_t retunes_up() const { return retunes_up_; }
  std::uint64_t retunes_down() const { return retunes_down_; }

  /// Checkpointing. The page map is emitted sorted by page id so the blob
  /// is deterministic regardless of hash-table iteration order.
  void Snapshot(ser::Writer& w) const { Io(*this, w); }
  void Restore(ser::Reader& r) { Io(*this, r); }

 private:
  struct PageState {
    std::uint32_t progress = 0;  ///< accesses accumulated toward threshold
    std::uint32_t epoch = 0;     ///< epoch of the last access (for decay)
    bool hot = false;
  };

  template <class Self, class Ar>
  static void Io(Self& s, Ar& a) {
    a.Section("alpha");
    a.U32(s.alpha_);
    a.U32(s.epoch_);
    // The page map, 17-byte records (page, progress, epoch, hot), is the
    // bulk of a RedCache blob; the writer fills them through a bulk span.
    if constexpr (Ar::kReading) {
      s.counts_.clear();
      const std::size_t n = a.SeqLen(17);
      s.counts_.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        PageState& st = s.counts_[a.U64()];
        a.U32(st.progress);
        a.U32(st.epoch);
        a.Bool(st.hot);
      }
    } else {
      // Copy entries out, then sort pairs: one map walk instead of a
      // lookup per page — sort-ids-then-at() dominated checkpoint capture.
      std::vector<std::pair<Addr, PageState>> pages(s.counts_.begin(),
                                                    s.counts_.end());
      std::sort(pages.begin(), pages.end(), [](const auto& x, const auto& y) {
        return x.first < y.first;
      });
      a.U64(pages.size());
      std::uint8_t* p = a.Raw(17 * pages.size());
      for (const auto& [page, st] : pages) {
        ser::PutU64(p, page);
        for (int b = 0; b < 4; ++b) {
          p[8 + b] = (st.progress >> (8 * b)) & 0xff;
          p[12 + b] = (st.epoch >> (8 * b)) & 0xff;
        }
        p[16] = st.hot ? 1 : 0;
        p += 17;
      }
    }
    a.U64Seq(s.buffer_tags_, "alpha buffer size mismatch");
    a.U64(s.lookups_);
    a.U64(s.buffer_misses_);
    a.U64(s.pages_hot_);
    a.U64(s.retunes_up_);
    a.U64(s.retunes_down_);
  }

  std::uint32_t Threshold() const { return alpha_ * kBlocksPerPage; }

  Params params_;
  std::uint32_t alpha_;
  std::uint32_t epoch_ = 0;
  std::unordered_map<Addr, PageState> counts_;  ///< page id -> state
  std::vector<Addr> buffer_tags_;  ///< direct-mapped buffer model (+1 bias)
  std::uint64_t lookups_ = 0;
  std::uint64_t buffer_misses_ = 0;
  std::uint64_t pages_hot_ = 0;
  std::uint64_t retunes_up_ = 0;
  std::uint64_t retunes_down_ = 0;
};

}  // namespace redcache
