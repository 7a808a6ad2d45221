// Gamma counting (paper §III-A2).
//
// Gamma is the adaptive expected lifetime (in reuses) of an HBM cache
// block. Each cached block carries an r-count in its tag/ECC sidecar; a
// write hitting a block whose r-count has reached gamma is treated as the
// block's last write: the block is invalidated and the write goes straight
// to main memory, saving the HBM write, the future victim writeback and a
// bus turnaround.
//
// Adaptation (linear ascend/descend as in the paper's Fig. 6, with a
// stabilized sample source — see DESIGN.md): a hit whose r-count exceeds
// gamma is unbiased evidence of a longer lifetime and steps gamma up
// immediately. Downward pressure cannot come from per-hit samples — a hit
// at r < gamma merely means the block is young, and blocks gamma itself
// kills never show counts above it, so symmetric per-hit steps collapse
// gamma to its minimum. Instead, gamma steps down (damped) on *completed*
// lifetimes: blocks that left the cache by natural eviction with a final
// r-count below gamma. A premature-invalidation signal (the controller
// misses on a block gamma recently killed) boosts gamma strongly.
#pragma once

#include <cstdint>

#include "common/serialize.hpp"
#include "common/types.hpp"

namespace redcache {

class GammaController {
 public:
  struct Params {
    std::uint32_t initial_gamma = 8;
    /// Floor of 4: conflict evictions truncate observed lifetimes, and a
    /// gamma low enough to kill on a block's first writes is always a
    /// net loss (the premature-refetch costs exceed the saved writes).
    std::uint32_t min_gamma = 4;
    std::uint32_t max_gamma = 255;  ///< r-counts saturate at 8 bits
    std::uint32_t down_damping = 2; ///< low lifetime samples per down step
    std::uint32_t premature_boost = 2;
  };

  GammaController() : GammaController(Params{}) {}
  explicit GammaController(const Params& params)
      : params_(params), gamma_(params.initial_gamma) {}

  /// Observe a cache hit whose block now has reuse count `r_count`.
  void OnHit(std::uint32_t r_count) {
    updates_++;
    if (r_count > gamma_ && gamma_ < params_.max_gamma) {
      ++gamma_;
      steps_up_++;
    }
  }

  /// Observe a completed lifetime: a block left the cache by natural
  /// eviction having accumulated `r_count` reuses.
  void OnLifetimeSample(std::uint32_t r_count) {
    lifetime_samples_++;
    if (r_count >= gamma_) {
      down_votes_ = 0;
      return;  // upward evidence already handled by the hits themselves
    }
    if (++down_votes_ >= params_.down_damping) {
      down_votes_ = 0;
      if (gamma_ > params_.min_gamma) {
        --gamma_;
        steps_down_++;
      }
    }
  }

  /// The controller observed a miss on a block gamma recently invalidated:
  /// the block was not dead after all. Push the lifetime estimate up.
  void OnPrematureInvalidation() {
    premature_++;
    down_votes_ = 0;
    for (std::uint32_t i = 0; i < params_.premature_boost; ++i) {
      if (gamma_ < params_.max_gamma) ++gamma_;
    }
  }

  /// Should a write hit to a block with this r-count invalidate it?
  bool IsLastWrite(std::uint32_t r_count) const { return r_count >= gamma_; }

  std::uint32_t gamma() const { return gamma_; }
  std::uint64_t updates() const { return updates_; }
  std::uint64_t lifetime_samples() const { return lifetime_samples_; }
  std::uint64_t steps_up() const { return steps_up_; }
  std::uint64_t steps_down() const { return steps_down_; }
  std::uint64_t premature_invalidations() const { return premature_; }

  void Snapshot(ser::Writer& w) const { Io(*this, w); }
  void Restore(ser::Reader& r) { Io(*this, r); }

 private:
  template <class Self, class Ar>
  static void Io(Self& s, Ar& a) {
    a.Section("gamma");
    a.U32(s.gamma_);
    a.U32(s.down_votes_);
    a.U64(s.updates_);
    a.U64(s.lifetime_samples_);
    a.U64(s.steps_up_);
    a.U64(s.steps_down_);
    a.U64(s.premature_);
  }

  Params params_;
  std::uint32_t gamma_;
  std::uint32_t down_votes_ = 0;
  std::uint64_t updates_ = 0;
  std::uint64_t lifetime_samples_ = 0;
  std::uint64_t steps_up_ = 0;
  std::uint64_t steps_down_ = 0;
  std::uint64_t premature_ = 0;
};

}  // namespace redcache
