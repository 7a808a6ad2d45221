// Event-core primitives for the wake-driven scheduler.
//
// A WakeList holds one wake cycle per component (channel, core, controller)
// and maintains their minimum, so a caller can answer "is anything due at
// `now`?" with a single compare and fast-forward time to the next event with
// a single read. All storage is allocated once at Reset; Set/Min never touch
// the heap.
//
// The contract a wake value must satisfy (see DESIGN.md §10): ticking the
// component at any cycle strictly before its advertised wake is a provable
// no-op. Wakes at or before `now` simply mean "due" — components may be
// ticked late or spuriously and must tolerate it; the wake is a lower bound
// on when attention is *needed*, not an appointment.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace redcache {

/// True when REDCACHE_NO_SKIP forces single-cycle stepping (see .cpp).
bool NoSkipRequested();

class WakeList {
 public:
  /// "No wake scheduled" — later than any reachable cycle.
  static constexpr Cycle kNever = ~Cycle{0};

  WakeList() = default;
  explicit WakeList(std::size_t n) { Reset(n); }

  /// (Re)size to `n` components, all due immediately (wake 0): a component
  /// that has never been ticked has no basis for a skip.
  void Reset(std::size_t n) {
    wakes_.assign(n, 0);
    min_ = n == 0 ? kNever : 0;
    dirty_ = false;
  }

  std::size_t size() const { return wakes_.size(); }

  Cycle operator[](std::size_t i) const { return wakes_[i]; }

  /// True when component `i` needs attention at `now`.
  bool Due(std::size_t i, Cycle now) const { return wakes_[i] <= now; }

  /// True when no component needs attention at `now`.
  bool NoneDue(Cycle now) const { return Min() > now; }

  /// Record component `i`'s next wake. Raising the current minimum defers
  /// the O(n) re-scan until Min() is next read (a ticked component usually
  /// raises its own wake, and several often wake together).
  void Set(std::size_t i, Cycle wake) {
    const Cycle old = wakes_[i];
    wakes_[i] = wake;
    if (wake < old) {
      if (wake < min_) min_ = wake;
    } else if (old == min_ && wake > old) {
      dirty_ = true;
    }
  }

  /// Call `tick(i)` for every component due at `now` and store the wake it
  /// returns, refreshing the minimum in the same pass (so the next Min()
  /// is a load, not a re-scan).
  template <class Tick>
  void TickDue(Cycle now, Tick&& tick) {
    Cycle m = kNever;
    for (std::size_t i = 0; i < wakes_.size(); ++i) {
      if (wakes_[i] <= now) wakes_[i] = tick(i);
      m = wakes_[i] < m ? wakes_[i] : m;
    }
    min_ = m;
    dirty_ = false;
  }

  /// Earliest wake across all components (kNever when empty).
  Cycle Min() const {
    if (dirty_) {
      Cycle m = kNever;
      for (const Cycle w : wakes_) m = w < m ? w : m;
      min_ = m;
      dirty_ = false;
    }
    return min_;
  }

 private:
  std::vector<Cycle> wakes_;
  mutable Cycle min_ = kNever;
  mutable bool dirty_ = false;
};

}  // namespace redcache
