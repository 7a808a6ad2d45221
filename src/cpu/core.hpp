// Trace-driven simple-OoO core model.
//
// Each core replays its workload stream: compute gaps and on-die cache hits
// advance its local clock; L3 misses are issued to the memory system and
// overlap up to `max_outstanding` at a time (ROB/MSHR window). A configurable
// fraction of misses is "dependent" — the core cannot advance past them until
// the data returns — which gives the model latency sensitivity in addition
// to bandwidth sensitivity. This reproduces the behaviour of the paper's
// 16-core 4-issue OoO configuration at trace speed.
#pragma once

#include <cstdint>
#include <limits>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "sram/hierarchy.hpp"
#include "tenant/accounting.hpp"
#include "workloads/trace.hpp"

namespace redcache {

struct CoreParams {
  std::uint32_t max_outstanding = 8;  ///< concurrent L3 misses per core
  /// Fraction of misses the core must wait on before making progress
  /// (dependent loads); the rest overlap freely inside the window.
  double dependent_fraction = 0.30;
  Cycle l1_hit_cost = 1;   ///< pipelined L1 hits are nearly free
  Cycle l2_hit_cost = 6;
  Cycle l3_hit_cost = 20;
  Cycle retry_interval = 8;  ///< backpressure retry period
};

/// How cores reach the memory system; implemented by the System.
class MemoryPort {
 public:
  virtual ~MemoryPort() = default;
  /// Try to issue an L3-miss read. Returns false on backpressure.
  virtual bool TrySubmitRead(Addr addr, std::uint64_t tag, Cycle now) = 0;
  /// Post a dirty L3 victim (always accepted; buffered by the system).
  virtual void SubmitWriteback(Addr addr, Cycle now) = 0;
};

class Core {
 public:
  /// Sentinel: the core has no self-scheduled event; it waits on a memory
  /// completion (or is finished).
  static constexpr Cycle kWaiting = std::numeric_limits<Cycle>::max();

  Core(std::uint32_t id, const CoreParams& params, TraceSource* trace,
       CacheHierarchy* hierarchy, MemoryPort* port, std::uint64_t seed);

  /// Make as much progress as possible up to cycle `now`. Returns the next
  /// cycle at which calling Progress could achieve more, or kWaiting.
  Cycle Progress(Cycle now);

  /// A read issued earlier with `tag` completed.
  void OnMemComplete(std::uint64_t tag, Cycle now);

  bool Finished() const { return trace_done_ && outstanding_ == 0; }
  Cycle finish_time() const { return finish_time_; }

  /// Attach per-tenant accounting (multi-tenant mixes; nullptr = off). The
  /// core reports every retired reference so tenant progress is visible
  /// even for references that hit on-die caches.
  void SetTenantAccounting(tenant::TenantAccounting* acct) { acct_ = acct; }

  std::uint64_t refs_processed() const { return refs_; }
  std::uint64_t misses_issued() const { return misses_; }
  std::uint64_t l1_hits() const { return hits_[0]; }
  std::uint64_t l2_hits() const { return hits_[1]; }
  std::uint64_t l3_hits() const { return hits_[2]; }

  /// Checkpointing: the full execution state — local clock, MSHR window,
  /// pending/stalled miss machinery, per-core RNG and counters. The trace /
  /// hierarchy / port pointers are wiring, re-established by construction.
  void Snapshot(ser::Writer& w) const { Io(*this, w); }
  void Restore(ser::Reader& r) { Io(*this, r); }

 private:
  template <class Self, class Ar>
  static void Io(Self& s, Ar& a) {
    a.Section("core");
    a.U64(s.t_);
    a.U32(s.outstanding_);
    a.U64(s.seq_);
    a.Bool(s.pending_miss_);
    a.U64(s.pending_addr_);
    a.Bool(s.pending_dependent_);
    a.Bool(s.stalled_);
    a.U64(s.stalled_tag_);
    a.Bool(s.trace_done_);
    a.U64(s.finish_time_);
    a.U64(s.refs_);
    a.U64(s.misses_);
    for (auto& h : s.hits_) a.U64(h);
    a.Part(s.rng_);
  }

  std::uint64_t MakeTag() { return (std::uint64_t{id_} << 48) | seq_++; }

  std::uint32_t id_;
  CoreParams params_;
  TraceSource* trace_;
  CacheHierarchy* hierarchy_;
  MemoryPort* port_;
  tenant::TenantAccounting* acct_ = nullptr;
  Rng rng_;

  Cycle t_ = 0;  ///< local clock: when the core can process its next ref
  std::uint32_t outstanding_ = 0;
  std::uint64_t seq_ = 0;

  bool pending_miss_ = false;  ///< a miss waits to be issued (backpressure)
  Addr pending_addr_ = 0;
  bool pending_dependent_ = false;

  bool stalled_ = false;            ///< waiting on a dependent load
  std::uint64_t stalled_tag_ = 0;

  bool trace_done_ = false;
  Cycle finish_time_ = 0;

  std::uint64_t refs_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t hits_[3] = {0, 0, 0};
};

}  // namespace redcache
