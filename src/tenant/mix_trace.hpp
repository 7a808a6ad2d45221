// Weighted round-robin front-end that co-schedules N tenant trace streams
// onto one set of cores.
//
// Each core independently cycles through the tenants, serving `weight`
// references from tenant t before moving on, so the interleaving is fully
// deterministic — no global state, no dependence on the order cores are
// polled. Every emitted address is rebased through the TenantAddressMap so
// tenants occupy disjoint physical slices, and a per-tenant `min_gap`
// stretches compute gaps to model an injection throttle. Exhausted tenants
// are skipped; a core's stream ends when all of its tenants are dry.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tenant/address_map.hpp"
#include "tenant/mix.hpp"
#include "workloads/trace.hpp"

namespace redcache::tenant {

class MixTraceSource : public TraceSource {
 public:
  /// `children[t]` supplies tenant t's references; all children must agree
  /// on num_cores(). `specs[t]` carries tenant t's weight and rate limit.
  /// Throws std::invalid_argument on an empty or inconsistent mix.
  MixTraceSource(std::vector<std::unique_ptr<TraceSource>> children,
                 std::vector<TenantSpec> specs, TenantAddressMap map);

  bool Next(std::uint32_t core, MemRef& out) override;
  std::uint32_t num_cores() const override { return num_cores_; }
  std::uint64_t footprint_bytes() const override { return footprint_; }
  std::string name() const override { return name_; }

  const TenantAddressMap& map() const { return map_; }

  /// Direct access to the co-scheduled children, e.g. to install a stop
  /// flag on a streamed ("serve") tenant after construction.
  std::size_t num_children() const { return children_.size(); }
  TraceSource& child(std::size_t t) { return *children_[t]; }

  /// Re-namespace each child's telemetry per tenant: child t's counter
  /// "serve.records" becomes "tenant<t>.serve.records" and its gauge
  /// "gauge.serve.eof" becomes "gauge.tenant<t>.serve.eof", so a serve
  /// tenant's ingest feed stays attributable inside a mix.
  void SampleTelemetry(StatSet& out) const override;

  /// Checkpointing: the round-robin lanes, per-core exhaustion flags and
  /// every child's cursors, recursively. Checkpointable only when every
  /// tenant is (a streamed "serve" tenant is not).
  bool checkpointable() const override {
    return std::all_of(children_.begin(), children_.end(),
                       [](const auto& c) { return c->checkpointable(); });
  }
  void Snapshot(ser::Writer& w) const override { Io(*this, w); }
  void Restore(ser::Reader& r) override { Io(*this, r); }

 private:
  template <class Self, class Ar>
  static void Io(Self& s, Ar& a) {
    a.Section("mix");
    for (auto& lane : s.lanes_) {
      a.U32(lane.tenant);
      a.U32(lane.served);
    }
    for (auto& done : s.done_) a.U8Seq(done, "mix tenant-count mismatch");
    for (const auto& child : s.children_) a.Part(*child);
  }

  struct Lane {
    std::uint32_t tenant = 0;  // whose turn it is
    std::uint32_t served = 0;  // refs served from `tenant` this turn
  };

  std::vector<std::unique_ptr<TraceSource>> children_;
  std::vector<TenantSpec> specs_;
  TenantAddressMap map_;
  std::uint32_t num_cores_ = 0;
  std::uint64_t footprint_ = 0;
  std::string name_;
  std::vector<Lane> lanes_;                 // per core
  std::vector<std::vector<bool>> done_;     // [core][tenant]
};

}  // namespace redcache::tenant
