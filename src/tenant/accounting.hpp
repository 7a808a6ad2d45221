// Per-tenant QoS accounting for multi-tenant mixes.
//
// One TenantAccounting instance is owned by the System when a mix is
// configured and shared (as a raw pointer) with the cores and the memory
// controller. Every probe is a single predictable branch when no mix is
// configured (the pointer is null), and the exported counters only exist
// when a mix is active — single-tenant runs keep byte-identical stats.
//
// Counter naming scheme (DESIGN.md section 13):
//   tenant<N>.refs               references retired by tenant N's stream
//   tenant<N>.finish_cycles      cycle of tenant N's last activity
//   tenant<N>.ctrl.reads         demand reads entering the controller
//   tenant<N>.ctrl.writebacks    L3 victim writebacks entering the controller
//   tenant<N>.ctrl.serve_hits    demand reads served from the HBM cache/RCU
//   tenant<N>.ctrl.serve_misses  demand reads served from main memory
//   tenant<N>.hbm.bytes          HBM device bytes caused by tenant N
//   tenant<N>.ddr4.bytes         main-memory device bytes caused by tenant N
//   tenant<N>.rcu_drains         RCU update drains for tenant N's blocks
// plus the point-in-time telemetry gauges
//   gauge.tenant<N>.slowdown_milli   progress slowdown vs the solo run x1000
//                                    (only when a solo baseline is attached)
//   gauge.tenant<N>.refs             references retired so far
//
// Device bytes are attributed when the controller queues the operation (the
// moment the causing tenant is known); cumulative totals match the device
// counters, per-epoch series may lead them by the queueing delay.
#pragma once

#include <cstdint>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "tenant/address_map.hpp"

namespace redcache::tenant {

class TenantAccounting {
 public:
  explicit TenantAccounting(const TenantAddressMap& map);

  const TenantAddressMap& map() const { return map_; }
  std::uint32_t num_tenants() const { return map_.num_tenants(); }
  std::uint32_t TenantOf(Addr addr) const { return map_.TenantOf(addr); }

  /// Attach the solo-run baseline for tenant `t` (enables the slowdown
  /// gauge; observability-only, never affects exported counters).
  void SetSoloBaseline(std::uint32_t t, std::uint64_t solo_exec_cycles,
                       std::uint64_t solo_refs);

  // --- probes (hot paths; callers gate on the accounting pointer) ---------
  void OnRefRetired(Addr addr, Cycle at) {
    Row& r = rows_[TenantOf(addr)];
    r.refs++;
    if (at > r.finish) r.finish = at;
  }
  void OnCtrlRead(Addr addr) { rows_[TenantOf(addr)].reads++; }
  void OnCtrlWriteback(Addr addr) { rows_[TenantOf(addr)].writebacks++; }
  void OnServe(Addr addr, bool hit) {
    Row& r = rows_[TenantOf(addr)];
    (hit ? r.serve_hits : r.serve_misses)++;
  }
  void OnReadComplete(Addr addr, Cycle done) {
    Row& r = rows_[TenantOf(addr)];
    if (done > r.finish) r.finish = done;
  }
  void OnDeviceBytes(bool hbm, std::uint32_t t, std::uint64_t bytes) {
    Row& r = rows_[t];
    (hbm ? r.hbm_bytes : r.mm_bytes) += bytes;
  }
  void OnRcuDrain(std::uint32_t t) { rows_[t].rcu_drains++; }

  // --- output -------------------------------------------------------------
  /// Cumulative per-tenant counters ("tenant<N>.*").
  void ExportStats(StatSet& stats) const;
  /// ExportStats plus the point-in-time gauges for the epoch sampler.
  void SampleTelemetry(StatSet& out, Cycle now) const;

  /// Checkpointing: the accumulated per-tenant rows. Solo baselines are
  /// configuration (re-attached by the builder) and not serialized.
  void Snapshot(ser::Writer& w) const { Io(*this, w); }
  void Restore(ser::Reader& r) { Io(*this, r); }

 private:
  struct Row {
    std::uint64_t refs = 0;
    std::uint64_t reads = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t serve_hits = 0;
    std::uint64_t serve_misses = 0;
    std::uint64_t hbm_bytes = 0;
    std::uint64_t mm_bytes = 0;
    std::uint64_t rcu_drains = 0;
    Cycle finish = 0;
    std::uint64_t solo_exec_cycles = 0;
    std::uint64_t solo_refs = 0;
  };

  template <class Self, class Ar>
  static void Io(Self& s, Ar& a) {
    a.Section("tenants");
    a.Records(
        s.rows_, 0,
        [&a](auto& row) {
          for (auto* field : {&row.refs, &row.reads, &row.writebacks,
                              &row.serve_hits, &row.serve_misses,
                              &row.hbm_bytes, &row.mm_bytes, &row.rcu_drains,
                              &row.finish}) {
            a.U64(*field);
          }
        },
        "tenant-count mismatch");
  }

  TenantAddressMap map_;
  std::vector<Row> rows_;
};

}  // namespace redcache::tenant
