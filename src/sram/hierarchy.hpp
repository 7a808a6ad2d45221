// The on-die cache hierarchy: per-core private L1/L2 and a shared L3
// (Table I: L1 64 KB 4-way, L2 128 KB 8-way private, L3 8 MB 8-way shared,
// 64 B blocks, LRU). Non-inclusive, write-back, write-allocate.
//
// Coherence between cores is not modeled: the evaluated parallel workloads
// are data-partitioned, and the DRAM-cache mechanisms under study operate
// strictly below the L3. This matches the paper's focus.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "sram/cache.hpp"

namespace redcache {

struct HierarchyConfig {
  std::uint32_t num_cores = 16;
  SramCacheConfig l1{.name = "l1", .size_bytes = 64_KiB, .ways = 4,
                     .latency = 4};
  SramCacheConfig l2{.name = "l2", .size_bytes = 128_KiB, .ways = 8,
                     .latency = 12};
  SramCacheConfig l3{.name = "l3", .size_bytes = 8_MiB, .ways = 8,
                     .latency = 38};
};

/// Result of pushing one core reference through L1/L2/L3.
struct HierarchyResult {
  /// 1, 2 or 3 when the reference hit on-die; 0 on an L3 miss (the
  /// reference must go to the memory system).
  std::uint32_t hit_level = 0;
  /// Cumulative on-die lookup latency for this reference.
  Cycle latency = 0;
  /// Dirty L3 victims that must be written back to the memory system.
  std::vector<Addr> writebacks;
};

class CacheHierarchy {
 public:
  explicit CacheHierarchy(const HierarchyConfig& cfg);

  /// Process a reference from `core`. On an L3 miss the block is allocated
  /// in all levels (the fill is assumed to complete; timing is charged by
  /// the caller when the memory response returns).
  HierarchyResult Access(std::uint32_t core, Addr addr, bool is_write);

  const HierarchyConfig& config() const { return cfg_; }
  const SramCache& l1(std::uint32_t core) const { return *l1_[core]; }
  const SramCache& l2(std::uint32_t core) const { return *l2_[core]; }
  const SramCache& l3() const { return *l3_; }

  /// Total latency of a full miss path probe (L1+L2+L3), charged to
  /// references that go to memory.
  Cycle MissPathLatency() const {
    return cfg_.l1.latency + cfg_.l2.latency + cfg_.l3.latency;
  }

  /// Checkpointing: every level's lines and counters, per-core order.
  void Snapshot(ser::Writer& w) const { Io(*this, w); }
  void Restore(ser::Reader& r) { Io(*this, r); }

 private:
  template <class Self, class Ar>
  static void Io(Self& s, Ar& a) {
    a.Section("hier");
    for (const auto& c : s.l1_) a.Part(*c);
    for (const auto& c : s.l2_) a.Part(*c);
    a.Part(*s.l3_);
  }

  HierarchyConfig cfg_;
  std::vector<std::unique_ptr<SramCache>> l1_;
  std::vector<std::unique_ptr<SramCache>> l2_;
  std::unique_ptr<SramCache> l3_;
};

}  // namespace redcache
