// Tests for the extensions: RedCache at ways > 1 and the coarse-grained
// footprint cache baseline.
#include <gtest/gtest.h>

#include "controller_harness.hpp"
#include "dramcache/footprint.hpp"
#include "dramcache/redcache.hpp"
#include "tenant/accounting.hpp"

namespace redcache {
namespace {

RedCacheOptions PlainOptions() {
  RedCacheOptions o = RedCacheOptions::Full();
  o.alpha_enabled = false;
  o.gamma_enabled = false;
  o.bypass_on_refresh = false;
  o.update_mode = RedCacheOptions::UpdateMode::kInSitu;
  return o;
}

std::unique_ptr<RedCacheController> MakeAssoc(std::uint32_t ways,
                                              RedCacheOptions o) {
  return std::make_unique<RedCacheController>(SmallMemConfig(), o, "t", ways);
}

// --- Associative RedCache ---------------------------------------------------

TEST(AssocRedCache, MissFillThenHit) {
  ControllerHarness h(MakeAssoc(2, PlainOptions()));
  h.Read(0x4000);
  h.RunToIdle();
  h.Read(0x4000);
  h.RunToIdle();
  const StatSet s = h.Stats();
  EXPECT_EQ(s.GetCounter("ctrl.cache_misses"), 1u);
  EXPECT_EQ(s.GetCounter("ctrl.cache_hits"), 1u);
  EXPECT_EQ(h.completions.size(), 2u);
}

TEST(AssocRedCache, TwoWaysHoldConflictingBlocks) {
  // 1 MiB 2-way: sets = 8192; addresses 1 MiB/2 apart share a set.
  ControllerHarness h(MakeAssoc(2, PlainOptions()));
  const Addr a = 0x4000;
  const Addr b = a + 512_KiB;
  const Addr c = a + 1_MiB;
  h.Read(a);
  h.RunToIdle();
  h.Read(b);
  h.RunToIdle();
  h.Read(a);  // still resident: 2 ways
  h.Read(b);
  h.RunToIdle();
  EXPECT_EQ(h.Stats().GetCounter("ctrl.cache_hits"), 2u);
  h.Read(c);  // evicts the LRU way
  h.RunToIdle();
  EXPECT_EQ(h.Stats().GetCounter("ctrl.fills"), 3u);
}

TEST(AssocRedCache, DirectMappedDegeneratesToConflicts) {
  ControllerHarness h(MakeAssoc(1, PlainOptions()));
  const Addr a = 0x4000;
  const Addr b = a + 1_MiB;  // same set when ways=1
  h.Read(a);
  h.RunToIdle();
  h.Read(b);
  h.RunToIdle();
  h.Read(a);
  h.RunToIdle();
  EXPECT_EQ(h.Stats().GetCounter("ctrl.cache_misses"), 3u);
}

TEST(AssocRedCache, NonMruHitCostsExtraBurst) {
  ControllerHarness h(MakeAssoc(2, PlainOptions()));
  const Addr a = 0x4000;
  const Addr b = a + 512_KiB;  // same set, other way
  h.Read(a);
  h.RunToIdle();
  h.Read(b);
  h.RunToIdle();
  // b is now MRU; reading a hits the non-MRU way -> extra data burst.
  const auto reads_before = h.Stats().GetCounter("hbm.read_bursts");
  h.Read(a);
  h.RunToIdle();
  const StatSet s = h.Stats();
  EXPECT_EQ(s.GetCounter("ctrl.non_mru_hits"), 1u);
  EXPECT_EQ(s.GetCounter("hbm.read_bursts"), reads_before + 2);
}

TEST(AssocRedCache, MruHitServedByProbeAlone) {
  ControllerHarness h(MakeAssoc(2, PlainOptions()));
  h.Read(0x4000);
  h.RunToIdle();
  const auto reads_before = h.Stats().GetCounter("hbm.read_bursts");
  h.Read(0x4000);  // MRU hit
  h.RunToIdle();
  const StatSet s = h.Stats();
  EXPECT_EQ(s.GetCounter("ctrl.mru_hits"), 1u);
  EXPECT_EQ(s.GetCounter("hbm.read_bursts"), reads_before + 1);
}

TEST(AssocRedCache, DirtyVictimWrittenBack) {
  ControllerHarness h(MakeAssoc(1, PlainOptions()));
  const Addr a = 0x4000;
  h.Read(a);
  h.RunToIdle();
  h.Writeback(a);  // dirty the resident
  h.RunToIdle();
  h.Read(a + 1_MiB);  // evicts dirty a
  h.RunToIdle();
  const StatSet s = h.Stats();
  EXPECT_EQ(s.GetCounter("ctrl.victim_writebacks"), 1u);
  EXPECT_GE(s.GetCounter("ddr4.write_bursts"), 1u);
}

TEST(AssocRedCache, AlphaBypassStillApplies) {
  RedCacheOptions o = PlainOptions();
  o.alpha_enabled = true;
  o.alpha.initial_alpha = 4;
  o.alpha.adaptive = false;
  ControllerHarness h(MakeAssoc(2, o));
  h.Read(0x9000);
  h.RunToIdle();
  const StatSet s = h.Stats();
  EXPECT_EQ(s.GetCounter("ctrl.alpha_bypasses"), 1u);
  EXPECT_EQ(s.GetCounter("hbm.read_bursts"), 0u);
}

TEST(AssocRedCache, HigherAssociativityRaisesHitRateUnderConflicts) {
  auto run = [](std::uint32_t ways) {
    ControllerHarness h(MakeAssoc(ways, PlainOptions()));
    // Four streams aliasing to the same sets of a 1 MiB cache.
    for (int round = 0; round < 6; ++round) {
      for (Addr s = 0; s < 4; ++s) {
        for (Addr b = 0; b < 32; ++b) {
          h.Read(0x40000 + s * 1_MiB + b * kBlockBytes);
        }
      }
    }
    h.RunToIdle();
    return h.Stats().GetCounter("ctrl.cache_hits");
  };
  EXPECT_GT(run(4), run(1));
}

// The associative organization keeps every mechanism of the direct-mapped
// controller: refresh bypass, gamma's premature-invalidation feedback and
// per-tenant RCU drain accounting.

TEST(AssocRedCache, RefreshWindowsBypass) {
  RedCacheOptions o = RedCacheOptions::Full();
  o.alpha_enabled = false;
  ControllerHarness h(MakeAssoc(4, o));
  const Cycle refi = SmallMemConfig().hbm.timing.tREFI;
  std::size_t reads = 0;
  while (h.now() < 4 * refi) {
    h.Read((reads % 512) * kBlockBytes);
    reads++;
    h.RunUntilCompletions(reads);
  }
  EXPECT_GT(h.Stats().GetCounter("ctrl.refresh_bypasses"), 0u);
}

TEST(AssocRedCache, PrematureInvalidationRaisesGamma) {
  RedCacheOptions o = RedCacheOptions::Full();
  o.alpha_enabled = false;
  o.bypass_on_refresh = false;
  o.gamma.initial_gamma = 4;
  o.gamma.min_gamma = 4;
  ControllerHarness h(MakeAssoc(4, o));
  const Addr a = 0x4000;
  for (int i = 0; i < 5; ++i) {
    h.Read(a);
    h.RunToIdle();
  }
  h.Writeback(a);  // r >= gamma: invalidated as "last write"
  h.RunToIdle();
  ASSERT_EQ(h.Stats().GetCounter("ctrl.gamma_invalidations"), 1u);
  const auto gamma_before = h.Stats().GetCounter("ctrl.gamma_value");
  h.Read(a);  // the block was not dead: premature signal
  h.RunToIdle();
  EXPECT_EQ(h.Stats().GetCounter("ctrl.gamma_premature"), 1u);
  EXPECT_GT(h.Stats().GetCounter("ctrl.gamma_value"), gamma_before);
}

TEST(AssocRedCache, RcuDrainsCountAgainstTheirTenant) {
  RedCacheOptions o = RedCacheOptions::Full();
  o.alpha_enabled = false;
  o.bypass_on_refresh = false;
  // Two tenants in 1 MiB windows: tenant 1 owns [1 MiB, 2 MiB).
  tenant::TenantAccounting acct(tenant::TenantAddressMap(
      tenant::TenantAddressMap::Mode::kOffset, 2, /*window_bits=*/20));
  auto ctrl = MakeAssoc(4, o);
  ctrl->SetTenantAccounting(&acct);
  ControllerHarness h(std::move(ctrl));
  const Addr a = 1_MiB + 0x4000;
  h.Read(a);  // miss + fill
  h.RunToIdle();
  h.Read(a);  // hit: r-count update parked, then drained to an idle channel
  h.RunToIdle();
  StatSet s;
  acct.ExportStats(s);
  EXPECT_GE(s.GetCounter("tenant1.rcu_drains"), 1u);
  EXPECT_EQ(s.GetCounter("tenant0.rcu_drains"), 0u);
}

// --- Footprint (coarse-grained) cache ---------------------------------------

std::unique_ptr<FootprintCacheController> MakeFootprint() {
  return std::make_unique<FootprintCacheController>(SmallMemConfig(), 2048);
}

TEST(FootprintCache, FetchesOnlyDemandedBlocks) {
  ControllerHarness h(MakeFootprint());
  h.Read(0x4000);
  h.RunToIdle();
  const StatSet s = h.Stats();
  EXPECT_EQ(s.GetCounter("ctrl.page_misses"), 1u);
  EXPECT_EQ(s.GetCounter("ddr4.read_bursts"), 1u);  // one block, not a page
}

TEST(FootprintCache, NoProbeTrafficOnHits) {
  ControllerHarness h(MakeFootprint());
  h.Read(0x4000);
  h.RunToIdle();
  const auto hbm_reads = h.Stats().GetCounter("hbm.read_bursts");
  h.Read(0x4000);  // block hit: single HBM data read, no tag probe
  h.RunToIdle();
  EXPECT_EQ(h.Stats().GetCounter("hbm.read_bursts"), hbm_reads + 1);
  EXPECT_EQ(h.Stats().GetCounter("ctrl.cache_hits"), 1u);
}

TEST(FootprintCache, NeighbourBlockIsAPageHitButBlockMiss) {
  ControllerHarness h(MakeFootprint());
  h.Read(0x4000);
  h.RunToIdle();
  h.Read(0x4040);  // same 2 KiB page, different block
  h.RunToIdle();
  const StatSet s = h.Stats();
  EXPECT_EQ(s.GetCounter("ctrl.page_misses"), 1u);
  EXPECT_EQ(s.GetCounter("ctrl.block_misses"), 2u);
}

TEST(FootprintCache, EvictionWritesBackOnlyDirtyBlocks) {
  ControllerHarness h(MakeFootprint());
  const Addr page = 0x4000;
  h.Read(page);
  h.Read(page + 64);
  h.RunToIdle();
  h.Writeback(page + 64);  // one dirty block
  h.RunToIdle();
  // 1 MiB / 2 KiB pages = 512 sets; conflict stride 1 MiB.
  h.Read(page + 1_MiB);
  h.RunToIdle();
  const StatSet s = h.Stats();
  EXPECT_EQ(s.GetCounter("ctrl.page_evictions"), 1u);
  EXPECT_EQ(s.GetCounter("ctrl.dirty_blocks_written_back"), 1u);
}

TEST(FootprintCache, WritebackInstallsWithoutFetch) {
  ControllerHarness h(MakeFootprint());
  h.Writeback(0x8000);
  h.RunToIdle();
  const StatSet s = h.Stats();
  EXPECT_EQ(s.GetCounter("ddr4.read_bursts"), 0u);
  EXPECT_EQ(s.GetCounter("hbm.write_bursts"), 1u);
}

TEST(FootprintCache, ServesMixedTrafficToCompletion) {
  ControllerHarness h(MakeFootprint());
  std::size_t reads = 0;
  for (Addr a = 0; a < 3000; ++a) {
    const Addr addr = (a * 977) % (4_MiB / 64) * 64;
    if (a % 3 == 0) {
      h.Writeback(addr);
    } else {
      h.Read(addr);
      reads++;
    }
  }
  h.RunToIdle();
  EXPECT_EQ(h.completions.size(), reads);
}

}  // namespace
}  // namespace redcache
