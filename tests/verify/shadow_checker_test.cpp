// ShadowChecker + reference-model tests: the positive paths (instrumented
// policies run divergence-free) and — more importantly — the negative
// paths: every injected bug class must actually be caught.
#include "verify/shadow_checker.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/check.hpp"
#include "dramcache/no_hbm.hpp"
#include "dramcache/redcache.hpp"
#include "sim/runner.hpp"
#include "verify/fault_injector.hpp"
#include "verify/ref_model.hpp"

#include "../dramcache/controller_harness.hpp"

namespace redcache {
namespace {

bool AnyMessageContains(const ShadowChecker& checker,
                        const std::string& needle) {
  for (const std::string& msg : checker.divergence_messages()) {
    if (msg.find(needle) != std::string::npos) return true;
  }
  return false;
}

bool AnyDivergenceContains(const RefMemoryModel& model,
                           const std::string& needle) {
  for (const auto& d : model.divergences()) {
    if (d.what.find(needle) != std::string::npos) return true;
  }
  return false;
}

// --- reference model unit tests -------------------------------------------

TEST(RefModel, CleanLifecycleHasNoDivergences) {
  RefMemoryModel m;
  m.OnWritebackSubmitted(0x40);
  m.OnFill(0x40, /*dirty=*/true);       // write-allocate consumes the write
  m.OnServeRead(0x40, ServeSource::kCache);
  m.OnVictimWriteback(0x40);            // dirty copy reaches main memory
  m.OnServeRead(0x40, ServeSource::kMainMemory);
  m.CheckDrained();
  EXPECT_TRUE(m.divergences().empty());
}

TEST(RefModel, InvalidatingNewestDirtyCopyIsALostWrite) {
  RefMemoryModel m;
  m.OnWritebackSubmitted(0x40);
  m.OnFill(0x40, /*dirty=*/true);
  m.OnInvalidate(0x40);
  ASSERT_FALSE(m.divergences().empty());
  EXPECT_TRUE(AnyDivergenceContains(m, "lost write"));
}

TEST(RefModel, StaleCacheServeAfterAppliedWrite) {
  RefMemoryModel m;
  m.OnFill(0x80, /*dirty=*/false);      // clean copy of the initial image
  m.OnWritebackSubmitted(0x80);
  m.OnMmWrite(0x80);                    // policy routed the write around
  m.OnServeRead(0x80, ServeSource::kCache);  // ...but serves the old copy
  ASSERT_FALSE(m.divergences().empty());
  EXPECT_TRUE(AnyDivergenceContains(m, "stale cache serve"));
}

TEST(RefModel, ServeRacingPendingWriteIsTolerated) {
  RefMemoryModel m;
  m.OnFill(0x80, /*dirty=*/false);
  m.OnWritebackSubmitted(0x80);         // still pending, not applied
  m.OnServeRead(0x80, ServeSource::kCache);
  EXPECT_TRUE(m.divergences().empty());
}

TEST(RefModel, SpuriousDeviceWriteIsFlagged) {
  RefMemoryModel m;
  m.OnMmWrite(0x40);                    // nothing was ever submitted
  ASSERT_FALSE(m.divergences().empty());
  EXPECT_TRUE(AnyDivergenceContains(m, "none pending"));
}

TEST(RefModel, DrainFlagsUnconsumedWriteback) {
  RefMemoryModel m;
  m.OnWritebackSubmitted(0x40);
  m.CheckDrained();
  ASSERT_FALSE(m.divergences().empty());
  EXPECT_TRUE(AnyDivergenceContains(m, "never consumed"));
}

TEST(RefModel, RcuServeOfPreWriteCopyIsStale) {
  // The bug pattern the RCU block cache can hit: a read parks a copy, a
  // write updates the cache, the parked copy serves the next read.
  RefMemoryModel m;
  m.OnFill(0xc0, /*dirty=*/false);
  m.OnWritebackSubmitted(0xc0);
  m.OnCacheWrite(0xc0);                 // write applied in the cache
  m.OnServeRead(0xc0, ServeSource::kCache);   // current copy: fine
  EXPECT_TRUE(m.divergences().empty());
  m.OnWritebackSubmitted(0xc0);
  m.OnMmWrite(0xc0);                    // newer write went to main memory
  m.OnServeRead(0xc0, ServeSource::kRcuRam);  // parked pre-write copy
  EXPECT_TRUE(AnyDivergenceContains(m, "stale cache serve"));
}

// --- end-to-end positive: instrumented policies are divergence-free -------

TEST(ShadowChecker, FullRunsAreDivergenceFree) {
  for (const char* policy : {"RedCache", "Bear"}) {
    RunSpec spec;
    spec.policy = policy;
    spec.workload = "IS";
    spec.scale = 0.02;
    spec.verify = true;  // strict: any divergence throws
    const RunResult r = RunOne(spec);
    EXPECT_TRUE(r.completed) << policy;
    EXPECT_EQ(r.stats.GetCounter("verify.divergences"), 0u) << policy;
    EXPECT_GT(r.stats.GetCounter("verify.model_events"), 0u) << policy;
  }
}

// --- negative: injected bugs must be caught -------------------------------

/// RedCache with every admission filter off, so fills and dirty victims are
/// plentiful, and the test-only lost-write fault armed.
std::unique_ptr<MemController> LeakyRedCache(bool drop_victims,
                                             std::uint32_t ways = 1) {
  RedCacheOptions opt;
  opt.alpha_enabled = false;
  opt.gamma_enabled = false;
  opt.update_mode = RedCacheOptions::UpdateMode::kInSitu;
  opt.bypass_on_refresh = false;
  opt.testing_drop_victim_writeback = drop_victims;
  return std::make_unique<RedCacheController>(SmallMemConfig(), opt,
                                              "leaky-redcache", ways);
}

TEST(ShadowChecker, CatchesDroppedVictimWriteback) {
  auto checker = std::make_unique<ShadowChecker>(LeakyRedCache(true));
  ShadowChecker* shadow = checker.get();
  ControllerHarness h(std::move(checker));

  h.Writeback(0x40);             // write-allocates: dirty line in the cache
  h.RunToIdle();
  h.Read(0x40 + 1_MiB);          // direct-mapped alias evicts the dirty line
  h.RunUntilCompletions(1);
  h.RunToIdle();
  shadow->CheckDrained();

  EXPECT_GT(shadow->divergence_count(), 0u);
  EXPECT_TRUE(AnyMessageContains(*shadow, "lost write")) << shadow->Summary();
}

TEST(ShadowChecker, CatchesDroppedVictimWritebackAtFourWays) {
  auto checker = std::make_unique<ShadowChecker>(LeakyRedCache(true, 4));
  ShadowChecker* shadow = checker.get();
  ControllerHarness h(std::move(checker));

  h.Writeback(0x40);  // write-allocates: dirty line in the cache
  h.RunToIdle();
  // 1 MiB / 4 ways: sets alias every 256 KiB. Four more blocks in the set
  // make the dirty line the LRU victim.
  for (Addr k = 1; k <= 4; ++k) h.Read(0x40 + k * 256_KiB);
  h.RunUntilCompletions(4);
  h.RunToIdle();
  shadow->CheckDrained();

  EXPECT_GT(shadow->divergence_count(), 0u);
  EXPECT_TRUE(AnyMessageContains(*shadow, "lost write")) << shadow->Summary();
}

TEST(ShadowChecker, SameScenarioWithoutFaultIsClean) {
  auto checker = std::make_unique<ShadowChecker>(LeakyRedCache(false));
  ShadowChecker* shadow = checker.get();
  ControllerHarness h(std::move(checker));

  h.Writeback(0x40);
  h.RunToIdle();
  h.Read(0x40 + 1_MiB);
  h.RunUntilCompletions(1);
  h.RunToIdle();
  shadow->CheckDrained();

  EXPECT_EQ(shadow->divergence_count(), 0u) << shadow->Summary();
}

TEST(ShadowChecker, CatchesWritebackSwallowedBelowTheCheckpoint) {
  FaultInjector::Options faults;
  faults.drop_every_nth_writeback = 1;  // every CPU writeback vanishes
  auto checker = std::make_unique<ShadowChecker>(
      std::make_unique<FaultInjector>(
          std::make_unique<NoHbmController>(SmallMemConfig()), faults));
  ShadowChecker* shadow = checker.get();
  ControllerHarness h(std::move(checker));

  h.Read(0x1000);  // a served read arms the semantic checks
  h.RunUntilCompletions(1);
  h.Writeback(0x2000);
  h.RunToIdle();
  shadow->CheckDrained();

  EXPECT_GT(shadow->divergence_count(), 0u);
  EXPECT_TRUE(AnyMessageContains(*shadow, "never consumed"))
      << shadow->Summary();
}

TEST(ShadowChecker, CatchesDuplicatedCompletions) {
  FaultInjector::Options faults;
  faults.duplicate_every_nth_completion = 1;
  auto checker = std::make_unique<ShadowChecker>(
      std::make_unique<FaultInjector>(
          std::make_unique<NoHbmController>(SmallMemConfig()), faults));
  ShadowChecker* shadow = checker.get();
  ControllerHarness h(std::move(checker));

  h.Read(0x1000);
  h.RunUntilCompletions(2);  // the duplicate arrives as a second completion

  EXPECT_GT(shadow->divergence_count(), 0u);
  EXPECT_TRUE(AnyMessageContains(*shadow, "not outstanding"))
      << shadow->Summary();
}

TEST(ShadowChecker, StrictModeThrowsAtTheFaultingEvent) {
  ShadowChecker::Options opts;
  opts.strict = true;
  auto checker =
      std::make_unique<ShadowChecker>(LeakyRedCache(true), opts);
  ShadowChecker* shadow = checker.get();
  ControllerHarness h(std::move(checker));

  h.Writeback(0x40);
  h.RunToIdle();
  EXPECT_THROW(
      {
        h.Read(0x40 + 1_MiB);
        h.RunToIdle();
        shadow->CheckDrained();
      },
      ShadowChecker::VerifyError);
}

// --- REDCACHE_CHECK stays armed in release builds -------------------------

using CheckDeathTest = ::testing::Test;

TEST(CheckDeathTest, FailedCheckAborts) {
  EXPECT_DEATH(REDCACHE_CHECK(1 == 2, "intentional test failure"),
               "intentional test failure");
}

TEST(CheckDeathTest, OverflowingTheInputQueueAborts) {
  // CanAcceptRead() says no at the cap; submitting anyway must abort
  // instead of silently corrupting the queue.
  NoHbmController ctrl(SmallMemConfig());
  const std::uint32_t cap = SmallMemConfig().input_queue_cap;
  for (std::uint32_t i = 0; i < cap; ++i) {
    ctrl.SubmitRead(i * kBlockBytes, i + 1, 0);
  }
  EXPECT_FALSE(ctrl.CanAcceptRead());
  EXPECT_DEATH(ctrl.SubmitRead(cap * kBlockBytes, cap + 1, 0),
               "full input queue");
}

}  // namespace
}  // namespace redcache
