#include "dram/dram_system.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>

#include "common/rng.hpp"
#include "common/serialize.hpp"

namespace redcache {
namespace {

class RecordingObserver : public ColumnCommandObserver {
 public:
  void OnColumnCommand(const IssuedColumnCommand& cmd) override {
    commands.push_back(cmd);
  }
  std::vector<IssuedColumnCommand> commands;
};

std::vector<DramCompletion> Drain(DramSystem& sys, std::size_t n,
                                  Cycle limit = 1000000) {
  std::vector<DramCompletion> out;
  for (Cycle t = 0; t <= limit && out.size() < n; ++t) {
    sys.Tick(t);
    for (const auto& c : sys.completions()) out.push_back(c);
    sys.completions().clear();
  }
  return out;
}

TEST(DramSystem, RequestsRouteToMappedChannel) {
  DramSystem sys(HbmCacheConfig(8_MiB));
  for (Addr block = 0; block < 8; ++block) {
    EXPECT_EQ(sys.ChannelOf(block * 64), block % 4);
  }
}

TEST(DramSystem, CompletionCarriesUserTag) {
  DramSystem sys(HbmCacheConfig(8_MiB));
  sys.Enqueue(0, false, 0, /*user_tag=*/0xdeadbeef);
  const auto done = Drain(sys, 1);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].user_tag, 0xdeadbeefu);
  EXPECT_EQ(done[0].addr, 0u);
  EXPECT_FALSE(done[0].is_write);
}

TEST(DramSystem, ParallelChannelsOverlap) {
  DramSystem sys(HbmCacheConfig(8_MiB));
  // One block per channel: all four should finish at (nearly) the same time.
  for (Addr block = 0; block < 4; ++block) {
    sys.Enqueue(block * 64, false, 0, block);
  }
  const auto done = Drain(sys, 4);
  ASSERT_EQ(done.size(), 4u);
  const Cycle spread = done.back().done - done.front().done;
  EXPECT_LE(spread, 4u);  // truly parallel service
}

TEST(DramSystem, InflightTracksOutstanding) {
  DramSystem sys(HbmCacheConfig(8_MiB));
  sys.Enqueue(0, false, 0);
  sys.Enqueue(64, true, 0);
  EXPECT_EQ(sys.inflight(), 2u);
  (void)Drain(sys, 2);
  EXPECT_EQ(sys.inflight(), 0u);
}

TEST(DramSystem, ObserverSeesColumnCommands) {
  DramSystem sys(HbmCacheConfig(8_MiB));
  RecordingObserver obs;
  sys.SetObserver(&obs);
  sys.Enqueue(0, true, 0);
  sys.Enqueue(64, false, 0);
  (void)Drain(sys, 2);
  ASSERT_EQ(obs.commands.size(), 2u);
  EXPECT_TRUE(obs.commands[0].is_write || obs.commands[1].is_write);
}

TEST(DramSystem, ExportStatsUsesConfigName) {
  DramSystem sys(MainMemoryConfig(64_MiB));
  sys.Enqueue(0, false, 0);
  (void)Drain(sys, 1);
  StatSet stats;
  sys.ExportStats(stats);
  EXPECT_EQ(stats.GetCounter("ddr4.read_bursts"), 1u);
  EXPECT_EQ(stats.GetCounter("ddr4.transactions"), 1u);
  EXPECT_GT(stats.GetCounter("ddr4.activates"), 0u);
}

TEST(DramSystem, TransactionQueueEmptyChecks) {
  DramSystem sys(HbmCacheConfig(8_MiB));
  EXPECT_TRUE(sys.TransactionQueuesEmpty());
  sys.Enqueue(0, false, 0);
  EXPECT_FALSE(sys.TransactionQueuesEmpty());
  EXPECT_FALSE(sys.ChannelTransactionQueueEmpty(0));
  EXPECT_TRUE(sys.ChannelTransactionQueueEmpty(1));
  (void)Drain(sys, 1);
  EXPECT_TRUE(sys.TransactionQueuesEmpty());
}

TEST(DramSystem, HighLoadDrainsCompletely) {
  DramSystem sys(MainMemoryConfig(64_MiB));
  std::uint64_t submitted = 0;
  Cycle t = 0;
  std::uint64_t done_count = 0;
  std::uint64_t state = 7;
  while (submitted < 2000 || done_count < submitted) {
    if (submitted < 2000) {
      const Addr addr = (SplitMix64(state) % (16_MiB / 64)) * 64;
      if (sys.CanAccept(addr)) {
        sys.Enqueue(addr, (submitted & 3) == 0, t);
        submitted++;
      }
    }
    sys.Tick(t);
    done_count += sys.completions().size();
    sys.completions().clear();
    ++t;
    ASSERT_LT(t, 50000000u) << "DRAM system failed to drain";
  }
  EXPECT_EQ(done_count, 2000u);
}

TEST(DramSystem, RefreshingQueryReflectsRankState) {
  DramSystem sys(HbmCacheConfig(8_MiB));
  // Drive the clock past several refresh intervals; at some point the
  // addressed rank must report refreshing.
  bool saw_refresh = false;
  for (Cycle t = 0; t < 3 * HbmCacheConfig().timing.tREFI && !saw_refresh;
       ++t) {
    sys.Tick(t);
    saw_refresh = sys.Refreshing(0, t);
  }
  EXPECT_TRUE(saw_refresh);
}

// --- functional (fixed-latency) mode ---------------------------------------

constexpr Cycle kFuncLatency = 40;

/// Functional-mode traffic over [0, until): 1-3 enqueues on every third
/// cycle, so several completions fall due in one tick, with a Tick every
/// `tick_every` cycles. Returns each request's (id, enqueue cycle) and
/// appends each completion with the cycle it was delivered at to `got`.
std::vector<std::pair<RequestId, Cycle>> EnqueueBursts(
    DramSystem& sys, Cycle until, Cycle tick_every,
    std::vector<std::pair<DramCompletion, Cycle>>& got) {
  std::vector<std::pair<RequestId, Cycle>> sent;
  std::uint64_t state = 11;
  for (Cycle t = 0; t < until; ++t) {
    if (t % 3 == 0) {
      const std::uint64_t n = 1 + SplitMix64(state) % 3;
      for (std::uint64_t k = 0; k < n; ++k) {
        const Addr addr = (SplitMix64(state) % 4096) * 64;
        sent.emplace_back(sys.Enqueue(addr, (k & 1) != 0, t), t);
      }
    }
    if (t % tick_every != 0) continue;
    sys.Tick(t);
    for (const auto& c : sys.completions()) got.emplace_back(c, t);
    sys.completions().clear();
  }
  return sent;
}

/// Tick from `from` until every request is delivered, recording each
/// completion with the cycle it was delivered at.
std::vector<std::pair<DramCompletion, Cycle>> DrainFrom(DramSystem& sys,
                                                        Cycle from) {
  std::vector<std::pair<DramCompletion, Cycle>> out;
  for (Cycle t = from; sys.inflight() > 0 && t < from + 10000; ++t) {
    sys.Tick(t);
    for (const auto& c : sys.completions()) out.emplace_back(c, t);
    sys.completions().clear();
  }
  return out;
}

TEST(DramSystemFunctional, CompletesAtEnqueuePlusLatencyInOrder) {
  // Ticked every cycle, each request is delivered exactly at enqueue +
  // latency; ticked every 7th cycle, a tick delivers every due request at
  // once. Either way delivery follows enqueue order.
  for (const Cycle tick_every : {Cycle{1}, Cycle{7}}) {
    DramSystem sys(MainMemoryConfig(64_MiB));
    sys.SetFunctionalTiming(kFuncLatency);
    std::vector<std::pair<DramCompletion, Cycle>> got;
    const auto sent = EnqueueBursts(sys, 200, tick_every, got);
    const auto tail = DrainFrom(sys, 200);
    got.insert(got.end(), tail.begin(), tail.end());
    ASSERT_EQ(got.size(), sent.size());
    for (std::size_t i = 0; i < sent.size(); ++i) {
      const Cycle done = sent[i].second + kFuncLatency;
      EXPECT_EQ(got[i].first.id, sent[i].first) << "delivery " << i;
      EXPECT_EQ(got[i].first.done, done);
      if (tick_every == 1) {
        EXPECT_EQ(got[i].second, done);
      } else {
        EXPECT_GE(got[i].second, done);
        EXPECT_LT(got[i].second, done + tick_every);
      }
    }
    EXPECT_EQ(sys.inflight(), 0u);
    EXPECT_TRUE(sys.TransactionQueuesEmpty());
  }
}

TEST(DramSystemFunctional, RestoreMidDrainDeliversSameSequence) {
  const DramConfig cfg = MainMemoryConfig(64_MiB);
  DramSystem sys(cfg);
  sys.SetFunctionalTiming(kFuncLatency);
  // Snapshot at cycle 60, 20 cycles past the first delivery: part of the
  // list has been delivered and part is still pending.
  std::vector<std::pair<DramCompletion, Cycle>> early;
  const auto sent = EnqueueBursts(sys, 60, 1, early);
  ASSERT_FALSE(early.empty());
  ASSERT_GT(sys.inflight(), 0u);
  ASSERT_LT(sys.inflight(), sent.size());
  ser::Writer w;
  sys.Snapshot(w);

  // The restored copy is in detailed mode, as a sampled replay is: the
  // fixed-latency tail still drains at its recorded cycles.
  DramSystem restored(cfg);
  ser::Reader r(w.buffer().data(), w.buffer().size());
  restored.Restore(r);
  EXPECT_FALSE(restored.functional_timing());
  EXPECT_FALSE(restored.TransactionQueuesEmpty());

  const auto want = DrainFrom(sys, 60);
  const auto got = DrainFrom(restored, 60);
  ASSERT_EQ(got.size(), want.size());
  ASSERT_FALSE(want.empty());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].first.id, want[i].first.id) << "delivery " << i;
    EXPECT_EQ(got[i].first.done, want[i].first.done);
    EXPECT_EQ(got[i].second, want[i].second);
    EXPECT_EQ(got[i].second, got[i].first.done);
  }
  // The pending tail is exactly the requests not delivered before it.
  ASSERT_EQ(early.size() + want.size(), sent.size());
  EXPECT_EQ(want.front().first.id, sent[early.size()].first);
  EXPECT_EQ(want.back().first.id, sent.back().first);
  EXPECT_TRUE(restored.TransactionQueuesEmpty());
}

/// A DramSystem blob, built by hand in Snapshot's layout, whose pending
/// fixed-latency list holds one completion per entry of `dones`. Everything
/// after the list (func_min and the channels) comes from an idle system.
std::string PendingListBlob(const DramConfig& cfg,
                            const std::vector<Cycle>& dones) {
  ser::Writer idle;
  DramSystem(cfg).Snapshot(idle);
  // The idle header: section, next id, in-flight, no completions, no
  // pending entries; func_min follows it.
  ser::Writer idle_head;
  idle_head.Section("dram");
  for (int i = 0; i < 4; ++i) idle_head.U64(i == 0 ? 1 : 0);
  const std::size_t func_min_at = idle_head.buffer().size();
  EXPECT_EQ(0, std::memcmp(idle.buffer().data(), idle_head.buffer().data(),
                           func_min_at));

  ser::Writer w;
  w.Section("dram");
  w.U64(dones.size() + 1);  // next request id
  w.U64(dones.size());      // in flight
  w.U64(0);                 // undrained completions
  w.U64(dones.size());
  Cycle min_done = ~Cycle{0};
  for (std::size_t i = 0; i < dones.size(); ++i) {
    w.U64(i + 1);   // id
    w.U64(i * 64);  // addr
    w.Bool(false);  // is_write
    w.U64(dones[i]);
    w.U32(0);       // tenant
    w.U64(i);       // user tag
    min_done = std::min(min_done, dones[i]);
  }
  w.U64(min_done);
  const std::size_t tail = idle.buffer().size() - func_min_at - 8;
  std::memcpy(w.Raw(tail), idle.buffer().data() + func_min_at + 8, tail);
  return w.TakeString();
}

TEST(DramSystemFunctional, RestoreRefusesOutOfOrderPendingList) {
  const DramConfig cfg = MainMemoryConfig(64_MiB);
  // Control: the same hand-built layout in order restores and delivers.
  {
    const std::string blob = PendingListBlob(cfg, {90, 90, 100});
    DramSystem sys(cfg);
    ser::Reader r(blob);
    sys.Restore(r);
    const auto got = DrainFrom(sys, 0);
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got[0].second, 90u);
    EXPECT_EQ(got[1].second, 90u);
    EXPECT_EQ(got[2].second, 100u);
  }
  const std::string blob = PendingListBlob(cfg, {90, 100, 95});
  DramSystem sys(cfg);
  ser::Reader r(blob);
  EXPECT_THROW(sys.Restore(r), ser::SerializeError);
}

TEST(DramSystemFunctionalDeathTest, LatencyChangeWithPendingCompletions) {
  DramSystem sys(MainMemoryConfig(64_MiB));
  sys.SetFunctionalTiming(kFuncLatency);
  sys.SetFunctionalTiming(kFuncLatency);  // unchanged: allowed
  sys.Enqueue(0, false, 0);
  EXPECT_DEATH(sys.SetFunctionalTiming(kFuncLatency / 2),
               "functional latency changed");
  sys.Tick(kFuncLatency);
  sys.SetFunctionalTiming(0);  // nothing pending: allowed
  EXPECT_FALSE(sys.functional_timing());
}

}  // namespace
}  // namespace redcache
