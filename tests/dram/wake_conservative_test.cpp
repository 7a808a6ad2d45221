// Wake conservativeness property (DESIGN.md section 10).
//
// A component's advertised wake (Tick return / NextEventHint) promises that
// ticking it strictly earlier, with no new input, changes nothing
// observable. The test drives two identical instances with the same
// adversarial fuzz-trace-derived schedule: the reference is ticked every
// cycle, the subject only at its advertised wakes. Any wake that lands too
// late shows up as diverging completions, acceptance, or final counters;
// the reference's off-wake ticks prove spurious ticks are harmless.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/serialize.hpp"
#include "dram/channel.hpp"
#include "dram/dram_system.hpp"
#include "dramcache/policy_registry.hpp"
#include "dramcache/redcache.hpp"
#include "sim/presets.hpp"
#include "verify/fuzz_trace.hpp"

namespace redcache {
namespace {

struct ScheduledRef {
  Cycle at = 0;
  Addr addr = 0;
  bool is_write = false;
};

/// Merge the fuzz trace's per-core streams into one time-ordered schedule
/// (each core's clock advances by its own gaps).
std::vector<ScheduledRef> BuildSchedule(std::uint64_t seed, Addr addr_mod) {
  FuzzTraceParams params;
  params.seed = seed;
  params.cores = 2;
  params.refs_per_core = 1200;
  FuzzTraceSource trace(params);

  std::vector<ScheduledRef> refs;
  for (std::uint32_t core = 0; core < trace.num_cores(); ++core) {
    Cycle t = 0;
    MemRef r;
    while (trace.Next(core, r)) {
      t += r.gap;
      refs.push_back({t, (r.addr % addr_mod) & ~Addr{63}, r.is_write});
    }
  }
  std::stable_sort(refs.begin(), refs.end(),
                   [](const ScheduledRef& a, const ScheduledRef& b) {
                     return a.at < b.at;
                   });
  return refs;
}

TEST(WakeConservative, DramSystemMatchesPerCycleReference) {
  const auto refs = BuildSchedule(/*seed=*/7, /*addr_mod=*/4_MiB);

  DramSystem ref(HbmCacheConfig(4_MiB));
  DramSystem sub(HbmCacheConfig(4_MiB));
  std::vector<DramCompletion> done_ref, done_sub;
  Cycle sub_wake = 0;
  std::uint64_t sub_ticks = 0;
  std::size_t cursor = 0;
  Cycle now = 0;

  const auto drain = [](DramSystem& sys, std::vector<DramCompletion>& out) {
    auto& c = sys.completions();
    out.insert(out.end(), c.begin(), c.end());
    c.clear();
  };

  while (cursor < refs.size() || !ref.TransactionQueuesEmpty() ||
         !sub.TransactionQueuesEmpty() || ref.inflight() != 0 ||
         sub.inflight() != 0) {
    ASSERT_LT(now, Cycle{50'000'000}) << "drain did not converge";
    if (cursor < refs.size() && now >= refs[cursor].at) {
      const ScheduledRef& r = refs[cursor];
      const bool can_ref = ref.CanAccept(r.addr);
      ASSERT_EQ(can_ref, sub.CanAccept(r.addr)) << "cycle " << now;
      if (can_ref) {
        ref.Enqueue(r.addr, r.is_write, now);
        sub.Enqueue(r.addr, r.is_write, now);
        sub_wake = std::min(sub_wake, sub.NextEventHint(now));
        ++cursor;
      }
    }
    ref.Tick(now);
    drain(ref, done_ref);
    if (now >= sub_wake) {
      sub.Tick(now);
      sub_wake = sub.NextEventHint(now);
      ++sub_ticks;
      drain(sub, done_sub);
    }
    ++now;
  }

  ASSERT_EQ(done_ref.size(), done_sub.size());
  for (std::size_t i = 0; i < done_ref.size(); ++i) {
    EXPECT_EQ(done_ref[i].addr, done_sub[i].addr) << "completion " << i;
    EXPECT_EQ(done_ref[i].done, done_sub[i].done) << "completion " << i;
    EXPECT_EQ(done_ref[i].is_write, done_sub[i].is_write) << "completion " << i;
  }

  // Under load the channel is due almost every DRAM cycle, so the busy
  // phase only proves some skipping happened; the idle window below is
  // where the wake list must earn its keep (refresh wakes only).
  EXPECT_LT(sub_ticks, now) << "wake gating never skipped a cycle";

  const Cycle idle_end = now + 30000;
  std::uint64_t idle_ticks = 0;
  while (now < idle_end) {
    ref.Tick(now);
    drain(ref, done_ref);
    if (now >= sub_wake) {
      sub.Tick(now);
      sub_wake = sub.NextEventHint(now);
      ++idle_ticks;
      drain(sub, done_sub);
    }
    ++now;
  }
  EXPECT_LT(idle_ticks, 30000 / 10)
      << "idle channels must sleep between refresh wakes";

  StatSet stats_ref, stats_sub;
  ref.ExportStats(stats_ref);
  sub.ExportStats(stats_sub);
  EXPECT_EQ(stats_ref.counters(), stats_sub.counters());
}

/// Drive `policy` twice with `refs`: a reference ticked every cycle and a
/// subject ticked only at its advertised wakes (or on new input). Asserts
/// identical completions and counters and returns the subject's tick count
/// and the cycle the run ended at. `on_sub_tick(sub, now, wake)` sees the
/// subject after each of its ticks.
template <typename OnSubTick>
std::pair<std::uint64_t, Cycle> RunAgainstPerCycleReference(
    const std::string& policy, const MemControllerConfig& cfg,
    const std::vector<ScheduledRef>& refs, OnSubTick on_sub_tick) {
  auto ref = MakePolicy(policy, cfg);
  auto sub = MakePolicy(policy, cfg);
  std::vector<ReadCompletion> done_ref, done_sub;
  Cycle sub_wake = 0;
  std::uint64_t sub_ticks = 0;
  std::uint64_t next_tag = 1;
  std::size_t cursor = 0;
  Cycle now = 0;

  const auto drain = [](MemController& c, std::vector<ReadCompletion>& out) {
    auto& done = c.read_completions();
    out.insert(out.end(), done.begin(), done.end());
    done.clear();
  };

  while (cursor < refs.size() || !ref->Idle() || !sub->Idle()) {
    EXPECT_LT(now, Cycle{50'000'000}) << "drain did not converge";
    if (now >= Cycle{50'000'000}) break;
    bool submitted = false;
    if (cursor < refs.size() && now >= refs[cursor].at) {
      const ScheduledRef& r = refs[cursor];
      const bool can_ref =
          r.is_write ? ref->CanAcceptWriteback() : ref->CanAcceptRead();
      const bool can_sub =
          r.is_write ? sub->CanAcceptWriteback() : sub->CanAcceptRead();
      EXPECT_EQ(can_ref, can_sub) << "cycle " << now;
      if (can_ref && can_sub) {
        if (r.is_write) {
          ref->SubmitWriteback(r.addr, now);
          sub->SubmitWriteback(r.addr, now);
        } else {
          ref->SubmitRead(r.addr, next_tag, now);
          sub->SubmitRead(r.addr, next_tag, now);
          ++next_tag;
        }
        submitted = true;
        ++cursor;
      }
    }
    ref->Tick(now);
    drain(*ref, done_ref);
    if (submitted || now >= sub_wake) {
      sub_wake = sub->Tick(now);
      ++sub_ticks;
      drain(*sub, done_sub);
      on_sub_tick(*sub, now, sub_wake);
    }
    ++now;
  }

  EXPECT_EQ(done_ref.size(), done_sub.size());
  for (std::size_t i = 0; i < std::min(done_ref.size(), done_sub.size());
       ++i) {
    EXPECT_EQ(done_ref[i].tag, done_sub[i].tag) << "completion " << i;
    EXPECT_EQ(done_ref[i].addr, done_sub[i].addr) << "completion " << i;
    EXPECT_EQ(done_ref[i].done, done_sub[i].done) << "completion " << i;
  }

  StatSet stats_ref, stats_sub;
  ref->ExportStats(stats_ref);
  sub->ExportStats(stats_sub);
  EXPECT_EQ(stats_ref.counters(), stats_sub.counters());
  return {sub_ticks, now};
}

class ControllerWakeConservative
    : public ::testing::TestWithParam<std::string> {};

TEST_P(ControllerWakeConservative, MatchesPerCycleReference) {
  MemControllerConfig cfg;
  cfg.hbm = HbmCacheConfig(1_MiB);
  cfg.mainmem = MainMemoryConfig(64_MiB);
  const auto refs = BuildSchedule(/*seed=*/11, /*addr_mod=*/32_MiB);
  const auto [sub_ticks, end] = RunAgainstPerCycleReference(
      GetParam(), cfg, refs, [](const MemController&, Cycle, Cycle) {});
  EXPECT_LT(sub_ticks, end / 2) << "wake gating never skipped a cycle";
}

// RCU drain condition 2 fires per channel: an update parked for a channel
// whose queue is busy must not make the controller poll just because some
// other channel is idle. Repeated reads of blocks whose cache slots share
// one HBM channel park updates for it while it serves their probes; the
// remaining channels sit idle.
TEST(WakeConservative, RedCacheDoesNotPollForUpdatesParkedOnBusyChannel) {
  MemControllerConfig cfg;
  cfg.hbm = HbmCacheConfig(1_MiB);
  cfg.mainmem = MainMemoryConfig(64_MiB);
  cfg.alpha_pin = 1;  // install on first reuse: read hits start early

  const DramSystem probe_map(cfg.hbm);
  std::vector<Addr> blocks;
  for (Addr a = 0; blocks.size() < 48; a += 64) {
    // Direct-mapped: block `a` below the HBM capacity caches at HBM `a`.
    if (probe_map.ChannelOf(a) == 0) blocks.push_back(a);
  }
  std::vector<ScheduledRef> refs;
  Cycle at = 0;
  for (int round = 0; round < 40; ++round) {
    for (const Addr a : blocks) refs.push_back({at += 3, a, false});
  }

  std::uint64_t busy_only_parks = 0;
  std::uint64_t quiet_wakes = 0;
  RunAgainstPerCycleReference(
      "RedCache", cfg, refs,
      [&](const MemController& c, Cycle now, Cycle wake) {
        const auto& red = dynamic_cast<const RedCacheController&>(c);
        const DramSystem& hbm = *red.hbm();
        // The incremental mask PolicyTick/PolicyWake read must agree with
        // the queues themselves at every visit.
        for (std::uint32_t ch = 0; ch < hbm.num_channels(); ++ch) {
          ASSERT_EQ((hbm.empty_queue_mask() >> ch & 1) != 0,
                    hbm.ChannelTransactionQueueEmpty(ch))
              << "channel " << ch << " at cycle " << now;
        }
        if (red.rcu().size() == 0) return;
        bool parked_busy = true;
        for (const RcuManager::Entry& e : red.rcu().entries()) {
          parked_busy &= !hbm.ChannelTransactionQueueEmpty(e.loc.channel);
        }
        bool some_idle = false;
        for (std::uint32_t ch = 0; ch < hbm.num_channels(); ++ch) {
          some_idle |= hbm.ChannelTransactionQueueEmpty(ch);
        }
        if (!parked_busy || !some_idle) return;
        ++busy_only_parks;
        EXPECT_EQ(wake, c.NextEventHint(now));
        if (wake > now + 1) ++quiet_wakes;
      });
  ASSERT_GT(busy_only_parks, 0u) << "scenario never parked an update";
  EXPECT_GT(quiet_wakes, 0u)
      << "parked updates on a busy channel still force a visit every cycle";
}

std::uint64_t Commands(const ChannelCounters& c) {
  return c.activates + c.precharges + c.refreshes + c.read_bursts +
         c.write_bursts;
}

/// One channel fed `refs` (every request mapped onto it), ticked only at
/// its wakes, against a reference ticked every cycle that round-trips
/// through Snapshot/Restore after each tick. A restore discards any
/// pre-pass kept for the next command slot, so the reference recomputes
/// every slot's pre-pass with all arrivals in view. Returns how many
/// requests arrived between an issue and the next command slot.
std::uint64_t ExpectChannelMatchesReference(
    const DramConfig& cfg, const std::vector<ScheduledRef>& refs) {
  const AddressMapper mapper(cfg.geometry);
  DramChannel ref(cfg, 0);
  DramChannel sub(cfg, 0);
  std::vector<DramCompletion> done_ref, done_sub;
  Cycle sub_wake = 0;
  Cycle next_slot = 0;  // command slot after the reference's last issue
  std::uint64_t between = 0;
  RequestId next_id = 1;
  std::size_t cursor = 0;
  Cycle now = 0;

  while (cursor < refs.size() || !ref.QueueEmpty() || !sub.QueueEmpty()) {
    EXPECT_LT(now, Cycle{50'000'000}) << "drain did not converge";
    if (now >= Cycle{50'000'000}) break;
    while (cursor < refs.size() && now >= refs[cursor].at &&
           ref.CanAccept() && sub.CanAccept()) {
      DramRequest req;
      req.id = next_id++;
      req.addr = refs[cursor].addr;
      req.loc = mapper.Map(req.addr);
      req.is_write = refs[cursor].is_write;
      req.arrival = now;
      ref.Enqueue(req);
      sub.Enqueue(req);
      sub_wake = std::min(sub_wake, sub.EnqueueWake());
      if (now <= next_slot) ++between;
      ++cursor;
    }
    EXPECT_EQ(ref.CanAccept(), sub.CanAccept()) << "cycle " << now;
    const std::uint64_t issued = Commands(ref.counters());
    ref.Tick(now, done_ref);
    if (Commands(ref.counters()) != issued) {
      next_slot = now + kCpuCyclesPerDramCycle;
    }
    ser::Writer w;
    ref.Snapshot(w);
    ser::Reader r(w.buffer().data(), w.buffer().size());
    ref.Restore(r);
    if (now >= sub_wake) {
      sub.Tick(now, done_sub);
      sub_wake = sub.NextEventHint(now);
    }
    ++now;
  }

  EXPECT_EQ(done_ref.size(), done_sub.size());
  for (std::size_t i = 0; i < std::min(done_ref.size(), done_sub.size());
       ++i) {
    EXPECT_EQ(done_ref[i].id, done_sub[i].id) << "completion " << i;
    EXPECT_EQ(done_ref[i].done, done_sub[i].done) << "completion " << i;
  }
  const ChannelCounters& a = ref.counters();
  const ChannelCounters& b = sub.counters();
  EXPECT_EQ(a.activates, b.activates);
  EXPECT_EQ(a.precharges, b.precharges);
  EXPECT_EQ(a.read_bursts, b.read_bursts);
  EXPECT_EQ(a.write_bursts, b.write_bursts);
  EXPECT_EQ(a.turnarounds_rw + a.turnarounds_wr,
            b.turnarounds_rw + b.turnarounds_wr);
  EXPECT_EQ(a.queue_wait_cycles, b.queue_wait_cycles);
  return between;
}

/// An address on rank 0, `bank`, `row` of a one-channel device.
Addr AddrAt(const AddressMapper& mapper, std::uint32_t bank,
            std::uint64_t row) {
  for (Addr a = 0;; a += 64) {
    const DramAddress loc = mapper.Map(a);
    if (loc.rank == 0 && loc.bank == bank && loc.row == row) return a;
  }
}

// After a command issues, a channel runs the next slot's pre-pass at once
// and keeps its per-bank due flags for that slot. A request that arrives
// before the slot must void them. Crafted case: a precharge issues at 112
// while only bank 2's activate is due at the next slot (114); bank 1 waits
// to precharge for a row conflict. A read hitting bank 1's open row arrives
// at 113 and must win slot 114 over the activate, which only a pre-pass
// recomputed with that read in view allows.
TEST(WakeConservative, ChannelEnqueueDiscardsIssueTimePrepass) {
  DramConfig cfg = HbmCacheConfig(8_MiB);
  cfg.geometry.channels = 1;
  const AddressMapper mapper(cfg.geometry);
  const auto find = [&mapper](std::uint32_t bank, std::uint64_t row) {
    return AddrAt(mapper, bank, row);
  };
  const std::vector<ScheduledRef> crafted = {
      {0, find(3, 0), false},    // bank 3: activate 0, read 44
      {30, find(1, 0), false},   // bank 1: activate 30, read 74
      {100, find(1, 1), false},  // bank 1 row conflict: precharge from 142
      {110, find(3, 1), false},  // bank 3 row conflict: precharge at 112
      {111, find(2, 0), false},  // bank 2 closed: activate due at 114
      {113, find(1, 0), false},  // row hit on bank 1, ready at 114
  };
  EXPECT_GT(ExpectChannelMatchesReference(cfg, crafted), 0u);

  // Fuzz gaps land many more arrivals between an issue and its next slot.
  EXPECT_GT(ExpectChannelMatchesReference(
                cfg, BuildSchedule(/*seed=*/5, /*addr_mod=*/8_MiB)),
            0u);
}

/// A read arriving at `at`, enqueued before or after that cycle's
/// device tick.
struct Arrival {
  Cycle at = 0;
  Addr addr = 0;
  bool after_tick = false;
};

/// Cycle of every command a one-channel DramSystem, ticked every cycle,
/// issues for `arrivals`, with the counter that moved (0 activate,
/// 1 precharge, 2 column). At the top of cycle `restore_at` the device is
/// checkpointed and the run continues in a fresh one restored from it.
std::vector<std::pair<Cycle, int>> CommandTimeline(
    const DramConfig& cfg, const std::vector<Arrival>& arrivals,
    Cycle restore_at = ~Cycle{0}) {
  auto sys_ptr = std::make_unique<DramSystem>(cfg);
  std::vector<std::pair<Cycle, int>> timeline;
  const auto enqueue = [&](Cycle now, bool after_tick) {
    for (const Arrival& a : arrivals) {
      if (a.at == now && a.after_tick == after_tick) {
        sys_ptr->Enqueue(a.addr, /*is_write=*/false, now);
      }
    }
  };
  for (Cycle now = 0; now < 2000; ++now) {
    if (now == restore_at) {
      ser::Writer w;
      sys_ptr->Snapshot(w);
      sys_ptr = std::make_unique<DramSystem>(cfg);
      ser::Reader r(w.buffer().data(), w.buffer().size());
      sys_ptr->Restore(r);
    }
    DramSystem& sys = *sys_ptr;
    enqueue(now, /*after_tick=*/false);
    const ChannelCounters before = sys.channel_counters(0);
    sys.Tick(now);
    sys.completions().clear();
    const ChannelCounters& after = sys.channel_counters(0);
    if (after.activates != before.activates) timeline.push_back({now, 0});
    if (after.precharges != before.precharges) timeline.push_back({now, 1});
    if (after.read_bursts != before.read_bursts) timeline.push_back({now, 2});
    enqueue(now, /*after_tick=*/true);
  }
  return timeline;
}

// With nothing due at the next slot, the issue-time pre-pass sleeps past
// it at once. A request that arrives before that slot's pass takes the
// early sleep back, so the pass still runs with the request in view: the
// anti-starvation check runs only in passes, and a different wake can
// issue a starved head's command at a different cycle. Crafted case
// (starvation after 40 cycles): bank 1 keeps row 0 open, the head
// (arrival 70) wants its row 1, and a read that hits row 0 arrives around
// slot 106, right after a column issued at 104. Arriving before the slot's
// pass (at 105, or at 106 ahead of the device tick) must give the commands
// of an arrival before the issue; arriving after the pass (at 106 behind
// the device tick) those of an arrival at 107. The early sleep is
// checkpointed, so a restore between the issue and the arrival keeps this.
TEST(WakeConservative, ChannelArrivalBeforeSlotTakesBackEarlySleep) {
  DramConfig cfg = HbmCacheConfig(8_MiB);
  cfg.geometry.channels = 1;
  cfg.controller.starvation_cycles = 40;
  const AddressMapper mapper(cfg.geometry);
  const auto timeline = [&](Cycle hit_at, bool after_tick,
                            Cycle restore_at = ~Cycle{0}) {
    return CommandTimeline(
        cfg,
        {{0, AddrAt(mapper, 1, 0)},   // bank 1 opens row 0
         {60, AddrAt(mapper, 2, 0)},  // column at 104
         {70, AddrAt(mapper, 1, 1)},  // head, starved from 111
         {hit_at, AddrAt(mapper, 1, 0), after_tick}},
        restore_at);
  };
  const auto before_issue = timeline(103, false);
  const auto after_slot = timeline(107, false);
  ASSERT_NE(before_issue, after_slot) << "the case no longer tells them apart";
  EXPECT_EQ(timeline(105, false), before_issue);
  EXPECT_EQ(timeline(106, false), before_issue);
  EXPECT_EQ(timeline(106, true), after_slot);
  EXPECT_EQ(timeline(105, false, /*restore_at=*/105), before_issue);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, ControllerWakeConservative,
    ::testing::Values("Alloy", "Bear", "Red-Basic", "RedCache", "Banshee",
                      "TicToc"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      name.erase(std::remove_if(name.begin(), name.end(),
                                [](char c) {
                                  return !std::isalnum(
                                      static_cast<unsigned char>(c));
                                }),
                 name.end());
      return name;
    });

}  // namespace
}  // namespace redcache
