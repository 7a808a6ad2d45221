// Brute-force FR-FCFS oracle for the fused per-bank pick.
//
// The channel picks its next command as the minimum (class, arrival
// sequence) key over incrementally kept per-bank summaries. The reference
// below is a plain arrival-order scheduler pass: walk every queued
// transaction oldest first, ask each for its required command and
// ready cycle, and issue the first ready read column (any column while
// writes drain), else the first ready write column, else the first ready
// activate/precharge the open-row guard does not block. It keeps no
// per-bank state at all.
//
// Two channels receive the same requests, cycle by cycle (seeded random
// traffic, and a scripted case for continuations while writes drain):
// one runs its own Tick, the other the reference pass (sharing only the
// command-issue, refresh and delivery code, which the pick does not
// touch). Their issued commands, sleep targets, wakes, completions and
// full checkpoint bytes must match at every command slot. The channel
// under test is periodically replaced by a restored copy of itself, so the
// per-bank state rebuilt from a checkpoint is checked too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "dram/channel.hpp"
#include "dram/timing.hpp"

namespace redcache {

/// Test access to DramChannel's scheduler internals (a friend of the
/// channel). Holds the reference scheduler pass.
class ChannelOraclePeer {
 public:
  /// Scenario coverage of the reference runs, so a test can prove its
  /// traffic reached every special case.
  struct Coverage {
    std::uint64_t starved_issues = 0;
    std::uint64_t continuation_issues = 0;
    std::uint64_t drain_write_issues = 0;
    std::uint64_t blocked_precharges = 0;
    std::uint64_t refresh_in_flight = 0;
    std::uint64_t voided_prepass = 0;
    std::uint64_t row_commands = 0;
    /// Write continuation bursts issued while writes drain and tCCD still
    /// holds the bank's other columns: due only through the fold.
    std::uint64_t drain_fold_continuations = 0;
    /// ...of which the stream was interrupted since its previous burst by
    /// a refresh command or a starved head's command.
    std::uint64_t held_by_refresh = 0;
    std::uint64_t held_by_starved_head = 0;
    // Reference-side bookkeeping for the two counters above.
    Cycle continuation_burst = 0;  ///< last burst of the continuation
    Cycle refresh_command = 0;     ///< last refresh precharge or refresh
    Cycle starved_command = 0;     ///< last starved command of another head
  };

  static Cycle SleepUntil(const DramChannel& c) { return c.sleep_until_; }
  static Cycle PrepassSlot(const DramChannel& c) { return c.prepass_slot_; }
  static bool PrepassSlept(const DramChannel& c) {
    return c.prepass_slot_ != DramChannel::kNever &&
           c.prepass_pick_ == DramChannel::kNoPick;
  }

  /// DramChannel::Tick with the scheduler pass replaced by the reference.
  static Cycle ReferenceTick(DramChannel& c, Cycle now,
                             std::vector<DramCompletion>& done,
                             Coverage& cov) {
    if (c.pending_done_min_ <= now) {
      std::size_t keep = 0;
      Cycle next_min = DramChannel::kNever;
      for (std::size_t i = 0; i < c.pending_done_.size(); ++i) {
        if (c.pending_done_[i].done <= now) {
          done.push_back(c.pending_done_[i]);
        } else {
          next_min = std::min(next_min, c.pending_done_[i].done);
          c.pending_done_[keep++] = c.pending_done_[i];
        }
      }
      c.pending_done_.resize(keep);
      c.pending_done_min_ = next_min;
    }
    if (now % kCpuCyclesPerDramCycle == 0 && now >= c.next_cmd_slot_ &&
        now >= c.sleep_until_) {
      ReferencePass(c, now, cov);
    }
    return c.NextEventHint(now);
  }

 private:
  using Action = DramChannel::Action;

  struct Decision {
    Action act = Action::kNone;
    std::int32_t slot = -1;
  };

  /// The arrival-order FR-FCFS walk over every queued transaction. Folds
  /// the ready cycle of every command it could wait on into `min_ready`.
  static Decision Walk(const DramChannel& c, Cycle now, Cycle& min_ready,
                       Coverage* cov) {
    const bool drain_writes =
        2 * c.write_count_ > c.cfg_.controller.queue_depth;
    std::int32_t open_pick = -1;
    Action open_action = Action::kNone;
    std::int32_t write_pick = -1;
    for (std::int32_t i = c.q_head_; i >= 0;
         i = c.q_[static_cast<std::size_t>(i)].next) {
      const auto& q = c.q_[static_cast<std::size_t>(i)];
      Cycle ready = DramChannel::kNever;
      const Action act = c.RequiredAction(i, ready);
      if (act == Action::kColumn && ready <= now) {
        if (q.is_write == 0 || drain_writes) {
          if (cov != nullptr && q.is_write != 0) cov->drain_write_issues++;
          return {Action::kColumn, i};
        }
        if (write_pick < 0) write_pick = i;
        continue;
      }
      if (act == Action::kPrecharge &&
          c.open_reads_[q.bank] + c.open_writes_[q.bank] != 0) {
        // Do not close a row another queued transaction still wants.
        if (cov != nullptr && ready <= now) cov->blocked_precharges++;
        continue;
      }
      min_ready = std::min(min_ready, ready);
      if (ready > now) continue;
      if (act != Action::kColumn && open_pick < 0) {
        open_pick = i;
        open_action = act;
      }
    }
    if (write_pick >= 0) return {Action::kColumn, write_pick};
    if (open_pick >= 0) return {open_action, open_pick};
    return {};
  }

  static void Issue(DramChannel& c, const Decision& d, Cycle now,
                    Coverage& cov) {
    if (d.act == Action::kColumn) {
      if (d.slot == c.cont_slot_) {
        cov.continuation_issues++;
        const bool drain_writes =
            2 * c.write_count_ > c.cfg_.controller.queue_depth;
        if (c.cont_write_ && drain_writes &&
            c.lanes_.ColumnReady(c.cont_bank_, true) > now) {
          cov.drain_fold_continuations++;
          const Cycle last = cov.continuation_burst;
          if (cov.refresh_command > last) cov.held_by_refresh++;
          if (cov.starved_command > last) cov.held_by_starved_head++;
        }
      }
      c.IssueColumn(d.slot, now);
      if (c.cont_slot_ == d.slot) cov.continuation_burst = now;
    } else if (d.act == Action::kActivate) {
      cov.row_commands++;
      c.IssueActivate(d.slot, now);
    } else {
      cov.row_commands++;
      c.IssuePrecharge(c.q_[static_cast<std::size_t>(d.slot)].bank, now);
    }
  }

  static void ReferencePass(DramChannel& c, Cycle now, Coverage& cov) {
    c.prepass_slot_ = DramChannel::kNever;
    Cycle min_ready = DramChannel::kNever;
    if (c.MaybeRefresh(now, min_ready)) {
      cov.refresh_command = now;
      return;
    }
    if (c.q_size_ == 0) {
      c.sleep_until_ = min_ready == DramChannel::kNever
                           ? now + c.cfg_.timing.tREFI
                           : min_ready;
      return;
    }
    if (c.HeadArrival() + c.cfg_.controller.starvation_cycles < now) {
      Cycle head_ready = DramChannel::kNever;
      const Action head_act = c.RequiredAction(c.q_head_, head_ready);
      if (head_ready <= now) {
        cov.starved_issues++;
        if (c.q_head_ != c.cont_slot_) cov.starved_command = now;
        Issue(c, {head_act, c.q_head_}, now, cov);
        ReferencePrepass(c);
        return;
      }
      min_ready = std::min(min_ready, head_ready);
    }
    const Decision d = Walk(c, now, min_ready, &cov);
    if (d.act != Action::kNone) {
      Issue(c, d, now, cov);
      ReferencePrepass(c);
      return;
    }
    c.sleep_until_ = min_ready == DramChannel::kNever
                         ? now + kCpuCyclesPerDramCycle
                         : std::max(min_ready, now + kCpuCyclesPerDramCycle);
  }

  /// The issue-time pre-pass with the walk in place of the pick. Only the
  /// state Enqueue and the next pass read is set: whether the slot sleeps,
  /// and the sleep target it replaced.
  static void ReferencePrepass(DramChannel& c) {
    const Cycle slot = c.next_cmd_slot_;
    if (c.q_size_ == 0 || slot >= c.refresh_wake_ ||
        c.HeadArrival() + c.cfg_.controller.starvation_cycles < slot) {
      return;
    }
    Cycle min_ready = c.refresh_wake_;
    const Decision d = Walk(c, slot, min_ready, nullptr);
    c.prepass_slot_ = slot;
    if (d.act != Action::kNone) {
      c.prepass_pick_ = 0;  // any pick: the slot's pass will issue
      return;
    }
    c.prepass_pick_ = DramChannel::kNoPick;
    c.prepass_saved_sleep_ = c.sleep_until_;
    c.sleep_until_ = min_ready == DramChannel::kNever
                         ? slot + kCpuCyclesPerDramCycle
                         : std::max(min_ready, slot + kCpuCyclesPerDramCycle);
  }
};

namespace {

std::vector<std::uint8_t> Blob(const DramChannel& c) {
  ser::Writer w;
  c.Snapshot(w);
  return w.buffer();
}

struct OracleCase {
  const char* name;
  DramConfig cfg;
};

/// The two timing sets, one channel each. Refresh and starvation are
/// tightened so a 10^5-slot run meets them often; the queue stays at the
/// preset depth so the write-drain watermark is the real one.
std::vector<OracleCase> Cases() {
  std::vector<OracleCase> out;
  for (DramConfig cfg : {HbmCacheConfig(8_MiB), MainMemoryConfig(64_MiB)}) {
    cfg.geometry.channels = 1;
    cfg.timing.tREFI = 6000;
    cfg.controller.starvation_cycles = 1500;
    out.push_back({cfg.name == "hbm" ? "hbm" : "ddr4", cfg});
  }
  return out;
}

/// Fills `r` (rank, bank, row, column, direction, bursts) with the request
/// to enqueue at `now`, before (`after_pass` false) or after that cycle's
/// scheduler pass, or returns false to enqueue none. Called only while the
/// queue has room.
using Traffic = std::function<bool(Cycle now, bool after_pass,
                                   DramRequest& r)>;

/// Drives `slots` command slots of `traffic` into both channels and checks
/// them against each other at every cycle.
void RunLockstep(const DramConfig& cfg, Cycle slots, const Traffic& traffic,
                 ChannelOraclePeer::Coverage& cov) {
  using Peer = ChannelOraclePeer;
  auto test = std::make_unique<DramChannel>(cfg, 0);
  DramChannel ref(cfg, 0);
  std::vector<DramCompletion> done_test;
  std::vector<DramCompletion> done_ref;
  RequestId next_id = 1;

  const auto enqueue = [&](Cycle now, bool slot_ticked) {
    DramRequest r;
    if (!test->CanAccept() || !traffic(now, slot_ticked, r)) return;
    r.id = next_id++;
    r.loc.channel = 0;
    r.addr = r.id * kBlockBytes;
    r.arrival = now;
    if (test->RankRefreshing(r.loc.rank, now)) cov.refresh_in_flight++;
    if (Peer::PrepassSlot(*test) != ~Cycle{0} &&
        Peer::PrepassSlot(*test) >= now) {
      cov.voided_prepass++;
    }
    test->Enqueue(r, slot_ticked);
    ref.Enqueue(r, slot_ticked);
  };

  const Cycle horizon = slots * kCpuCyclesPerDramCycle;
  for (Cycle now = 0; now < horizon; ++now) {
    enqueue(now, false);
    const ChannelCounters before = test->counters();
    const Cycle wake_test = test->Tick(now, done_test);
    const Cycle wake_ref = Peer::ReferenceTick(ref, now, done_ref, cov);

    ASSERT_EQ(Peer::SleepUntil(*test), Peer::SleepUntil(ref))
        << "sleep target diverged at cycle " << now;
    ASSERT_EQ(Peer::PrepassSlept(*test), Peer::PrepassSlept(ref))
        << "pre-pass outcome diverged at cycle " << now;
    ASSERT_EQ(wake_test, wake_ref) << "wake diverged at cycle " << now;
    ASSERT_EQ(done_test.size(), done_ref.size()) << "at cycle " << now;
    const ChannelCounters& ct = test->counters();
    const ChannelCounters& cr = ref.counters();
    ASSERT_EQ(ct.activates, cr.activates) << "at cycle " << now;
    ASSERT_EQ(ct.precharges, cr.precharges) << "at cycle " << now;
    ASSERT_EQ(ct.refreshes, cr.refreshes) << "at cycle " << now;
    ASSERT_EQ(ct.read_bursts, cr.read_bursts) << "at cycle " << now;
    ASSERT_EQ(ct.write_bursts, cr.write_bursts) << "at cycle " << now;
    const bool issued = ct.activates + ct.precharges + ct.refreshes +
                            ct.read_bursts + ct.write_bursts !=
                        before.activates + before.precharges +
                            before.refreshes + before.read_bursts +
                            before.write_bursts;
    if (issued) {
      // Same command on the same transaction: queue, lanes, pacing and
      // counters serialize identically.
      ASSERT_EQ(Blob(*test), Blob(ref)) << "state diverged at cycle " << now;
    }

    // An enqueue after the cycle's pass, possibly between an issue and
    // the slot its pre-pass already decided.
    enqueue(now, true);

    // Replace the channel under test by a restored copy of itself: its
    // arrival sequences and per-bank oldest entries are rebuilt from the
    // queue.
    if (now % 25013 == 25012) {
      const std::vector<std::uint8_t> blob = Blob(*test);
      auto restored = std::make_unique<DramChannel>(cfg, 0);
      ser::Reader r(blob.data(), blob.size());
      restored->Restore(r);
      ASSERT_EQ(Blob(*restored), blob);
      test = std::move(restored);
    }
  }
  for (std::size_t i = 0; i < done_test.size(); ++i) {
    ASSERT_EQ(done_test[i].id, done_ref[i].id);
    ASSERT_EQ(done_test[i].done, done_ref[i].done);
  }
  EXPECT_GT(done_test.size(), slots / 50);
  EXPECT_GT(test->counters().refreshes, 0u);
}

/// Seeded random traffic over a few hot banks and rows, in load phases.
void RunOracle(const DramConfig& cfg, std::uint64_t seed, Cycle slots,
               ChannelOraclePeer::Coverage& cov) {
  Rng rng(seed);
  const std::uint32_t ranks = cfg.geometry.ranks_per_channel;
  const std::uint32_t banks = cfg.geometry.banks_per_rank;
  const Traffic random = [&](Cycle now, bool after_pass, DramRequest& r) {
    // Load phases (percent chance of a request per cycle, half that after
    // the pass): bursts that fill the queue past the write-drain
    // watermark, and a silent phase that lets it empty, so blocked
    // refreshes complete and idle passes sleep.
    constexpr std::uint64_t kRate[] = {0, 30, 60, 5};
    const std::uint64_t rate = kRate[(now / 4000) % 4];
    if (rng.Below(100) >= (after_pass ? rate / 2 : rate)) return false;
    r.loc.rank = static_cast<std::uint32_t>(rng.Below(ranks));
    // A few hot banks and rows, so hits, conflicts and shared rows are all
    // common.
    r.loc.bank = static_cast<std::uint32_t>(rng.Below(std::min(banks, 6u)));
    r.loc.row = rng.Below(4);
    r.loc.column = static_cast<std::uint32_t>(rng.Below(32));
    r.is_write = rng.Below(100) < 45;
    r.bursts = rng.Below(100) < 40 ? 1 + static_cast<std::uint32_t>(
                                             rng.Below(4))
                                   : 1;
    return true;
  };
  RunLockstep(cfg, slots, random, cov);
}

TEST(FrFcfsOracle, FusedPickMatchesArrivalOrderWalk) {
  for (const OracleCase& c : Cases()) {
    SCOPED_TRACE(c.name);
    ChannelOraclePeer::Coverage cov;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      RunOracle(c.cfg, seed, 60000, cov);
      if (HasFatalFailure()) return;
    }
    // The traffic reached every special case the pick must reproduce.
    EXPECT_GT(cov.starved_issues, 0u);
    EXPECT_GT(cov.continuation_issues, 0u);
    EXPECT_GT(cov.drain_write_issues, 0u);
    EXPECT_GT(cov.blocked_precharges, 0u);
    EXPECT_GT(cov.refresh_in_flight, 0u);
    EXPECT_GT(cov.voided_prepass, 0u);
    EXPECT_GT(cov.row_commands, 0u);
  }
}

/// A write continuation held back while writes drain, on DDR4 timing:
/// tCCD (61 cycles) outlasts a burst (10), so every follow-up burst is due
/// only through the pick's continuation fold. A request arrives whenever
/// the queue has room, so it stays full of writes (7 in 8) and writes
/// drain; rank 0's bank 0 takes four-burst writes. Refresh precharges
/// (every 3000 cycles) and starved heads (after 400) interrupt the streams.
/// The last 1000 of every 6000 cycles bring no requests: the queue empties
/// and the refreshes whose precharges began can run.
TEST(FrFcfsOracle, HeldBackContinuationWhileDrainingMatchesWalk) {
  DramConfig cfg = MainMemoryConfig(64_MiB);
  cfg.geometry.channels = 1;
  cfg.timing.tREFI = 3000;
  cfg.controller.starvation_cycles = 400;
  std::uint32_t n = 0;
  const Traffic full = [&n](Cycle now, bool after_pass, DramRequest& r) {
    if (after_pass || now % 6000 >= 5000) return false;
    const std::uint32_t k = n++;
    r.is_write = k % 8 != 7;
    r.loc.rank = (k / 2) % 2;
    r.loc.bank = k % 4 == 0 ? 0 : 1 + k % 3;
    r.loc.row = (k / 16) % 2;
    r.loc.column = k % 32;
    r.bursts = r.loc.rank == 0 && r.loc.bank == 0 && r.is_write ? 4 : 1;
    return true;
  };
  ChannelOraclePeer::Coverage cov;
  RunLockstep(cfg, 30000, full, cov);
  EXPECT_GT(cov.drain_fold_continuations, 0u);
  EXPECT_GT(cov.held_by_refresh, 0u);
  EXPECT_GT(cov.held_by_starved_head, 0u);
}

}  // namespace
}  // namespace redcache
