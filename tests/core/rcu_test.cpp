#include "core/rcu.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

namespace redcache {
namespace {

DramAddress Loc(std::uint32_t ch, std::uint32_t bank, std::uint64_t row) {
  return {.channel = ch, .rank = 0, .bank = bank, .row = row, .column = 0};
}

TEST(Rcu, InsertAndContains) {
  RcuManager rcu(4);
  EXPECT_TRUE(rcu.Insert(0x1000, Loc(0, 0, 1)).empty());
  EXPECT_TRUE(rcu.Contains(0x1000));
  EXPECT_FALSE(rcu.Contains(0x2000));
  EXPECT_EQ(rcu.block_hits(), 1u);
  EXPECT_EQ(rcu.searches(), 2u);
}

TEST(Rcu, DuplicateInsertUpdatesInPlace) {
  RcuManager rcu(4);
  (void)rcu.Insert(0x1000, Loc(0, 0, 1));
  EXPECT_TRUE(rcu.Insert(0x1000, Loc(0, 0, 1)).empty());
  EXPECT_EQ(rcu.size(), 1u);
  EXPECT_EQ(rcu.updates_in_place(), 1u);
}

TEST(Rcu, CapacityEvictsOldest) {
  RcuManager rcu(2);
  (void)rcu.Insert(0xa, Loc(0, 0, 1));
  (void)rcu.Insert(0xb, Loc(0, 0, 2));
  const auto evicted = rcu.Insert(0xc, Loc(0, 0, 3));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].block, 0xau);
  EXPECT_EQ(rcu.capacity_flushes(), 1u);
  EXPECT_EQ(rcu.size(), 2u);
}

TEST(Rcu, MatchIndexPopsSameRowOnly) {
  RcuManager rcu(8, /*channels=*/2);
  (void)rcu.Insert(0x1, Loc(0, 1, 7));
  (void)rcu.Insert(0x2, Loc(0, 1, 7));
  (void)rcu.Insert(0x3, Loc(0, 1, 8));   // other row
  (void)rcu.Insert(0x4, Loc(1, 1, 7));   // other channel
  const auto matched = rcu.MatchIndex(Loc(0, 1, 7));
  EXPECT_EQ(matched.size(), 2u);
  EXPECT_EQ(rcu.size(), 2u);
  EXPECT_EQ(rcu.merged_flushes(), 2u);
}

TEST(Rcu, PopChannelDrainsOnlyThatChannel) {
  RcuManager rcu(8, /*channels=*/2);
  (void)rcu.Insert(0x1, Loc(0, 0, 1));
  (void)rcu.Insert(0x2, Loc(1, 0, 1));
  (void)rcu.Insert(0x3, Loc(0, 2, 9));
  const auto popped = rcu.PopChannel(0);
  EXPECT_EQ(popped.size(), 2u);
  EXPECT_EQ(rcu.size(), 1u);
  EXPECT_TRUE(rcu.Contains(0x2));
  EXPECT_EQ(rcu.idle_flushes(), 2u);
}

TEST(Rcu, RemoveDropsEntry) {
  RcuManager rcu(4);
  (void)rcu.Insert(0x5, Loc(0, 0, 1));
  rcu.Remove(0x5);
  EXPECT_FALSE(rcu.Contains(0x5));
  rcu.Remove(0x5);  // idempotent
  EXPECT_EQ(rcu.size(), 0u);
}

TEST(Rcu, PopAllEmptiesQueue) {
  RcuManager rcu(8);
  for (Addr a = 0; a < 5; ++a) (void)rcu.Insert(a * 64, Loc(0, 0, a));
  EXPECT_EQ(rcu.PopAll().size(), 5u);
  EXPECT_EQ(rcu.size(), 0u);
}

TEST(Rcu, CapacityZeroForceFlushesEveryInsert) {
  RcuManager rcu(0);
  EXPECT_TRUE(rcu.full());
  const auto evicted = rcu.Insert(0x40, Loc(0, 0, 1));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].block, 0x40u);
  EXPECT_EQ(rcu.size(), 0u);
  EXPECT_FALSE(rcu.Contains(0x40));
  EXPECT_EQ(rcu.capacity_flushes(), 1u);
  // Stays degenerate on repeat.
  EXPECT_EQ(rcu.Insert(0x80, Loc(0, 0, 2)).size(), 1u);
  EXPECT_EQ(rcu.capacity_flushes(), 2u);
}

TEST(Rcu, CapacityOneEvictsOnEverySecondInsert) {
  RcuManager rcu(1);
  EXPECT_TRUE(rcu.Insert(0xa, Loc(0, 0, 1)).empty());
  const auto evicted = rcu.Insert(0xb, Loc(0, 0, 2));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].block, 0xau);
  EXPECT_EQ(rcu.size(), 1u);
  EXPECT_TRUE(rcu.Contains(0xb));
}

TEST(Rcu, ForceFlushOrderIsFifo) {
  RcuManager rcu(2);
  (void)rcu.Insert(0x1, Loc(0, 0, 1));
  (void)rcu.Insert(0x2, Loc(0, 0, 2));
  const auto first = rcu.Insert(0x3, Loc(0, 0, 3));
  const auto second = rcu.Insert(0x4, Loc(0, 0, 4));
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(first[0].block, 0x1u);   // oldest leaves first
  EXPECT_EQ(second[0].block, 0x2u);
}

TEST(Rcu, ContainsIsFalseAfterCapacityEviction) {
  RcuManager rcu(1);
  (void)rcu.Insert(0x100, Loc(0, 0, 1));
  (void)rcu.Insert(0x200, Loc(0, 0, 2));
  EXPECT_FALSE(rcu.Contains(0x100));
  EXPECT_TRUE(rcu.Contains(0x200));
}

TEST(Rcu, ContainsIsFalseAfterMatchIndexDrain) {
  RcuManager rcu(4);
  (void)rcu.Insert(0x100, Loc(0, 1, 7));
  ASSERT_EQ(rcu.MatchIndex(Loc(0, 1, 7)).size(), 1u);
  EXPECT_FALSE(rcu.Contains(0x100));
}

TEST(Rcu, FullFlag) {
  RcuManager rcu(2);
  EXPECT_FALSE(rcu.full());
  (void)rcu.Insert(0x1, Loc(0, 0, 1));
  (void)rcu.Insert(0x2, Loc(0, 0, 2));
  EXPECT_TRUE(rcu.full());
}

TEST(Rcu, ParkedCountsMatchScanUnderRandomOps) {
  // Every mutation path keeps the per-channel counts (and the mask of
  // channels with a non-zero count) equal to a scan of the entries:
  // inserts (with and without a capacity eviction), removals, merged and
  // idle drains, PopAll and a checkpoint round trip.
  constexpr std::uint32_t kChannels = 4;
  std::mt19937_64 rng(20261017);
  RcuManager rcu(8, kChannels);
  const auto check = [&rcu](int step) {
    for (std::uint32_t ch = 0; ch < kChannels; ++ch) {
      const auto scanned = std::count_if(
          rcu.entries().begin(), rcu.entries().end(),
          [ch](const RcuManager::Entry& e) { return e.loc.channel == ch; });
      ASSERT_EQ(rcu.parked(ch), static_cast<std::uint32_t>(scanned))
          << "channel " << ch << " after step " << step;
      ASSERT_EQ((rcu.parked_mask() >> ch & 1) != 0, scanned != 0)
          << "parked-mask bit of channel " << ch << " after step " << step;
    }
  };
  const auto pick = [&rng](std::uint64_t n) { return rng() % n; };
  for (int step = 0; step < 5000; ++step) {
    const std::uint64_t op = pick(100);
    const Addr block = pick(24) * 64;
    const DramAddress loc =
        Loc(static_cast<std::uint32_t>(pick(kChannels)),
            static_cast<std::uint32_t>(pick(2)), pick(3));
    if (op < 50) {
      (void)rcu.Insert(block, loc);
    } else if (op < 65) {
      rcu.Remove(block);
    } else if (op < 78) {
      (void)rcu.MatchIndex(loc);
    } else if (op < 92) {
      (void)rcu.PopChannel(loc.channel);
    } else if (op < 94) {
      (void)rcu.PopAll();
    } else {
      ser::Writer w;
      rcu.Snapshot(w);
      RcuManager restored(8, kChannels);
      ser::Reader r(w.buffer().data(), w.buffer().size());
      restored.Restore(r);
      rcu = restored;
    }
    ASSERT_NO_FATAL_FAILURE(check(step));
  }
}

TEST(Rcu, RestoreRejectsEntryOnUnknownChannel) {
  RcuManager wide(8, /*channels=*/4);
  (void)wide.Insert(0x40, Loc(3, 0, 1));
  ser::Writer w;
  wide.Snapshot(w);
  RcuManager narrow(8, /*channels=*/2);
  ser::Reader r(w.buffer().data(), w.buffer().size());
  EXPECT_THROW(narrow.Restore(r), ser::SerializeError);
}

}  // namespace
}  // namespace redcache
