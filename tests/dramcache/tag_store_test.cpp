#include "dramcache/tag_store.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace redcache {
namespace {

TEST(DirectMappedTags, GeometryDerivation) {
  TagStore t(1_MiB, 1);
  EXPECT_EQ(t.num_sets(), 1_MiB / 64);
  EXPECT_EQ(t.line_bytes(), 64u);
  TagStore wide(1_MiB, 4);
  EXPECT_EQ(wide.num_sets(), 1_MiB / 256);
  EXPECT_EQ(wide.line_bytes(), 256u);
}

TEST(DirectMappedTags, SetWrapsAtCapacity) {
  TagStore t(1_MiB, 1);
  EXPECT_EQ(t.SetOf(0x40), t.SetOf(0x40 + 1_MiB));
  EXPECT_NE(t.TagOf(0x40), t.TagOf(0x40 + 1_MiB));
}

TEST(DirectMappedTags, HitRequiresValidAndMatchingTag) {
  TagStore t(1_MiB, 1);
  const Addr a = 0x12340;
  EXPECT_FALSE(t.Hit(a));
  auto& line = t.line(t.SetOf(a));
  line.valid = true;
  line.tag = t.TagOf(a);
  EXPECT_TRUE(t.Hit(a));
  EXPECT_FALSE(t.Hit(a + 1_MiB));  // same set, different tag
}

TEST(DirectMappedTags, VictimAddrRoundTrips) {
  TagStore t(1_MiB, 1);
  const Addr a = BlockAlign(0x735ac0);
  auto& line = t.line(t.SetOf(a));
  line.valid = true;
  line.tag = t.TagOf(a);
  EXPECT_EQ(t.VictimAddr(t.SetOf(a)), a);
}

TEST(DirectMappedTags, VictimAddrRoundTripsForWideLines) {
  TagStore t(1_MiB, 4);
  const Addr a = (0x735ac0 / 256) * 256;  // line aligned
  auto& line = t.line(t.SetOf(a));
  line.valid = true;
  line.tag = t.TagOf(a);
  EXPECT_EQ(t.VictimAddr(t.SetOf(a)), a);
}

TEST(DirectMappedTags, HbmAddrStaysInsideDevice) {
  TagStore t(1_MiB, 4);
  for (Addr a = 0; a < 8_MiB; a += 4096 + 192) {
    EXPECT_LT(t.HbmAddr(t.SetOf(a), a), 1_MiB);
  }
}

TEST(DirectMappedTags, HbmAddrSelectsRequestedBlockWithinLine) {
  TagStore t(1_MiB, 4);
  const Addr line_base = 0x100;  // not line aligned -> block 1 of its line
  const Addr hbm0 = t.HbmAddr(t.SetOf(line_base), line_base & ~Addr{255});
  const Addr hbm1 = t.HbmAddr(t.SetOf(line_base), line_base);
  EXPECT_EQ(hbm1 - hbm0, 0x100u & 0xffu);
}

TEST(DirectMappedTags, BumpRcountSaturates) {
  TagStore t(64_KiB, 1);
  for (int i = 0; i < 300; ++i) {
    const std::uint32_t v = t.BumpRcount(3);
    EXPECT_LE(v, 255u);
  }
  EXPECT_EQ(t.line(3).r_count, 255);
}

TEST(TagStore, RejectsGeometryWithoutWholeSets) {
  EXPECT_THROW(TagStore(0, 1), std::invalid_argument);         // zero sets
  EXPECT_THROW(TagStore(64_KiB, 1, 0), std::invalid_argument);  // zero ways
  EXPECT_THROW(TagStore(96, 1), std::invalid_argument);  // partial line
  // 1 MiB holds 16384 blocks, which 3 ways do not divide.
  EXPECT_THROW(TagStore(1_MiB, 1, 3), std::invalid_argument);
  EXPECT_NO_THROW(TagStore(192_KiB, 1, 3));
}

// --- ways > 1: LRU way selection and per-way addressing -------------------

TEST(AssocTags, GeometryDerivation) {
  TagStore t(1_MiB, /*line_blocks=*/1, 4);
  EXPECT_EQ(t.num_sets(), 1_MiB / 64 / 4);
  EXPECT_EQ(t.ways(), 4u);
}

TEST(AssocTags, FindWayLocatesInstalledBlock) {
  TagStore t(1_MiB, /*line_blocks=*/1, 2);
  const Addr a = 0x4000;
  EXPECT_EQ(t.FindWay(a), 2u);  // absent
  auto& line = t.line(t.SetOf(a), 1);
  line.valid = true;
  line.tag = t.TagOf(a);
  EXPECT_EQ(t.FindWay(a), 1u);
  EXPECT_TRUE(t.Hit(a));
}

TEST(AssocTags, VictimPrefersInvalidWays) {
  TagStore t(1_MiB, /*line_blocks=*/1, 4);
  auto& l0 = t.line(7, 0);
  l0.valid = true;
  t.Touch(7, 0);
  EXPECT_NE(t.VictimWay(7), 0u);  // some invalid way wins
}

TEST(AssocTags, VictimIsLeastRecentlyTouched) {
  TagStore t(192_KiB, /*line_blocks=*/1, 3);  // 3 ways need 3 | blocks
  for (std::uint32_t w = 0; w < 3; ++w) {
    t.line(9, w).valid = true;
    t.Touch(9, w);
  }
  t.Touch(9, 0);  // refresh way 0: way 1 is now LRU
  EXPECT_EQ(t.VictimWay(9), 1u);
}

TEST(AssocTags, VictimAddrRoundTrips) {
  TagStore t(1_MiB, /*line_blocks=*/1, 2);
  const Addr a = BlockAlign(0x123480);
  const std::uint64_t set = t.SetOf(a);
  auto& line = t.line(set, 1);
  line.valid = true;
  line.tag = t.TagOf(a);
  EXPECT_EQ(t.VictimAddr(set, 1), a);
}

TEST(AssocTags, HbmAddrDistinctPerWayAndWithinDevice) {
  TagStore t(1_MiB, /*line_blocks=*/1, 4);
  EXPECT_NE(t.HbmAddr(5, 0, 0), t.HbmAddr(5, 0, 1));
  for (std::uint32_t w = 0; w < 4; ++w) {
    EXPECT_LT(t.HbmAddr(t.num_sets() - 1, 0, w), 1_MiB);
  }
}

TEST(TagStore, WaysShareTheirSetsChannel) {
  constexpr std::uint32_t kChannels = 4;
  TagStore t(1_MiB, /*line_blocks=*/1, /*ways=*/4, kChannels);
  for (std::uint64_t set : {0u, 1u, 6u, 4095u}) {
    for (std::uint32_t w = 0; w < 4; ++w) {
      const Addr hbm = t.HbmAddr(set, 0, w);
      EXPECT_EQ(BlockIndex(hbm) % kChannels, set % kChannels);
      EXPECT_EQ(hbm - t.HbmAddr(set, 0, 0), w * kChannels * kBlockBytes);
      EXPECT_LT(hbm, 1_MiB);
    }
  }
}

TEST(AssocTags, RcountSaturates) {
  TagStore t(1_MiB, /*line_blocks=*/1, 2);
  for (int i = 0; i < 300; ++i) (void)t.BumpRcount(3, 1);
  EXPECT_EQ(t.line(3, 1).r_count, 255);
}

}  // namespace
}  // namespace redcache
