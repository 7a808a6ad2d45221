#include "common/serialize.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <vector>

#include "common/hash.hpp"

namespace redcache::ser {
namespace {

TEST(Serialize, ScalarRoundTrip) {
  Writer w;
  w.U8(0xab);
  w.U32(0xdeadbeefu);
  w.U64(0x0123456789abcdefull);
  w.I64(-42);
  w.Bool(true);
  w.Bool(false);
  w.F64(3.14159265358979);
  w.F64(-0.0);
  w.Str("hello");
  w.Str("");

  Reader r(w.buffer().data(), w.buffer().size());
  EXPECT_EQ(r.U8(), 0xab);
  EXPECT_EQ(r.U32(), 0xdeadbeefu);
  EXPECT_EQ(r.U64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.I64(), -42);
  EXPECT_TRUE(r.Bool());
  EXPECT_FALSE(r.Bool());
  EXPECT_DOUBLE_EQ(r.F64(), 3.14159265358979);
  const double neg_zero = r.F64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));  // bit pattern preserved
  EXPECT_EQ(r.Str(), "hello");
  EXPECT_EQ(r.Str(), "");
  EXPECT_TRUE(r.AtEnd());
  EXPECT_NO_THROW(r.ExpectEnd());
}

TEST(Serialize, SequencesRoundTrip) {
  Writer w;
  const std::vector<std::uint64_t> v = {1, 2, 3, ~std::uint64_t{0}};
  const std::deque<std::uint32_t> d = {9, 8};
  const std::vector<char> flags = {1, 0, 1};
  w.U64Seq(v);
  w.U64Seq(d);
  w.U8Seq(flags);

  Reader r(w.buffer().data(), w.buffer().size());
  std::vector<std::uint64_t> got;
  r.U64Seq(got);
  EXPECT_EQ(got, v);
  r.U64Seq(got);
  EXPECT_EQ(got, (std::vector<std::uint64_t>{9, 8}));
  ASSERT_EQ(r.SeqLen(1), flags.size());
  for (const char f : flags) EXPECT_EQ(r.U8(), static_cast<std::uint8_t>(f));
  r.ExpectEnd();
}

TEST(Serialize, SectionTagGuards) {
  Writer w;
  w.Section("alpha");
  w.U64(7);

  Reader ok(w.buffer().data(), w.buffer().size());
  EXPECT_NO_THROW(ok.Section("alpha"));
  EXPECT_EQ(ok.U64(), 7u);

  Reader bad(w.buffer().data(), w.buffer().size());
  EXPECT_THROW(bad.Section("beta"), SerializeError);
}

TEST(Serialize, TruncationThrowsNotFaults) {
  Writer w;
  w.U64(1);
  w.Str("some payload");
  const auto& buf = w.buffer();
  // Every proper prefix must throw SerializeError, never read off the end.
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    Reader r(buf.data(), cut);
    EXPECT_THROW(
        {
          r.U64();
          r.Str();
        },
        SerializeError)
        << "prefix of " << cut << " bytes";
  }
}

TEST(Serialize, SeqLenRejectsGiantLengths) {
  Writer w;
  w.U64(std::numeric_limits<std::uint64_t>::max());  // absurd element count
  Reader r(w.buffer().data(), w.buffer().size());
  EXPECT_THROW(r.SeqLen(8), SerializeError);
}

TEST(Serialize, ExpectEndRejectsTrailingBytes) {
  Writer w;
  w.U32(5);
  w.U8(0);  // trailing garbage
  Reader r(w.buffer().data(), w.buffer().size());
  r.U32();
  EXPECT_THROW(r.ExpectEnd(), SerializeError);
}

TEST(Serialize, NameTagIsStable) {
  // Compile-time FNV-1a; pinned so a hash change (which would invalidate
  // every on-disk blob) cannot slip in silently.
  static_assert(NameTag("") == 2166136261u);
  EXPECT_EQ(NameTag("sys"), NameTag("sys"));
  EXPECT_NE(NameTag("sys"), NameTag("chan"));
}

TEST(Serialize, ChecksumCatchesTopByteChangesAcrossWords) {
  // Flip the top byte of word 0, then try every top byte of word 1. A
  // word fold that only multiplies carries the first change upward alone,
  // so exactly one of those second bytes cancels it and collides.
  const std::uint8_t base[16] = {1, 2,  3,  4,  5,  6,  7,  8,
                                 9, 10, 11, 12, 13, 14, 15, 16};
  const std::uint64_t want = Fnv64(base, sizeof(base));
  for (int flip = 1; flip < 256; flip += 17) {
    std::uint8_t bytes[16];
    std::copy(base, base + sizeof(base), bytes);
    bytes[7] ^= static_cast<std::uint8_t>(flip);
    for (int top = 0; top < 256; ++top) {
      bytes[15] = static_cast<std::uint8_t>(top);
      EXPECT_NE(Fnv64(bytes, sizeof(bytes)), want)
          << "flip " << flip << " cancelled by word 1 top byte " << top;
    }
  }
}

}  // namespace
}  // namespace redcache::ser
