#include "common/parse.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

namespace redcache {
namespace {

constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();

/// ParseNumber into a uint64 over its whole range; `out` starts at 7 so an
/// untouched value is visible.
bool U64(const std::string& text, std::uint64_t& out) {
  out = 7;
  return ParseNumber(text, std::uint64_t{0}, kU64Max, out);
}

bool F64(const std::string& text, double& out) {
  out = 7.0;
  return ParseNumber(text, 0.0, 1e6, out);
}

TEST(ParseNumber, AcceptsWholeDecimalIntegers) {
  std::uint64_t v = 0;
  ASSERT_TRUE(U64("0", v));
  EXPECT_EQ(v, 0u);
  ASSERT_TRUE(U64("42", v));
  EXPECT_EQ(v, 42u);
  ASSERT_TRUE(U64("007", v));
  EXPECT_EQ(v, 7u);
  ASSERT_TRUE(U64("18446744073709551615", v));
  EXPECT_EQ(v, kU64Max);
}

TEST(ParseNumber, RejectsMalformedIntegersAndLeavesOutUnchanged) {
  for (const char* bad :
       {"", "-1", "+1", "-0", " 1", "1 ", "\t1", "1x", "x1", "0x10", "1.5",
        "1e3", "18446744073709551616", "99999999999999999999", "inf",
        "nan"}) {
    std::uint64_t v = 0;
    EXPECT_FALSE(U64(bad, v)) << '"' << bad << '"';
    EXPECT_EQ(v, 7u) << '"' << bad << '"';
  }
}

TEST(ParseNumber, EnforcesBothEndsOfTheRange) {
  std::uint32_t v = 9;
  EXPECT_TRUE(ParseNumber("1", 1u, 255u, v));
  EXPECT_EQ(v, 1u);
  EXPECT_TRUE(ParseNumber("255", 1u, 255u, v));
  EXPECT_EQ(v, 255u);
  EXPECT_FALSE(ParseNumber("0", 1u, 255u, v));
  EXPECT_FALSE(ParseNumber("256", 1u, 255u, v));
  EXPECT_EQ(v, 255u);
  // Past the type's own range, not just past `hi`.
  EXPECT_TRUE(ParseNumber("4294967295", 0u, 4294967295u, v));
  EXPECT_FALSE(ParseNumber("4294967296", 0u, 4294967295u, v));
  EXPECT_FALSE(ParseNumber("5000000000", 0u, 4294967295u, v));
  EXPECT_EQ(v, 4294967295u);
}

TEST(ParseNumber, AcceptsFloatingFractionsAndExponents) {
  double v = 0;
  ASSERT_TRUE(F64("0.5", v));
  EXPECT_EQ(v, 0.5);
  ASSERT_TRUE(F64("2", v));
  EXPECT_EQ(v, 2.0);
  ASSERT_TRUE(F64("1e3", v));
  EXPECT_EQ(v, 1000.0);
  ASSERT_TRUE(F64("2.5E-1", v));
  EXPECT_EQ(v, 0.25);
  ASSERT_TRUE(F64("1e6", v));
  EXPECT_EQ(v, 1e6);
}

TEST(ParseNumber, RejectsMalformedFloatsAndLeavesOutUnchanged) {
  for (const char* bad :
       {"", "-0.5", "+0.5", " 0.5", "0.5 ", "0.5x", "abc", "inf", "INF",
        "infinity", "nan", "NaN", "-inf", "0x1p3", "1e400", "1e6.5",
        "1000001"}) {
    double v = 0;
    EXPECT_FALSE(F64(bad, v)) << '"' << bad << '"';
    EXPECT_EQ(v, 7.0) << '"' << bad << '"';
  }
  // The lower end is checked too: a range that excludes zero.
  double v = 7.0;
  EXPECT_FALSE(ParseNumber("0", std::numeric_limits<double>::min(), 1.0, v));
  EXPECT_EQ(v, 7.0);
}

}  // namespace
}  // namespace redcache
