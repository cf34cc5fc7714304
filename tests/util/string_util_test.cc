#include "subsim/util/string_util.h"

#include <gtest/gtest.h>

namespace subsim {
namespace {

TEST(SplitAndTrimTest, SplitsOnAnyDelimiter) {
  const auto pieces = SplitAndTrim("a b\tc", " \t");
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[1], "b");
  EXPECT_EQ(pieces[2], "c");
}

TEST(SplitAndTrimTest, DropsEmptyPieces) {
  const auto pieces = SplitAndTrim("  x   y  ", " ");
  ASSERT_EQ(pieces.size(), 2u);
  EXPECT_EQ(pieces[0], "x");
  EXPECT_EQ(pieces[1], "y");
}

TEST(SplitAndTrimTest, EmptyInputYieldsNothing) {
  EXPECT_TRUE(SplitAndTrim("", " ").empty());
  EXPECT_TRUE(SplitAndTrim("   ", " ").empty());
}

TEST(StripWhitespaceTest, StripsBothEnds) {
  EXPECT_EQ(StripWhitespace("  hello \t\n"), "hello");
  EXPECT_EQ(StripWhitespace("x"), "x");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace(" \t "), "");
}

TEST(StartsWithTest, Basics) {
  EXPECT_TRUE(StartsWith("--scale=0.5", "--scale"));
  EXPECT_FALSE(StartsWith("--scale", "--scale=0.5"));
  EXPECT_TRUE(StartsWith("abc", ""));
}

TEST(HumanCountTest, PicksUnits) {
  EXPECT_EQ(HumanCount(999), "999");
  EXPECT_EQ(HumanCount(1500), "1.5K");
  EXPECT_EQ(HumanCount(30600000), "30.6M");
  EXPECT_EQ(HumanCount(1500000000ull), "1.5B");
}

TEST(HumanSecondsTest, PicksUnits) {
  EXPECT_EQ(HumanSeconds(0.0000123), "12.3us");
  EXPECT_EQ(HumanSeconds(0.0456), "45.60ms");
  EXPECT_EQ(HumanSeconds(3.5), "3.500s");
}

TEST(ParseUint64Test, ValidInputs) {
  std::uint64_t v = 0;
  EXPECT_TRUE(ParseUint64("0", &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(ParseUint64("18446744073709551615", &v));
  EXPECT_EQ(v, ~std::uint64_t{0});
  EXPECT_TRUE(ParseUint64("  42 ", &v));
  EXPECT_EQ(v, 42u);
}

TEST(ParseUint64Test, RejectsMalformed) {
  std::uint64_t v = 0;
  EXPECT_FALSE(ParseUint64("", &v));
  EXPECT_FALSE(ParseUint64("-3", &v));
  EXPECT_FALSE(ParseUint64("12x", &v));
  EXPECT_FALSE(ParseUint64("18446744073709551616", &v));  // overflow
  EXPECT_FALSE(ParseUint64("1.5", &v));
}

TEST(ParseDoubleTest, ValidInputs) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("0.25", &v));
  EXPECT_DOUBLE_EQ(v, 0.25);
  EXPECT_TRUE(ParseDouble("-1e-3", &v));
  EXPECT_DOUBLE_EQ(v, -1e-3);
}

TEST(ParseDoubleTest, RejectsMalformed) {
  double v = 0;
  EXPECT_FALSE(ParseDouble("", &v));
  EXPECT_FALSE(ParseDouble("abc", &v));
  EXPECT_FALSE(ParseDouble("1.5zz", &v));
}

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControlBytes) {
  EXPECT_EQ(JsonEscape("serve.queries"), "serve.queries");
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("x\ny\tz"), "x\\ny\\tz");
  EXPECT_EQ(JsonEscape(std::string_view("\r\x01\x1f", 3)),
            "\\u000d\\u0001\\u001f");
  // Bytes >= 0x80 (UTF-8 continuation and lead bytes) pass through.
  EXPECT_EQ(JsonEscape("caf\xc3\xa9"), "caf\xc3\xa9");
}

TEST(JsonDoubleTest, SixSignificantDigits) {
  EXPECT_EQ(JsonDouble(0.5), "0.5");
  EXPECT_EQ(JsonDouble(1234567.0), "1.23457e+06");
  EXPECT_EQ(JsonDouble(0.0), "0");
}

}  // namespace
}  // namespace subsim
