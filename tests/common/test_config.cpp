#include "common/config.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"

namespace pinatubo {
namespace {

TEST(Config, ParsesKeyValueLines) {
  const auto cfg = Config::from_string(
      "a = 1\n"
      "# comment\n"
      "b.c = hello world  # trailing comment\n"
      "\n"
      "flag = true\n");
  EXPECT_EQ(cfg.get_int("a", 0), 1);
  EXPECT_EQ(cfg.get_or("b.c", ""), "hello world");
  EXPECT_TRUE(cfg.get_bool("flag", false));
}

TEST(Config, DefaultsWhenMissing) {
  Config cfg;
  EXPECT_EQ(cfg.get_int("nope", 7), 7);
  EXPECT_DOUBLE_EQ(cfg.get_double("nope", 2.5), 2.5);
  EXPECT_FALSE(cfg.get("nope").has_value());
}

TEST(Config, ThrowsOnMalformedLine) {
  EXPECT_THROW(Config::from_string("no equals sign"), Error);
}

TEST(Config, ThrowsOnBadTypedValue) {
  auto cfg = Config::from_string("x = abc");
  EXPECT_THROW(cfg.get_int("x", 0), Error);
  EXPECT_THROW(cfg.get_double("x", 0), Error);
  EXPECT_THROW(cfg.get_bool("x", false), Error);
}

TEST(Config, FromArgsAndMerge) {
  auto base = Config::from_string("a=1\nb=2");
  const auto over = Config::from_args({"b=3", "c=4"});
  base.merge(over);
  EXPECT_EQ(base.get_int("a", 0), 1);
  EXPECT_EQ(base.get_int("b", 0), 3);
  EXPECT_EQ(base.get_int("c", 0), 4);
}

TEST(Config, BoolSpellings) {
  const auto cfg = Config::from_string("a=yes\nb=off\nc=1\nd=false");
  EXPECT_TRUE(cfg.get_bool("a", false));
  EXPECT_FALSE(cfg.get_bool("b", true));
  EXPECT_TRUE(cfg.get_bool("c", false));
  EXPECT_FALSE(cfg.get_bool("d", true));
}

TEST(Config, HexIntegers) {
  const auto cfg = Config::from_string("addr = 0x1000");
  EXPECT_EQ(cfg.get_u64("addr", 0), 0x1000u);
}

TEST(Config, RejectsNegativeU64) {
  // Regression: strtoull accepts a sign and wraps negatives mod 2^64, so
  // "-1" used to come back as 18446744073709551615.
  const auto cfg = Config::from_string("n = -1\nm = -0x10");
  EXPECT_THROW(cfg.get_u64("n", 0), Error);
  EXPECT_THROW(cfg.get_u64("m", 0), Error);
  // get_int still takes signed values, of course.
  EXPECT_EQ(cfg.get_int("n", 0), -1);
}

TEST(Config, RejectsOutOfRangeIntegers) {
  // Regression: ERANGE from strtoll/strtoull went unchecked, silently
  // clamping to the type extremes.
  const auto cfg = Config::from_string(
      "u = 18446744073709551616\n"   // 2^64
      "i = 9223372036854775808\n"    // 2^63
      "ineg = -9223372036854775809\n"
      "umax = 18446744073709551615\n"
      "imax = 9223372036854775807");
  EXPECT_THROW(cfg.get_u64("u", 0), Error);
  EXPECT_THROW(cfg.get_int("i", 0), Error);
  EXPECT_THROW(cfg.get_int("ineg", 0), Error);
  // The exact extremes still parse.
  EXPECT_EQ(cfg.get_u64("umax", 0), 18446744073709551615ull);
  EXPECT_EQ(cfg.get_int("imax", 0), 9223372036854775807ll);
}

TEST(Config, RejectsOutOfRangeDouble) {
  const auto cfg = Config::from_string("big = 1e999\nsmall = 1e-999");
  EXPECT_THROW(cfg.get_double("big", 0), Error);
  // Underflow is not an error: it rounds toward zero, a usable value.
  EXPECT_NEAR(cfg.get_double("small", 1.0), 0.0, 1e-300);
}

TEST(Config, RejectsNonFiniteDouble) {
  const auto cfg = Config::from_string(
      "a = inf\nb = -Infinity\nc = NAN\nd = -nan\ne = INF\nf = 12.5");
  for (const char* key : {"a", "b", "c", "d", "e"}) {
    try {
      cfg.get_double(key, 0);
      ADD_FAILURE() << key << " loaded";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(std::string(key) + ": "),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_DOUBLE_EQ(cfg.get_double("f", 0), 12.5);
}

TEST(Config, RejectsEmptyTypedValue) {
  const auto cfg = Config::from_string("x =");
  EXPECT_THROW(cfg.get_int("x", 0), Error);
  EXPECT_THROW(cfg.get_u64("x", 0), Error);
  EXPECT_THROW(cfg.get_double("x", 0), Error);
}

}  // namespace
}  // namespace pinatubo
