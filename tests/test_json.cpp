// The shared text-format layer (common/json): the escaper and its strict
// inverse, the two number formats, the strict token parsers and the flat
// per-line field reader every on-disk reader goes through.
#include "wrht/common/json.hpp"

#include <gtest/gtest.h>

#include <string>

#include "wrht/common/error.hpp"

namespace wrht::json {
namespace {

TEST(Json, EscapeThenUnescapeIsIdentityOnEveryAsciiByte) {
  std::string all;
  for (int c = 0x01; c <= 0x7f; ++c) {
    const std::string one(1, static_cast<char>(c));
    EXPECT_EQ(unescape(escape(one)), one) << "byte " << c;
    all += one;
  }
  EXPECT_EQ(unescape(escape(all)), all);
  // No raw control byte survives escaping.
  for (const char c : escape(all)) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20);
  }
}

TEST(Json, UnescapeAcceptsStandardEscapes) {
  EXPECT_EQ(unescape("a\\/b\\b\\f\\u0041"), "a/b\b\fA");
  EXPECT_EQ(unescape("\\u001F"), "\x1f");
  EXPECT_EQ(unescape("\xc3\xa9"), "\xc3\xa9");  // UTF-8 passes through
}

TEST(Json, UnescapeRejectsMalformedEscapes) {
  EXPECT_THROW((void)unescape("trailing\\"), InvalidArgument);
  EXPECT_THROW((void)unescape("\\x41"), InvalidArgument);
  EXPECT_THROW((void)unescape("\\u00"), InvalidArgument);
  EXPECT_THROW((void)unescape("\\u00zz"), InvalidArgument);
  EXPECT_THROW((void)unescape("\\u00e9"), InvalidArgument);  // above 0x7f
  EXPECT_THROW((void)unescape("raw\ttab"), InvalidArgument);
}

TEST(Json, NumberFormatsKeepTheirPrecision) {
  EXPECT_EQ(num9(0.1), "0.1");
  EXPECT_EQ(num9(1.0 / 3.0), "0.333333333");
  EXPECT_EQ(num17(0.1), "0.10000000000000001");
  EXPECT_EQ(num17(6.0), "6");
  for (const double v : {1.0 / 3.0, 0.1000000000000001, 4.9e-324, -2.5e300}) {
    EXPECT_EQ(parse_f64(num17(v)), v) << num17(v);
  }
}

TEST(Json, UnsignedParsersAreStrict) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("18446744073709551615"), 18446744073709551615ull);
  EXPECT_EQ(parse_u32("4294967295"), 4294967295u);
  for (const char* bad : {"", "-5", "+5", " 5", "5 ", "5x", "abc", "1.0",
                          "1e3", "18446744073709551616"}) {
    EXPECT_THROW((void)parse_u64(bad), InvalidArgument) << "'" << bad << "'";
  }
  EXPECT_THROW((void)parse_u32("4294967296"), InvalidArgument);
}

TEST(Json, DoubleParserIsStrict) {
  EXPECT_EQ(parse_f64("-1.5e-3"), -1.5e-3);
  EXPECT_EQ(parse_f64("0"), 0.0);
  for (const char* bad : {"", "abc", "1.5x", " 1", "1 ", "+1", "inf", "nan",
                          "0x10", "1e999"}) {
    EXPECT_THROW((void)parse_f64(bad), InvalidArgument) << "'" << bad << "'";
  }
}

TEST(Json, FieldReaderTokenizesOneLine) {
  const FieldReader r(
      "  {\"s\": \"a\\\"b\", \"n\": -2.5e-3, \"u\": 7, \"b\": true,"
      " \"open\": [},");
  ASSERT_EQ(r.fields().size(), 5u);
  EXPECT_EQ(r.str("s"), "a\"b");
  EXPECT_EQ(r.f64("n"), -2.5e-3);
  EXPECT_EQ(r.u64("u"), 7u);
  EXPECT_EQ(r.u32("u"), 7u);
  EXPECT_EQ(r.find("b")->kind, Field::Kind::kBool);
  EXPECT_EQ(r.find("open")->kind, Field::Kind::kOpen);
  EXPECT_EQ(r.find("missing"), nullptr);
  EXPECT_TRUE(FieldReader("  ],").fields().empty());
}

TEST(Json, FieldReaderRejectsBadLinesAndBadAccess) {
  for (const char* bad :
       {"garbage", "{\"k\" 1}", "{\"k\": }", "{\"k\": \"open",
        "{\"k\": abc}", "{\"k\": 1x}", "{\"k\": 1, \"k\": 2}",
        "{\"k\": null}"}) {
    EXPECT_THROW((void)FieldReader(bad), InvalidArgument) << bad;
  }
  const FieldReader r("{\"s\": \"x\", \"n\": -5}");
  EXPECT_THROW((void)r.str("absent"), InvalidArgument);
  EXPECT_THROW((void)r.str("n"), InvalidArgument);
  EXPECT_THROW((void)r.f64("s"), InvalidArgument);
  try {
    (void)r.u64("n");
    FAIL() << "negative unsigned field accepted";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("field 'n'"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace wrht::json
