#include "common/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string_view>
#include <vector>

#include "common/time.h"

namespace tprm {
namespace {

JsonValue parseOk(const std::string& text) {
  const auto result = parseJson(text);
  EXPECT_TRUE(result.ok()) << result.error << " at " << result.errorOffset;
  return result.ok() ? *result.value : JsonValue();
}

std::string parseError(const std::string& text) {
  const auto result = parseJson(text);
  EXPECT_FALSE(result.ok()) << "unexpectedly parsed: " << text;
  return result.error;
}

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(parseOk("null").isNull());
  EXPECT_EQ(parseOk("true").asBool(), true);
  EXPECT_EQ(parseOk("false").asBool(), false);
  EXPECT_DOUBLE_EQ(parseOk("42").asNumber(), 42.0);
  EXPECT_DOUBLE_EQ(parseOk("-3.5").asNumber(), -3.5);
  EXPECT_DOUBLE_EQ(parseOk("1e3").asNumber(), 1000.0);
  EXPECT_DOUBLE_EQ(parseOk("2.5E-2").asNumber(), 0.025);
  EXPECT_EQ(parseOk("\"hi\"").asString(), "hi");
}

TEST(JsonParse, Whitespace) {
  EXPECT_DOUBLE_EQ(parseOk("  \n\t 7 \r\n").asNumber(), 7.0);
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(parseOk(R"("a\"b\\c\/d\ne\tf")").asString(), "a\"b\\c/d\ne\tf");
  EXPECT_EQ(parseOk(R"("Aé")").asString(), "A\xC3\xA9");
}

TEST(JsonParse, Arrays) {
  const auto v = parseOk("[1, \"two\", [3], {}]");
  ASSERT_TRUE(v.isArray());
  ASSERT_EQ(v.asArray().size(), 4u);
  EXPECT_DOUBLE_EQ(v.asArray()[0].asNumber(), 1.0);
  EXPECT_EQ(v.asArray()[1].asString(), "two");
  EXPECT_TRUE(v.asArray()[2].isArray());
  EXPECT_TRUE(v.asArray()[3].isObject());
  EXPECT_TRUE(parseOk("[]").asArray().empty());
}

TEST(JsonParse, Objects) {
  const auto v = parseOk(R"({"a": 1, "b": {"c": true}})");
  ASSERT_TRUE(v.isObject());
  ASSERT_NE(v.find("a"), nullptr);
  EXPECT_DOUBLE_EQ(v.find("a")->asNumber(), 1.0);
  ASSERT_NE(v.find("b"), nullptr);
  EXPECT_TRUE(v.find("b")->find("c")->asBool());
  EXPECT_EQ(v.find("zzz"), nullptr);
  EXPECT_TRUE(parseOk("{}").asObject().empty());
}

TEST(JsonParse, DuplicateKeysLastWins) {
  const auto v = parseOk(R"({"a": 1, "a": 2})");
  EXPECT_DOUBLE_EQ(v.find("a")->asNumber(), 2.0);
}

TEST(JsonParse, Errors) {
  EXPECT_NE(parseError(""), "");
  EXPECT_NE(parseError("{"), "");
  EXPECT_NE(parseError("[1, 2"), "");
  EXPECT_NE(parseError("[1 2]"), "");
  EXPECT_NE(parseError("\"unterminated"), "");
  EXPECT_NE(parseError("truthy"), "");
  EXPECT_NE(parseError("1 2"), "");        // trailing garbage
  EXPECT_NE(parseError("{'a': 1}"), "");   // single quotes
  EXPECT_NE(parseError("{\"a\" 1}"), "");  // missing colon
  EXPECT_NE(parseError("-"), "");
  EXPECT_NE(parseError(R"("\x41")"), "");  // invalid escape
  EXPECT_NE(parseError(R"("\ud800")"), "");  // surrogate
}

TEST(JsonParse, DepthLimitRejectsDeepNesting) {
  // Wire input is untrusted: a few KB of "[[[[..." must not blow the stack.
  const std::string deepArrays(10'000, '[');
  EXPECT_NE(parseError(deepArrays), "");
  std::string deepObjects;
  for (int i = 0; i < 10'000; ++i) deepObjects += "{\"k\":";
  EXPECT_NE(parseError(deepObjects), "");

  // Exactly at the limit parses; one past it does not.
  JsonParseOptions options;
  options.maxDepth = 4;
  const std::string atLimit = "[[[[1]]]]";
  EXPECT_TRUE(parseJson(atLimit, options).ok());
  const std::string pastLimit = "[[[[[1]]]]]";
  const auto rejected = parseJson(pastLimit, options);
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.error.find("nesting"), std::string::npos);
}

TEST(JsonParse, DepthIsReleasedWhenContainersClose) {
  // Siblings do not accumulate depth: many shallow containers are fine even
  // under a tight limit.
  JsonParseOptions options;
  options.maxDepth = 2;
  std::string siblings = "[";
  for (int i = 0; i < 1'000; ++i) {
    siblings += i == 0 ? "[1]" : ",[1]";
  }
  siblings += "]";
  EXPECT_TRUE(parseJson(siblings, options).ok());
}

TEST(JsonParse, MalformedWireCorpus) {
  // Truncated frames: every prefix of a valid document fails cleanly.
  const std::string document = R"({"cmd": "NEGOTIATE", "spec": {"a": [1, 2]}})";
  for (std::size_t n = 0; n < document.size(); ++n) {
    const auto result = parseJson(document.substr(0, n));
    EXPECT_FALSE(result.ok()) << "prefix of length " << n;
  }
  // Bad escapes.
  EXPECT_NE(parseError(R"("\q")"), "");
  EXPECT_NE(parseError(R"("\u12")"), "");        // truncated \u
  EXPECT_NE(parseError(R"("\u12zz")"), "");      // non-hex \u
  EXPECT_NE(parseError("\"a\\"), "");            // escape at end of input
  // Control characters must be escaped.
  EXPECT_NE(parseError("\"a\nb\""), "");
  // Huge numbers: overflow is an error, not an abort or infinity.
  EXPECT_NE(parseError("1e999"), "");
  EXPECT_NE(parseError("-1e999"), "");
  EXPECT_NE(parseError(std::string(400, '9')), "");
  // Large-but-representable values still parse.
  EXPECT_DOUBLE_EQ(parseOk("1e308").asNumber(), 1e308);
  // Lone structural tokens.
  for (const char* text : {"]", "}", ",", ":", "[,]", "{,}", "[1,]", "{\"a\":}"}) {
    EXPECT_NE(parseError(text), "") << text;
  }
}

TEST(JsonParse, ErrorOffsetPointsNearProblem) {
  const auto result = parseJson("[1, 2, oops]");
  ASSERT_FALSE(result.ok());
  EXPECT_GE(result.errorOffset, 7u);
}

TEST(JsonDump, ScalarsAndContainers) {
  EXPECT_EQ(JsonValue().dump(), "null");
  EXPECT_EQ(JsonValue(true).dump(), "true");
  EXPECT_EQ(JsonValue(42).dump(), "42");
  EXPECT_EQ(JsonValue(2.5).dump(), "2.5");
  EXPECT_EQ(JsonValue("hi").dump(), "\"hi\"");
  EXPECT_EQ(JsonValue(JsonValue::Array{}).dump(), "[]");
  EXPECT_EQ(JsonValue(JsonValue::Object{}).dump(), "{}");
}

TEST(JsonDump, EscapesStrings) {
  EXPECT_EQ(JsonValue("a\"b\\c\nd").dump(), R"("a\"b\\c\nd")");
}

TEST(JsonRoundTrip, PreservesStructure) {
  const std::string text = R"({
  "chains": [
    {
      "name": "shape1",
      "tasks": [1, 2.5, true, null, "x"]
    }
  ],
  "name": "job"
})";
  const auto v = parseOk(text);
  const auto reparsed = parseOk(v.dump());
  EXPECT_EQ(v, reparsed);
}

TEST(JsonRoundTrip, NumbersSurvive) {
  for (const double d : {0.0, 1.0, -1.0, 0.1, 1e-9, 123456789.0, 2.5e17}) {
    const auto v = parseOk(JsonValue(d).dump());
    EXPECT_DOUBLE_EQ(v.asNumber(), d);
  }
}

/// The number format dump() has always produced, written with snprintf:
/// integral values below 1e15 as "%.0f", everything else as "%.17g".
std::string referenceNumber(double d) {
  char buffer[64];
  if (d == std::floor(d) && std::abs(d) < 1e15) {
    std::snprintf(buffer, sizeof buffer, "%.0f", d);
  } else {
    std::snprintf(buffer, sizeof buffer, "%.17g", d);
  }
  return buffer;
}

TEST(JsonDump, NumbersAreByteIdenticalToPrintf) {
  std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 0.1, 1.0 / 3.0, -2.0 / 3.0, 0.5, 2.5e17,
      1e15, -1e15, 1e15 + 1, 1e15 - 1, -(1e15 + 1), -(1e15 - 1), 1e15 - 0.5,
      999999999999999.9, 9007199254740993.0, 1e300, -1e-300,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::min() / 3.0,
      std::numeric_limits<double>::max(), -std::numeric_limits<double>::max(),
      std::numeric_limits<double>::epsilon(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      unitsFromTicks(kTimeInfinity), unitsFromTicks(kTimeInfinity - 1),
      unitsFromTicks(std::numeric_limits<Time>::max()),
      unitsFromTicks(std::numeric_limits<Time>::min()), unitsFromTicks(1),
      unitsFromTicks(-1), unitsFromTicks(123456789)};
  std::mt19937_64 rng(20261019);
  for (int i = 0; i < 20000; ++i) {
    // Arbitrary finite bit patterns, subnormals included.
    const std::uint64_t bits = rng();
    double d = 0.0;
    std::memcpy(&d, &bits, sizeof d);
    if (std::isfinite(d)) values.push_back(d);
    // Tick times as they cross the wire, qualities, and integers around the
    // 1e15 switch between the two formats.
    values.push_back(unitsFromTicks(static_cast<Time>(rng() >> 8)));
    values.push_back(
        std::uniform_real_distribution<double>(0.0, 1.0)(rng));
    values.push_back(static_cast<double>(
        static_cast<std::int64_t>(rng() % 4000000000000000ULL) -
        2000000000000000LL));
    values.push_back(std::ldexp(static_cast<double>(rng() >> 11),
                                static_cast<int>(rng() % 2100) - 1100));
  }
  for (const double d : values) {
    const std::string expected = referenceNumber(d);
    ASSERT_EQ(JsonValue(d).dump(), expected) << "bits differ for " << expected;
    // The compact (wire) form keeps integers as they were and gives every
    // other finite value the shortest digits that parse back bit-exact.
    const std::string compact = JsonValue(d).dumpCompact();
    if (d == std::floor(d) && std::abs(d) < 1e15) {
      ASSERT_EQ(compact, expected);
    }
    if (!std::isfinite(d)) continue;
    ASSERT_LE(compact.size(), expected.size()) << expected;
    const auto back = parseJson(compact);
    ASSERT_TRUE(back.ok()) << compact;
    const double parsed = back.value->asNumber();
    ASSERT_EQ(std::memcmp(&parsed, &d, sizeof d), 0) << compact;
  }
}

TEST(JsonParse, UnsortedKeysAndStringViewLookup) {
  const auto v = parseOk(R"({"z": 1, "a": 2, "m": 3, "a": 4})");
  ASSERT_EQ(v.asObject().size(), 3u);
  const std::string_view key = "a";
  ASSERT_NE(v.find(key), nullptr);
  EXPECT_EQ(v.find(key)->asNumber(), 4.0);
  EXPECT_EQ(v.find("z")->asNumber(), 1.0);
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_EQ(v.dumpCompact(), R"({"a":4,"m":3,"z":1})");
}

TEST(JsonRoundTrip, StringsWithEscapesBetweenPlainRuns) {
  const std::string raw = std::string("plain \"quoted\" back\\slash ") +
                          '\x01' + "\ttab\nline\u00e9 end";
  EXPECT_EQ(parseOk(JsonValue(raw).dump()).asString(), raw);
  EXPECT_EQ(parseOk(JsonValue(raw).dumpCompact()).asString(), raw);
  EXPECT_EQ(JsonValue(std::string("a\x1f")).dump(), "\"a\\u001f\"");
  EXPECT_EQ(parseOk(R"("caf\u00e9 \/ ok")").asString(), "caf\xc3\xa9 / ok");
}

TEST(JsonDeath, TypeMismatchAborts) {
  const JsonValue v(42);
  EXPECT_DEATH((void)v.asString(), "not a string");
  EXPECT_DEATH((void)v.asArray(), "not an array");
  EXPECT_DEATH((void)v.asObject(), "not an object");
  EXPECT_DEATH((void)v.asBool(), "not a boolean");
  EXPECT_DEATH((void)JsonValue("x").asNumber(), "not a number");
}

}  // namespace
}  // namespace tprm
