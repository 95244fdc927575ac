// The shared JSON emitter and parser: structure, escaping, stable key
// order, numeric round-tripping through strtod, and the
// parse(write(x)) == x / write(parse(t)) == t inverses the sweep service's
// cache files and daemon responses are built on.
#include "util/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <string>

#include "util/error.h"
#include "util/rng.h"

namespace nwdec {
namespace {

TEST(JsonWriterTest, EmitsNestedDocumentWithStableLayout) {
  json_writer json;
  json.begin_object()
      .field("name", "sweep")
      .field("threads", 4)
      .field("sigma", 0.05)
      .field("quick", true)
      .key("points")
      .begin_array();
  json.begin_object().field("yield", 0.75).end_object();
  json.begin_object().field("yield", 0.5).end_object();
  json.end_array();
  json.key("empty").begin_object().end_object();
  const std::string document = json.end_object().str();

  EXPECT_EQ(document,
            "{\n"
            "  \"name\": \"sweep\",\n"
            "  \"threads\": 4,\n"
            "  \"sigma\": 0.05,\n"
            "  \"quick\": true,\n"
            "  \"points\": [\n"
            "    {\n"
            "      \"yield\": 0.75\n"
            "    },\n"
            "    {\n"
            "      \"yield\": 0.5\n"
            "    }\n"
            "  ],\n"
            "  \"empty\": {}\n"
            "}\n");
}

TEST(JsonWriterTest, SameInputsGiveByteIdenticalDocuments) {
  const auto render = [] {
    json_writer json;
    json.begin_object()
        .field("a", 1)
        .field("b", 0.123456789012345)
        .end_object();
    return json.str();
  };
  EXPECT_EQ(render(), render());
}

TEST(JsonWriterTest, EscapesStrings) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonWriterTest, DoublesRoundTripThroughStrtod) {
  const double values[] = {0.05, 1.0 / 3.0, 123456.789012, 2.8, 0.657949806604};
  for (const double value : values) {
    json_writer json;
    const std::string document =
        json.begin_object().field("x", value).end_object().str();
    const std::size_t at = document.find(": ") + 2;
    const double parsed = std::strtod(document.c_str() + at, nullptr);
    EXPECT_EQ(parsed, value);  // to_chars guarantees exact round-trip
  }
}

TEST(JsonWriterTest, MisuseIsRejected) {
  {
    json_writer json;
    json.begin_object();
    EXPECT_THROW(json.value(1), invalid_argument_error);  // key missing
  }
  {
    json_writer json;
    json.begin_array();
    EXPECT_THROW(json.key("k"), invalid_argument_error);  // key in array
  }
  {
    json_writer json;
    json.begin_object();
    EXPECT_THROW(json.str(), invalid_argument_error);  // unclosed scope
  }
  {
    json_writer json;
    EXPECT_THROW(json.end_object(), invalid_argument_error);
  }
}

TEST(JsonWriterTest, CompactStyleEmitsOneLine) {
  json_writer json(json_writer::style::compact);
  json.begin_object()
      .field("name", "sweep")
      .field("sigma", 0.05)
      .key("points")
      .begin_array()
      .value(1)
      .value(2)
      .end_array()
      .key("empty")
      .begin_object()
      .end_object();
  EXPECT_EQ(json.end_object().str(),
            "{\"name\":\"sweep\",\"sigma\":0.05,\"points\":[1,2],"
            "\"empty\":{}}\n");
}

// Committed bytes, both styles, for every kind of token the writer
// renders: escaped keys and strings, integer limits, edge doubles, and
// empty and nested scopes.
std::string render_both(const std::function<void(json_writer&)>& fill) {
  std::string both;
  for (const json_writer::style style :
       {json_writer::style::compact, json_writer::style::pretty}) {
    json_writer json(style);
    fill(json);
    both += json.str();
  }
  return both;
}

TEST(JsonWriterBytesTest, KeysAndStringsAreEscapedInPlace) {
  const std::string text = std::string("q\"b\\s\nn\rr\tt") + '\x01' + "!";
  EXPECT_EQ(render_both([&](json_writer& json) {
              json.begin_object().field(text, text).end_object();
            }),
            R"({"q\"b\\s\nn\rr\tt\u0001!":"q\"b\\s\nn\rr\tt\u0001!"})"
            "\n"
            "{\n"
            R"(  "q\"b\\s\nn\rr\tt\u0001!": "q\"b\\s\nn\rr\tt\u0001!")"
            "\n}\n");
}

TEST(JsonWriterBytesTest, IntegerLimits) {
  EXPECT_EQ(render_both([](json_writer& json) {
              json.begin_array()
                  .value(std::numeric_limits<int>::min())
                  .value(std::numeric_limits<int>::max())
                  .value(std::numeric_limits<unsigned>::min())
                  .value(std::numeric_limits<unsigned>::max())
                  .value(std::numeric_limits<std::size_t>::min())
                  .value(std::numeric_limits<std::size_t>::max())
                  .value(std::numeric_limits<std::int64_t>::min())
                  .value(std::numeric_limits<std::int64_t>::max())
                  .value(std::numeric_limits<std::uint64_t>::min())
                  .value(std::numeric_limits<std::uint64_t>::max())
                  .end_array();
            }),
            "[-2147483648,2147483647,0,4294967295,0,18446744073709551615,"
            "-9223372036854775808,9223372036854775807,0,"
            "18446744073709551615]\n"
            "[\n  -2147483648,\n  2147483647,\n  0,\n  4294967295,\n  0,\n"
            "  18446744073709551615,\n  -9223372036854775808,\n"
            "  9223372036854775807,\n  0,\n  18446744073709551615\n]\n");
}

TEST(JsonWriterBytesTest, EdgeDoubles) {
  EXPECT_EQ(render_both([](json_writer& json) {
              json.begin_object()
                  .field("neg_zero", -0.0)
                  .field("denormal", 5e-324)
                  .field("e5", 1e+05)
                  .field("half", 2.5)
                  .field("big", 1e300)
                  .field("nan", std::numeric_limits<double>::quiet_NaN())
                  .field("inf", std::numeric_limits<double>::infinity())
                  .field("neg_inf", -std::numeric_limits<double>::infinity())
                  .end_object();
            }),
            R"({"neg_zero":-0,"denormal":5e-324,"e5":1e+05,"half":2.5,)"
            R"("big":1e+300,"nan":null,"inf":null,"neg_inf":null})"
            "\n"
            "{\n"
            "  \"neg_zero\": -0,\n"
            "  \"denormal\": 5e-324,\n"
            "  \"e5\": 1e+05,\n"
            "  \"half\": 2.5,\n"
            "  \"big\": 1e+300,\n"
            "  \"nan\": null,\n"
            "  \"inf\": null,\n"
            "  \"neg_inf\": null\n"
            "}\n");
}

TEST(JsonWriterBytesTest, EmptyAndNestedScopes) {
  EXPECT_EQ(render_both([](json_writer& json) {
              json.begin_array().end_array();
            }),
            "[]\n[]\n");
  EXPECT_EQ(render_both([](json_writer& json) {
              json.begin_object().end_object();
            }),
            "{}\n{}\n");
  EXPECT_EQ(render_both([](json_writer& json) {
              json.begin_object()
                  .key("o")
                  .begin_object()
                  .end_object()
                  .key("a")
                  .begin_array()
                  .end_array()
                  .key("n")
                  .begin_array()
                  .begin_array()
                  .end_array()
                  .begin_object()
                  .key("k")
                  .begin_array()
                  .value(1)
                  .value("s")
                  .end_array()
                  .end_object()
                  .end_array()
                  .end_object();
            }),
            R"({"o":{},"a":[],"n":[[],{"k":[1,"s"]}]})"
            "\n"
            "{\n"
            "  \"o\": {},\n"
            "  \"a\": [],\n"
            "  \"n\": [\n"
            "    [],\n"
            "    {\n"
            "      \"k\": [\n"
            "        1,\n"
            "        \"s\"\n"
            "      ]\n"
            "    }\n"
            "  ]\n"
            "}\n");
}

// --------------------------------------------------------------- parser

TEST(JsonParseTest, ParsesEveryValueKind) {
  const json_value document = json_parse(
      R"({"s": "text", "n": 1.5, "i": -3, "t": true, "f": false,
          "z": null, "a": [1, [2]], "o": {"inner": 0}})");
  EXPECT_EQ(document.at("s").as_string(), "text");
  EXPECT_EQ(document.at("n").as_number(), 1.5);
  EXPECT_EQ(document.at("i").as_number(), -3.0);
  EXPECT_TRUE(document.at("t").as_bool());
  EXPECT_FALSE(document.at("f").as_bool());
  EXPECT_TRUE(document.at("z").is_null());
  ASSERT_EQ(document.at("a").items().size(), 2u);
  EXPECT_EQ(document.at("a").items()[1].items()[0].as_number(), 2.0);
  EXPECT_EQ(document.at("o").at("inner").as_number(), 0.0);
  EXPECT_EQ(document.find("missing"), nullptr);
  EXPECT_THROW(document.at("missing"), not_found_error);
}

TEST(JsonParseTest, PreservesObjectMemberOrder) {
  const json_value document = json_parse(R"({"z": 1, "a": 2, "m": 3})");
  const std::vector<json_value::member>& members = document.members();
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0].first, "z");
  EXPECT_EQ(members[1].first, "a");
  EXPECT_EQ(members[2].first, "m");
}

TEST(JsonParseTest, DecodesEscapes) {
  const json_value document =
      json_parse(R"({"e": "a\"b\\c\/d\n\t\u0041\u00e9"})");
  EXPECT_EQ(document.at("e").as_string(), "a\"b\\c/d\n\tA\xc3\xa9");
  // Surrogate pair: U+1D11E (musical G clef) -> 4-byte UTF-8.
  const json_value clef = json_parse(R"(["\ud834\udd1e"])");
  EXPECT_EQ(clef.items()[0].as_string(), "\xf0\x9d\x84\x9e");
}

TEST(JsonParseTest, RoundTripsWriterOutputExactly) {
  // parse(write(x)) == x, including exact double bits -- the property the
  // result store's persistence rests on.
  json_value original = json_value::object();
  original.set("label", json_value("cliff \"test\"\n"));
  original.set("third", json_value(1.0 / 3.0));
  original.set("tiny", json_value(5e-324));  // min subnormal
  original.set("large", json_value(1.797e308));
  original.set("negzero", json_value(-0.0));
  original.set("count", json_value(150));
  original.set("flag", json_value(true));
  original.set("nothing", json_value());
  json_value nested = json_value::array();
  nested.push_back(json_value(0.8641173107133364));
  json_value inner = json_value::object();
  inner.set("yield", json_value(0.7466987266744488));
  nested.push_back(inner);
  nested.push_back(json_value::array());
  original.set("trace", nested);

  for (const json_writer::style style :
       {json_writer::style::pretty, json_writer::style::compact}) {
    const std::string text = json_render(original, style);
    const json_value reparsed = json_parse(text);
    EXPECT_TRUE(reparsed == original);
    // write(parse(text)) == text: the fixed point in the other direction.
    EXPECT_EQ(json_render(reparsed, style), text);
  }
}

TEST(JsonParseTest, RandomDoublesSurviveTheRoundTrip) {
  rng random(2026);
  for (int k = 0; k < 200; ++k) {
    const double value = random.gaussian(0.0, 1.0) *
                         std::pow(10.0, random.uniform(-12.0, 12.0));
    json_value array = json_value::array();
    array.push_back(json_value(value));
    const json_value reparsed = json_parse(json_render(array));
    EXPECT_EQ(reparsed.items()[0].as_number(), value);
  }
}

TEST(JsonParseTest, NonFiniteWritesAsNullAndStaysNull) {
  json_value array = json_value::array();
  array.push_back(json_value(std::numeric_limits<double>::infinity()));
  array.push_back(json_value(std::nan("")));
  const json_value reparsed = json_parse(json_render(array));
  EXPECT_TRUE(reparsed.items()[0].is_null());
  EXPECT_TRUE(reparsed.items()[1].is_null());
}

TEST(JsonParseTest, RejectsMalformedDocuments) {
  const char* cases[] = {
      "",                      // empty input
      "{",                     // unterminated object
      "[1, 2",                 // unterminated array
      "{\"a\": }",             // missing value
      "{\"a\": 1,}",           // trailing comma
      "[1 2]",                 // missing comma
      "{'a': 1}",              // single quotes
      "{\"a\" 1}",             // missing colon
      "\"unterminated",        // unterminated string
      "[\"bad\\q\"]",          // unknown escape
      "[\"\\u12g4\"]",         // bad hex digit
      "[\"\\ud834\"]",         // unpaired high surrogate
      "[\"\\udd1e\"]",         // unpaired low surrogate
      "01",                    // leading zero
      "+1",                    // leading plus
      "1.",                    // bare decimal point
      ".5",                    // missing integer part
      "1e",                    // empty exponent
      "nan",                   // not a JSON literal
      "truth",                 // mangled literal
      "[] []",                 // trailing content
      "{\"a\": 1} x",          // trailing garbage
  };
  for (const char* text : cases) {
    EXPECT_THROW(json_parse(text), json_parse_error) << "input: " << text;
  }
  // A raw control character must be escaped.
  EXPECT_THROW(json_parse(std::string("[\"a\nb\"]")), json_parse_error);
}

TEST(JsonParseTest, ReportsTheDefectOffset) {
  try {
    json_parse("{\"a\": 1, \"b\": }");
    FAIL() << "expected json_parse_error";
  } catch (const json_parse_error& failure) {
    EXPECT_NE(std::string(failure.what()).find("offset 14"),
              std::string::npos)
        << failure.what();
  }
}

TEST(JsonParseTest, BoundsNestingDepth) {
  std::string deep;
  for (int k = 0; k < 200; ++k) deep += '[';
  for (int k = 0; k < 200; ++k) deep += ']';
  EXPECT_THROW(json_parse(deep), json_parse_error);
  // 100 levels is comfortably inside the limit.
  std::string fine;
  for (int k = 0; k < 100; ++k) fine += '[';
  for (int k = 0; k < 100; ++k) fine += ']';
  EXPECT_NO_THROW(json_parse(fine));
}

TEST(JsonValueTest, TypedAccessorsRejectMismatches) {
  const json_value number(1.0);
  EXPECT_THROW(number.as_string(), invalid_argument_error);
  EXPECT_THROW(number.as_bool(), invalid_argument_error);
  EXPECT_THROW(number.items(), invalid_argument_error);
  EXPECT_THROW(number.members(), invalid_argument_error);
  json_value array = json_value::array();
  EXPECT_THROW(array.set("k", json_value(1.0)), invalid_argument_error);
  EXPECT_EQ(array.find("k"), nullptr);  // non-object find is a miss
}

TEST(JsonValueTest, SetReplacesExistingMembers) {
  json_value object = json_value::object();
  object.set("k", json_value(1.0));
  object.set("k", json_value(2.0));
  ASSERT_EQ(object.members().size(), 1u);
  EXPECT_EQ(object.at("k").as_number(), 2.0);
}

TEST(JsonParseTest, DuplicateObjectKeysKeepTheLastValue) {
  const json_value document = json_parse(R"({"k": 1, "other": 2, "k": 3})");
  ASSERT_EQ(document.members().size(), 2u);
  EXPECT_EQ(document.at("k").as_number(), 3.0);
  EXPECT_EQ(document.members()[0].first, "k");  // original position kept
}

TEST(JsonParseTest, LargeObjectsParseInReasonableTime) {
  // The parser indexes keys while building, so a wide (possibly hostile)
  // object is O(n); this would take minutes if member insertion were
  // quadratic in string comparisons.
  std::string wide = "{";
  for (int k = 0; k < 20000; ++k) {
    if (k > 0) wide += ",";
    wide += "\"key_" + std::to_string(k) + "\": " + std::to_string(k);
  }
  wide += "}";
  const json_value document = json_parse(wide);
  EXPECT_EQ(document.members().size(), 20000u);
  EXPECT_EQ(document.at("key_19999").as_number(), 19999.0);
}

}  // namespace
}  // namespace nwdec
