// JSON writer: escaping, number policy (NaN/Inf -> null), nesting, and
// the ResultSet json sink built on top of it.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "scenario/result.hpp"
#include "util/json.hpp"

namespace wsn::util {
namespace {

TEST(JsonEscape, PassesPlainTextThrough) {
  EXPECT_EQ(JsonEscape("hello world"), "hello world");
}

TEST(JsonEscape, EscapesQuotesAndBackslash) {
  EXPECT_EQ(JsonEscape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
}

TEST(JsonEscape, EscapesControlCharacters) {
  EXPECT_EQ(JsonEscape("a\nb"), "a\\nb");
  EXPECT_EQ(JsonEscape("a\tb"), "a\\tb");
  EXPECT_EQ(JsonEscape("a\rb"), "a\\rb");
  EXPECT_EQ(JsonEscape(std::string{'a', '\x01', 'b'}), "a\\u0001b");
}

TEST(JsonEscape, Utf8PassesThrough) {
  const std::string s = "\xc3\xa9\xe2\x82\xac";  // é€
  EXPECT_EQ(JsonEscape(s), s);
}

TEST(JsonNumber, NanAndInfSerializeAsNull) {
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(JsonNumber(-std::numeric_limits<double>::infinity()), "null");
}

TEST(JsonNumber, IntegralValuesHaveNoDecimalPoint) {
  EXPECT_EQ(JsonNumber(42.0), "42");
  EXPECT_EQ(JsonNumber(-3.0), "-3");
  EXPECT_EQ(JsonNumber(0.0), "0");
}

TEST(JsonNumber, FractionalValuesRoundTrip) {
  const double v = 0.1234567890123;
  EXPECT_DOUBLE_EQ(std::stod(JsonNumber(v)), v);
}

TEST(JsonWriter, CompactObjectAndArray) {
  JsonWriter w(0);
  w.BeginObject()
      .Key("a").UInt(1)
      .Key("b").BeginArray().String("x").Bool(true).EndArray()
      .EndObject();
  EXPECT_EQ(w.Str(), "{\"a\":1,\"b\":[\"x\",true]}");
}

TEST(JsonWriter, NonFiniteNumbersBecomeNull) {
  JsonWriter w(0);
  w.BeginArray()
      .Number(std::numeric_limits<double>::quiet_NaN())
      .Number(std::numeric_limits<double>::infinity())
      .Number(1.5)
      .EndArray();
  EXPECT_EQ(w.Str(), "[null,null,1.5]");
}

TEST(JsonWriter, EscapesKeysAndValues) {
  JsonWriter w(0);
  w.BeginObject().Key("we\"ird").String("line\nbreak").EndObject();
  EXPECT_EQ(w.Str(), "{\"we\\\"ird\":\"line\\nbreak\"}");
}

TEST(JsonWriter, IndentedOutputIsStable) {
  JsonWriter w(2);
  w.BeginObject().Key("k").BeginArray().UInt(1).UInt(2).EndArray().EndObject();
  EXPECT_EQ(w.Str(), "{\n  \"k\": [\n    1,\n    2\n  ]\n}");
}

TEST(ResultSetJson, EmitsScenarioMetaTablesNotes) {
  scenario::ResultSet results("demo");
  results.SetMeta("seed", "2008");
  scenario::ResultTable& t = results.AddTable("main", {"x", "y"});
  t.AddRow({"1", "2"});
  results.AddNote("a note");
  const std::string json = results.RenderJson();
  EXPECT_NE(json.find("\"scenario\": \"demo\""), std::string::npos);
  EXPECT_NE(json.find("\"seed\": \"2008\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"main\""), std::string::npos);
  EXPECT_NE(json.find("\"a note\""), std::string::npos);
}

TEST(ResultSetJson, EscapesCellsWithQuotesAndNewlines) {
  scenario::ResultSet results("demo");
  scenario::ResultTable& t = results.AddTable("main", {"h"});
  t.AddRow({"cell \"quoted\"\nsecond line"});
  const std::string json = results.RenderJson();
  EXPECT_NE(json.find("cell \\\"quoted\\\"\\nsecond line"),
            std::string::npos);
}

}  // namespace
}  // namespace wsn::util
