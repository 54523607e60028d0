#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "runner/experiment_engine.hpp"
#include "runner/report.hpp"
#include "util/json.hpp"
#include "util/json_value.hpp"

namespace kspot::util {
namespace {

// ---------------------------------------------------------------- escaping

TEST(JsonEscapeTest, PlainStringsGetQuoted) {
  EXPECT_EQ(JsonEscape("abc"), "\"abc\"");
  EXPECT_EQ(JsonEscape(""), "\"\"");
}

TEST(JsonEscapeTest, SpecialCharacters) {
  EXPECT_EQ(JsonEscape("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(JsonEscape("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(JsonEscape("a\nb\tc"), "\"a\\nb\\tc\"");
  EXPECT_EQ(JsonEscape(std::string("a\x01") + "b"), "\"a\\u0001b\"");
}

TEST(JsonNumberTest, IntegralAndFractional) {
  EXPECT_EQ(JsonNumber(0.0), "0");
  EXPECT_EQ(JsonNumber(42.0), "42");
  EXPECT_EQ(JsonNumber(-3.0), "-3");
  EXPECT_EQ(JsonNumber(0.5), "0.5");
}

TEST(JsonNumberTest, RoundTripsDoubles) {
  for (double v : {0.1, 1.0 / 3.0, 123456.789, -2.5e-7, 9.007199254740992e15}) {
    EXPECT_EQ(std::strtod(JsonNumber(v).c_str(), nullptr), v) << JsonNumber(v);
  }
}

// ------------------------------------------------------------------ writer

TEST(JsonWriterTest, NestedDocument) {
  std::ostringstream os;
  JsonWriter w(os);
  w.BeginObject();
  w.Key("name");
  w.Value("bench");
  w.Key("count");
  w.Value(2);
  w.Key("items");
  w.BeginArray();
  w.Value(1.5);
  w.Value(true);
  w.Null();
  w.BeginObject();
  w.Key("x");
  w.Value(uint64_t{7});
  w.EndObject();
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(os.str(), R"({"name":"bench","count":2,"items":[1.5,true,null,{"x":7}]})");
}

// ------------------------------------------------------------------- parse

TEST(JsonParseTest, ParsesScalarsArraysObjects) {
  auto doc = JsonValue::Parse(R"({"a": [1, -2.5, "x", true, false, null], "b": {}})");
  ASSERT_TRUE(doc.ok()) << doc.status().message();
  const JsonValue& v = doc.value();
  ASSERT_TRUE(v.is_object());
  const JsonValue* a = v.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->array_items().size(), 6u);
  EXPECT_EQ(a->array_items()[0].number_value(), 1.0);
  EXPECT_EQ(a->array_items()[1].number_value(), -2.5);
  EXPECT_EQ(a->array_items()[2].string_value(), "x");
  EXPECT_TRUE(a->array_items()[3].bool_value());
  EXPECT_FALSE(a->array_items()[4].bool_value());
  EXPECT_TRUE(a->array_items()[5].is_null());
  ASSERT_NE(v.Find("b"), nullptr);
  EXPECT_TRUE(v.Find("b")->is_object());
}

TEST(JsonParseTest, RejectsGarbage) {
  EXPECT_FALSE(JsonValue::Parse("").ok());
  EXPECT_FALSE(JsonValue::Parse("{").ok());
  EXPECT_FALSE(JsonValue::Parse("[1,]").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\":1} x").ok());
  EXPECT_FALSE(JsonValue::Parse("tru").ok());
}

TEST(JsonParseTest, StringEscapes) {
  auto doc = JsonValue::Parse(R"("a\n\"\\A")");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().string_value(), "a\n\"\\A");
}

TEST(JsonRoundTripTest, DumpThenParseIsIdentity) {
  JsonValue obj = JsonValue::Object();
  obj.Set("s", JsonValue::String("weird \"\\\n chars"));
  obj.Set("n", JsonValue::Number(3.14159));
  JsonValue arr = JsonValue::Array();
  arr.Append(JsonValue::Bool(true));
  arr.Append(JsonValue::Null());
  obj.Set("a", std::move(arr));

  auto reparsed = JsonValue::Parse(obj.Dump());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().message();
  EXPECT_EQ(reparsed.value().Dump(), obj.Dump());
}

// ------------------------------------------- experiment result schema

runner::ScenarioRun MakeRun() {
  runner::ScenarioRun run;
  run.name = "unit";
  run.id = "T1";
  run.title = "schema round-trip";
  run.quick = true;
  run.threads = 4;
  run.wall_ms = 12.5;
  runner::TrialResult t;
  t.spec.scenario = "unit";
  t.spec.algorithm = "MINT";
  t.spec.seed = 7;
  t.spec.index = 0;
  t.spec.params = {{"k", "4"}, {"loss", "5% iid"}};
  t.metrics = {{"msgs_per_epoch", 12.5}, {"recall", 1.0}};
  t.wall_ms = 3.25;
  run.trials.push_back(t);
  runner::TrialResult bad = t;
  bad.spec.index = 1;
  bad.ok = false;
  bad.error = "boom \"quoted\"";
  bad.metrics.clear();
  run.trials.push_back(bad);
  return run;
}

TEST(BenchJsonSchemaTest, RoundTripsThroughParser) {
  runner::ScenarioRun run = MakeRun();
  auto doc = JsonValue::Parse(runner::ToJsonString(run));
  ASSERT_TRUE(doc.ok()) << doc.status().message();
  const JsonValue& root = doc.value();

  ASSERT_NE(root.Find("schema_version"), nullptr);
  EXPECT_EQ(root.Find("schema_version")->number_value(), 1.0);
  EXPECT_EQ(root.Find("generator")->string_value(), "kspot_bench");
  EXPECT_EQ(root.Find("scenario")->string_value(), "unit");
  EXPECT_EQ(root.Find("id")->string_value(), "T1");
  EXPECT_EQ(root.Find("title")->string_value(), "schema round-trip");
  EXPECT_TRUE(root.Find("quick")->bool_value());
  EXPECT_EQ(root.Find("threads")->number_value(), 4.0);
  EXPECT_EQ(root.Find("trial_count")->number_value(), 2.0);

  const JsonValue* trials = root.Find("trials");
  ASSERT_NE(trials, nullptr);
  ASSERT_TRUE(trials->is_array());
  ASSERT_EQ(trials->array_items().size(), 2u);

  const JsonValue& first = trials->array_items()[0];
  EXPECT_EQ(first.Find("index")->number_value(), 0.0);
  EXPECT_EQ(first.Find("algorithm")->string_value(), "MINT");
  EXPECT_EQ(first.Find("seed")->number_value(), 7.0);
  const JsonValue* params = first.Find("params");
  ASSERT_NE(params, nullptr);
  EXPECT_EQ(params->Find("k")->string_value(), "4");
  EXPECT_EQ(params->Find("loss")->string_value(), "5% iid");
  const JsonValue* metrics = first.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->Find("msgs_per_epoch")->number_value(), 12.5);
  EXPECT_EQ(metrics->Find("recall")->number_value(), 1.0);
  EXPECT_TRUE(first.Find("ok")->bool_value());
  EXPECT_EQ(first.Find("error"), nullptr);

  const JsonValue& second = trials->array_items()[1];
  EXPECT_FALSE(second.Find("ok")->bool_value());
  EXPECT_EQ(second.Find("error")->string_value(), "boom \"quoted\"");
  EXPECT_TRUE(second.Find("metrics")->object_members().empty());
}

}  // namespace
}  // namespace kspot::util
