#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "query/lexer.hpp"
#include "query/parser.hpp"
#include "util/rng.hpp"

namespace kspot::query {
namespace {

// -------------------------------------------------------------------- Lexer

TEST(LexerTest, TokenizesQueryText) {
  auto toks = Lex("SELECT TOP 3 roomid, AVG(sound) FROM sensors");
  ASSERT_GE(toks.size(), 11u);
  EXPECT_EQ(toks[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ(toks[0].text, "SELECT");
  EXPECT_EQ(toks[2].kind, TokenKind::kNumber);
  EXPECT_DOUBLE_EQ(toks[2].number, 3.0);
  EXPECT_EQ(toks[4].kind, TokenKind::kComma);
  EXPECT_EQ(toks.back().kind, TokenKind::kEnd);
}

TEST(LexerTest, ComparisonOperators) {
  auto toks = Lex("< <= > >= = != <>");
  EXPECT_EQ(toks[0].kind, TokenKind::kLt);
  EXPECT_EQ(toks[1].kind, TokenKind::kLe);
  EXPECT_EQ(toks[2].kind, TokenKind::kGt);
  EXPECT_EQ(toks[3].kind, TokenKind::kGe);
  EXPECT_EQ(toks[4].kind, TokenKind::kEq);
  EXPECT_EQ(toks[5].kind, TokenKind::kNe);
  EXPECT_EQ(toks[6].kind, TokenKind::kNe);
}

TEST(LexerTest, NumbersIncludeNegativesAndDecimals) {
  auto toks = Lex("-3.5 7.25");
  EXPECT_EQ(toks[0].kind, TokenKind::kNumber);
  EXPECT_DOUBLE_EQ(toks[0].number, -3.5);
  EXPECT_DOUBLE_EQ(toks[1].number, 7.25);
}

TEST(LexerTest, BadCharacterYieldsError) {
  auto toks = Lex("SELECT @");
  bool has_error = false;
  for (const auto& t : toks) has_error |= t.kind == TokenKind::kError;
  EXPECT_TRUE(has_error);
}

// ------------------------------------------------------------------- Parser

TEST(ParserTest, PaperExampleQuery) {
  auto parsed = Parse(
      "SELECT TOP 1 roomid, AVERAGE(sound) FROM sensors GROUP BY roomid "
      "EPOCH DURATION 1 min");
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const ParsedQuery& q = parsed.value();
  EXPECT_EQ(q.top_k, 1);
  ASSERT_EQ(q.select.size(), 2u);
  EXPECT_EQ(q.select[0].attribute, "roomid");
  EXPECT_FALSE(q.select[0].is_aggregate());
  EXPECT_EQ(q.select[1].aggregate, "AVERAGE");
  EXPECT_EQ(q.select[1].attribute, "sound");
  EXPECT_EQ(q.group_by, "roomid");
  EXPECT_DOUBLE_EQ(q.epoch_duration_s, 60.0);
  EXPECT_EQ(q.history, 0);
  EXPECT_TRUE(Validate(q).ok());
  EXPECT_EQ(Classify(q), QueryClass::kSnapshotTopK);
}

TEST(ParserTest, HistoricQueryWithHistory) {
  auto parsed = Parse(
      "SELECT TOP 5 roomid, AVG(sound) FROM sensors GROUP BY roomid WITH HISTORY 64");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().history, 64);
  EXPECT_TRUE(Validate(parsed.value()).ok());
  EXPECT_EQ(Classify(parsed.value()), QueryClass::kHistoricHorizontal);
}

TEST(ParserTest, VerticalHistoricQuery) {
  auto parsed = Parse(
      "SELECT TOP 3 epoch, AVG(temperature) FROM sensors GROUP BY epoch WITH HISTORY 128");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(Validate(parsed.value()).ok()) << Validate(parsed.value()).message();
  EXPECT_EQ(Classify(parsed.value()), QueryClass::kHistoricVertical);
}

TEST(ParserTest, BasicSelectWithWhere) {
  auto parsed = Parse("SELECT nodeid, sound FROM sensors WHERE sound > 50");
  ASSERT_TRUE(parsed.ok());
  const ParsedQuery& q = parsed.value();
  EXPECT_EQ(q.top_k, 0);
  EXPECT_TRUE(q.has_where);
  EXPECT_EQ(q.where.attribute, "sound");
  EXPECT_EQ(q.where.op, CompareOp::kGt);
  EXPECT_DOUBLE_EQ(q.where.literal, 50.0);
  EXPECT_TRUE(Validate(q).ok());
  EXPECT_EQ(Classify(q), QueryClass::kBasicSelect);
}

TEST(ParserTest, EpochDurationUnits) {
  auto ms = Parse("SELECT sound FROM sensors EPOCH DURATION 500 ms");
  ASSERT_TRUE(ms.ok());
  EXPECT_DOUBLE_EQ(ms.value().epoch_duration_s, 0.5);
  auto sec = Parse("SELECT sound FROM sensors EPOCH DURATION 30 s");
  ASSERT_TRUE(sec.ok());
  EXPECT_DOUBLE_EQ(sec.value().epoch_duration_s, 30.0);
  auto bare = Parse("SELECT sound FROM sensors EPOCH DURATION 10");
  ASSERT_TRUE(bare.ok());
  EXPECT_DOUBLE_EQ(bare.value().epoch_duration_s, 10.0);
}

TEST(ParserTest, SyntaxErrors) {
  EXPECT_FALSE(Parse("").ok());
  EXPECT_FALSE(Parse("UPDATE sensors").ok());
  EXPECT_FALSE(Parse("SELECT TOP x roomid FROM sensors").ok());
  EXPECT_FALSE(Parse("SELECT roomid FROM").ok());
  EXPECT_FALSE(Parse("SELECT AVG( FROM sensors").ok());
  EXPECT_FALSE(Parse("SELECT roomid FROM sensors GROUP roomid").ok());
  EXPECT_FALSE(Parse("SELECT roomid FROM sensors trailing junk").ok());
  EXPECT_FALSE(Parse("SELECT sound FROM sensors EPOCH DURATION 5 hours").ok());
}

TEST(ParserTest, CountsMustBeIntegersTheWireCanCarry) {
  // TOP k and WITH HISTORY W are integers from 1 to 65535 (the u16 group
  // field); anything else is an error, not a truncation or an overflow.
  const char* top = "SELECT TOP %s roomid, AVG(sound) FROM sensors GROUP BY roomid";
  const char* history =
      "SELECT TOP 3 epoch, AVG(sound) FROM sensors GROUP BY epoch WITH HISTORY %s";
  for (const char* pattern : {top, history}) {
    for (const char* bad : {"0", "-1", "2.7", "0.5", "65536", "99999999999"}) {
      char sql[160];
      std::snprintf(sql, sizeof sql, pattern, bad);
      SCOPED_TRACE(sql);
      auto r = Parse(sql);
      ASSERT_FALSE(r.ok());
      EXPECT_NE(r.status().message().find("must be an integer from 1 to 65535"),
                std::string::npos);
    }
  }
  auto widest = Parse(
      "SELECT TOP 65535 epoch, AVG(sound) FROM sensors GROUP BY epoch WITH HISTORY 65535");
  ASSERT_TRUE(widest.ok());
  EXPECT_EQ(widest.value().top_k, 65535);
  EXPECT_EQ(widest.value().history, 65535);
  auto whole = Parse("SELECT TOP 2.0 roomid, AVG(sound) FROM sensors GROUP BY roomid");
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(whole.value().top_k, 2);
}

TEST(ParserTest, ErrorsCarryOffsets) {
  auto r = Parse("SELECT TOP x roomid FROM sensors");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("offset"), std::string::npos);
}

// ---------------------------------------------------------------- Validator

TEST(ValidatorTest, RejectsUnknownTableAndAttributes) {
  auto q1 = Parse("SELECT sound FROM motes");
  ASSERT_TRUE(q1.ok());
  EXPECT_FALSE(Validate(q1.value()).ok());
  auto q2 = Parse("SELECT wobble FROM sensors");
  ASSERT_TRUE(q2.ok());
  EXPECT_FALSE(Validate(q2.value()).ok());
  auto q3 = Parse("SELECT MEDIAN(sound) FROM sensors");
  ASSERT_TRUE(q3.ok());
  EXPECT_FALSE(Validate(q3.value()).ok());
}

TEST(ValidatorTest, TopKRequiresAggregateAndGroupBy) {
  auto no_agg = Parse("SELECT TOP 2 roomid FROM sensors GROUP BY roomid");
  ASSERT_TRUE(no_agg.ok());
  EXPECT_FALSE(Validate(no_agg.value()).ok());
  auto no_group = Parse("SELECT TOP 2 AVG(sound) FROM sensors");
  ASSERT_TRUE(no_group.ok());
  EXPECT_FALSE(Validate(no_group.value()).ok());
}

TEST(ValidatorTest, RejectsWhereOnTopK) {
  auto q = Parse(
      "SELECT TOP 2 roomid, AVG(sound) FROM sensors WHERE sound > 10 GROUP BY roomid");
  ASSERT_TRUE(q.ok());
  auto status = Validate(q.value());
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("WHERE"), std::string::npos);
}

TEST(ValidatorTest, GroupByEpochNeedsHistory) {
  auto q = Parse("SELECT TOP 2 epoch, AVG(sound) FROM sensors GROUP BY epoch");
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(Validate(q.value()).ok());
}

TEST(ValidatorTest, GroupByMustBeMeta) {
  auto q = Parse("SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY sound");
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(Validate(q.value()).ok());
}

// ------------------------------------------------------------- Robustness

TEST(ParserRobustnessTest, MutatedQueriesNeverCrash) {
  // The SQL text this suite parses, each mutated by a seeded run of byte
  // flips, inserts, deletes and truncations. Parse must return (ok or an
  // error) on every input, and Validate and Classify on every parsed one.
  const std::vector<std::string> corpus = {
      "SELECT TOP 1 roomid, AVERAGE(sound) FROM sensors GROUP BY roomid EPOCH DURATION 1 min",
      "SELECT TOP 5 roomid, AVG(sound) FROM sensors GROUP BY roomid WITH HISTORY 64",
      "SELECT TOP 3 epoch, AVG(temperature) FROM sensors GROUP BY epoch WITH HISTORY 128",
      "SELECT nodeid, sound FROM sensors WHERE sound > 50",
      "SELECT sound FROM sensors EPOCH DURATION 500 ms",
      "SELECT sound FROM sensors EPOCH DURATION 30 s",
      "SELECT sound FROM sensors EPOCH DURATION 10",
      "SELECT TOP 65535 epoch, AVG(sound) FROM sensors GROUP BY epoch WITH HISTORY 65535",
      "SELECT TOP 2.0 roomid, AVG(sound) FROM sensors GROUP BY roomid",
      "SELECT TOP 2 roomid, AVG(sound) FROM sensors WHERE sound > 10 GROUP BY roomid",
      "SELECT TOP 2 epoch, AVG(sound) FROM sensors GROUP BY epoch",
      "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY sound",
      "SELECT MEDIAN(sound) FROM sensors",
      "SELECT TOP x roomid FROM sensors",
      "SELECT AVG( FROM sensors",
      "-3.5 7.25 < <= > >= = != <>",
  };
  // Bytes that steer mutations toward the dialect's tokens.
  const std::string tokens = " (),.-<>=!0123456789eETOPSELECTWHBYmsin";
  util::Rng rng(20090329);
  size_t inputs = 0;
  size_t parsed = 0;
  for (int round = 0; round < 700; ++round) {
    for (const std::string& seed : corpus) {
      std::string sql = seed;
      const int mutations = 1 + static_cast<int>(rng.NextBounded(4));
      for (int m = 0; m < mutations; ++m) {
        const size_t at = sql.empty() ? 0 : rng.NextBounded(sql.size());
        switch (rng.NextBounded(4)) {
          case 0:  // flip one bit
            if (!sql.empty()) sql[at] = static_cast<char>(sql[at] ^ (1 << rng.NextBounded(8)));
            break;
          case 1: {  // insert a dialect byte or any byte
            const char c = rng.NextBernoulli(0.5)
                               ? tokens[rng.NextBounded(tokens.size())]
                               : static_cast<char>(rng.NextBounded(256));
            sql.insert(sql.begin() + static_cast<long>(at), c);
            break;
          }
          case 2:  // delete one byte
            if (!sql.empty()) sql.erase(at, 1);
            break;
          default:  // truncate
            sql.resize(at);
            break;
        }
      }
      ++inputs;
      auto result = Parse(sql);
      if (!result.ok()) continue;
      ++parsed;
      Validate(result.value());
      Classify(result.value());
    }
  }
  EXPECT_GE(inputs, 10000u);
  // Both outcomes occur, so the mutations reach past the first token.
  EXPECT_GT(parsed, inputs / 20);
  EXPECT_LT(parsed, inputs - inputs / 20);
}

TEST(QueryClassTest, Names) {
  EXPECT_EQ(QueryClassName(QueryClass::kSnapshotTopK), "snapshot-topk");
  EXPECT_EQ(QueryClassName(QueryClass::kHistoricVertical), "historic-vertical");
}

}  // namespace
}  // namespace kspot::query
