#include "query/parser.hpp"

#include <set>

#include "agg/aggregate.hpp"
#include "data/modality.hpp"
#include "query/lexer.hpp"
#include "util/string_util.hpp"

namespace kspot::query {

namespace {

/// Recursive-descent parser over the token stream.
class ParserImpl {
 public:
  explicit ParserImpl(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  util::StatusOr<ParsedQuery> Run() {
    ParsedQuery q;
    if (!ExpectKeyword("SELECT")) return Error("expected SELECT");
    if (PeekKeyword("TOP")) {
      Advance();
      if (util::Status count = ParseCount("TOP", &q.top_k); !count.ok()) return count;
    }
    // Select list.
    for (;;) {
      util::StatusOr<SelectItem> item = ParseSelectItem();
      if (!item.ok()) return item.status();
      q.select.push_back(item.value());
      if (Peek().kind == TokenKind::kComma) {
        Advance();
        continue;
      }
      break;
    }
    if (!ExpectKeyword("FROM")) return Error("expected FROM");
    if (Peek().kind != TokenKind::kIdentifier) return Error("expected table name after FROM");
    q.from = util::ToLower(Peek().text);
    Advance();

    if (PeekKeyword("WHERE")) {
      Advance();
      util::Status s = ParsePredicate(&q);
      if (!s.ok()) return s;
    }
    if (PeekKeyword("GROUP")) {
      Advance();
      if (!ExpectKeyword("BY")) return Error("expected BY after GROUP");
      if (Peek().kind != TokenKind::kIdentifier) return Error("expected attribute after GROUP BY");
      q.group_by = util::ToLower(Peek().text);
      Advance();
    }
    if (PeekKeyword("EPOCH")) {
      Advance();
      if (!ExpectKeyword("DURATION")) return Error("expected DURATION after EPOCH");
      if (Peek().kind != TokenKind::kNumber) return Error("expected number after EPOCH DURATION");
      double value = Peek().number;
      Advance();
      double unit_s = 1.0;
      if (Peek().kind == TokenKind::kIdentifier) {
        std::string unit = util::ToLower(Peek().text);
        if (unit == "ms") {
          unit_s = 1e-3;
        } else if (unit == "s" || unit == "sec" || unit == "second" || unit == "seconds") {
          unit_s = 1.0;
        } else if (unit == "min" || unit == "minute" || unit == "minutes") {
          unit_s = 60.0;
        } else {
          return Error("unknown epoch duration unit '" + unit + "'");
        }
        Advance();
      }
      q.epoch_duration_s = value * unit_s;
    }
    if (PeekKeyword("WITH")) {
      Advance();
      if (!ExpectKeyword("HISTORY")) return Error("expected HISTORY after WITH");
      if (util::Status count = ParseCount("WITH HISTORY", &q.history); !count.ok()) return count;
    }
    if (Peek().kind != TokenKind::kEnd) {
      return Error("unexpected trailing input '" + Peek().text + "'");
    }
    return q;
  }

 private:
  std::vector<Token> tokens_;
  size_t pos_ = 0;

  const Token& Peek() const { return tokens_[pos_]; }
  void Advance() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }
  bool PeekKeyword(const char* kw) const {
    return Peek().kind == TokenKind::kIdentifier && util::EqualsIgnoreCase(Peek().text, kw);
  }
  bool ExpectKeyword(const char* kw) {
    if (!PeekKeyword(kw)) return false;
    Advance();
    return true;
  }
  /// Reads the integer after `clause` into `out`: 1 to 65535, the wire
  /// codec's u16 group field, which also carries TJA's window positions.
  util::Status ParseCount(const std::string& clause, int* out) {
    if (Peek().kind != TokenKind::kNumber) return Error("expected number after " + clause);
    const double value = Peek().number;
    if (!(value >= 1 && value <= 65535) || value != static_cast<int>(value)) {
      return Error(clause + " must be an integer from 1 to 65535, got '" + Peek().text + "'");
    }
    *out = static_cast<int>(value);
    Advance();
    return util::Status::Ok();
  }
  util::Status Error(const std::string& message) const {
    return util::Status::Error(message + " (at offset " + std::to_string(Peek().offset) + ")");
  }

  util::StatusOr<SelectItem> ParseSelectItem() {
    if (Peek().kind != TokenKind::kIdentifier) return Error("expected select item");
    std::string first = Peek().text;
    Advance();
    SelectItem item;
    if (Peek().kind == TokenKind::kLParen) {
      Advance();
      if (Peek().kind != TokenKind::kIdentifier) return Error("expected attribute in aggregate");
      item.aggregate = util::ToUpper(first);
      item.attribute = util::ToLower(Peek().text);
      Advance();
      if (Peek().kind != TokenKind::kRParen) return Error("expected ')'");
      Advance();
    } else {
      item.attribute = util::ToLower(first);
    }
    return item;
  }

  util::Status ParsePredicate(ParsedQuery* q) {
    if (Peek().kind != TokenKind::kIdentifier) {
      return Error("expected attribute in WHERE");
    }
    q->where.attribute = util::ToLower(Peek().text);
    Advance();
    switch (Peek().kind) {
      case TokenKind::kLt: q->where.op = CompareOp::kLt; break;
      case TokenKind::kLe: q->where.op = CompareOp::kLe; break;
      case TokenKind::kGt: q->where.op = CompareOp::kGt; break;
      case TokenKind::kGe: q->where.op = CompareOp::kGe; break;
      case TokenKind::kEq: q->where.op = CompareOp::kEq; break;
      case TokenKind::kNe: q->where.op = CompareOp::kNe; break;
      default: return Error("expected comparison operator in WHERE");
    }
    Advance();
    if (Peek().kind != TokenKind::kNumber) {
      return Error("expected number literal in WHERE");
    }
    q->where.literal = Peek().number;
    Advance();
    q->has_where = true;
    return util::Status::Ok();
  }
};

/// Attributes the deployment understands besides sensed modalities.
const std::set<std::string>& MetaAttributes() {
  static const std::set<std::string> kMeta = {"roomid", "nodeid", "epoch"};
  return kMeta;
}

bool IsSensedAttribute(const std::string& name) {
  data::Modality m;
  return data::ParseModality(name, &m);
}

}  // namespace

util::StatusOr<ParsedQuery> Parse(const std::string& sql) {
  std::vector<Token> tokens = Lex(sql);
  for (const Token& t : tokens) {
    if (t.kind == TokenKind::kError) {
      return util::Status::Error("unexpected character '" + t.text + "' at offset " +
                                 std::to_string(t.offset));
    }
  }
  return ParserImpl(std::move(tokens)).Run();
}

util::Status Validate(const ParsedQuery& q) {
  if (q.from != "sensors") {
    return util::Status::Error("unknown table '" + q.from + "'; only 'sensors' exists");
  }
  if (q.select.empty()) return util::Status::Error("empty select list");
  if (q.top_k < 0) return util::Status::Error("TOP k must be positive");
  if (q.history < 0) return util::Status::Error("WITH HISTORY must be positive");
  for (const auto& item : q.select) {
    if (item.is_aggregate()) {
      agg::AggKind kind;
      if (!agg::ParseAggKind(item.aggregate, &kind)) {
        return util::Status::Error("unknown aggregate '" + item.aggregate + "'");
      }
      if (!IsSensedAttribute(item.attribute)) {
        return util::Status::Error("aggregate over unknown attribute '" + item.attribute + "'");
      }
    } else if (!MetaAttributes().count(item.attribute) && !IsSensedAttribute(item.attribute)) {
      return util::Status::Error("unknown attribute '" + item.attribute + "'");
    }
  }
  if (!q.group_by.empty() && !MetaAttributes().count(q.group_by)) {
    return util::Status::Error("GROUP BY must use roomid, nodeid or epoch");
  }
  if (q.top_k > 0) {
    if (q.FirstAggregate() == nullptr) {
      return util::Status::Error("TOP-K queries need an aggregate select item");
    }
    if (q.group_by.empty()) {
      return util::Status::Error("TOP-K queries need a GROUP BY clause");
    }
    if (q.has_where) {
      return util::Status::Error(
          "WHERE is not supported on TOP-K queries (group membership must be static "
          "for in-network pruning); filter with a basic SELECT instead");
    }
    if (q.group_by == "epoch" && q.history == 0) {
      return util::Status::Error("GROUP BY epoch requires WITH HISTORY");
    }
    if (q.group_by == "epoch") {
      // TJA's union-threshold certificate bounds sums/averages; other
      // aggregates have no sound distributed threshold here.
      agg::AggKind kind;
      agg::ParseAggKind(q.FirstAggregate()->aggregate, &kind);
      if (kind != agg::AggKind::kAvg && kind != agg::AggKind::kSum) {
        return util::Status::Error(
            "historic GROUP BY epoch queries support AVG and SUM only");
      }
    }
  }
  if (q.has_where && !IsSensedAttribute(q.where.attribute)) {
    return util::Status::Error("WHERE over unknown attribute '" + q.where.attribute + "'");
  }
  return util::Status::Ok();
}

QueryClass Classify(const ParsedQuery& q) {
  if (q.top_k <= 0) return QueryClass::kBasicSelect;
  if (q.history > 0) {
    return q.group_by == "epoch" ? QueryClass::kHistoricVertical
                                 : QueryClass::kHistoricHorizontal;
  }
  return QueryClass::kSnapshotTopK;
}

}  // namespace kspot::query
