#include "query/ast.hpp"

#include <sstream>

#include "util/string_util.hpp"

namespace kspot::query {

namespace {

/// The source-text spelling of a comparison operator.
std::string CompareOpText(CompareOp op) {
  switch (op) {
    case CompareOp::kLt: return "<";
    case CompareOp::kLe: return "<=";
    case CompareOp::kGt: return ">";
    case CompareOp::kGe: return ">=";
    case CompareOp::kEq: return "=";
    case CompareOp::kNe: return "!=";
  }
  return "?";
}

}  // namespace

std::string ParsedQuery::ToSql() const {
  std::ostringstream oss;
  oss << "SELECT";
  if (top_k > 0) oss << " TOP " << top_k;
  for (size_t i = 0; i < select.size(); ++i) {
    oss << (i == 0 ? " " : ", ");
    if (select[i].is_aggregate()) {
      oss << select[i].aggregate << '(' << select[i].attribute << ')';
    } else {
      oss << select[i].attribute;
    }
  }
  oss << " FROM " << from;
  if (has_where) {
    oss << " WHERE " << where.attribute << ' ' << CompareOpText(where.op) << ' '
        << util::FormatDouble(where.literal, where.literal == static_cast<int>(where.literal)
                                                 ? 0
                                                 : 2);
  }
  if (!group_by.empty()) oss << " GROUP BY " << group_by;
  if (epoch_duration_s > 0) {
    // Canonicalize to seconds (the parser accepts ms/s/min); keep fractions
    // for sub-second durations so the round trip is lossless.
    bool integral = epoch_duration_s == static_cast<double>(static_cast<long>(epoch_duration_s));
    oss << " EPOCH DURATION " << util::FormatDouble(epoch_duration_s, integral ? 0 : 3)
        << " s";
  }
  if (history > 0) oss << " WITH HISTORY " << history;
  return oss.str();
}

std::string QueryClassName(QueryClass c) {
  switch (c) {
    case QueryClass::kBasicSelect: return "basic-select";
    case QueryClass::kSnapshotTopK: return "snapshot-topk";
    case QueryClass::kHistoricHorizontal: return "historic-horizontal";
    case QueryClass::kHistoricVertical: return "historic-vertical";
  }
  return "?";
}

}  // namespace kspot::query
