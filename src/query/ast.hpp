#pragma once

#include <string>
#include <vector>

namespace kspot::query {

/// One item of the SELECT list: either a bare attribute ("roomid") or an
/// aggregate call ("AVG(sound)").
struct SelectItem {
  std::string attribute;  ///< Attribute name, lowercased.
  std::string aggregate;  ///< Aggregate function name, uppercased; "" if bare.

  bool is_aggregate() const { return !aggregate.empty(); }
};

/// Comparison operators allowed in WHERE.
enum class CompareOp { kLt, kLe, kGt, kGe, kEq, kNe };

/// Optional WHERE predicate: `attribute op literal`.
struct Predicate {
  std::string attribute;
  CompareOp op = CompareOp::kGt;
  double literal = 0.0;
};

/// Parsed form of a KSpot query (the dialect of Sections I/III):
///
///   SELECT [TOP k] item {, item} FROM sensors
///     [WHERE attr op number]
///     [GROUP BY attr]
///     [EPOCH DURATION n (ms|s|sec|min)]
///     [WITH HISTORY n]
struct ParsedQuery {
  /// K of the TOP clause; 0 when no TOP clause is present.
  int top_k = 0;
  /// SELECT list in source order.
  std::vector<SelectItem> select;
  /// FROM target (always "sensors" after validation).
  std::string from;
  /// GROUP BY attribute, lowercased; "" when absent.
  std::string group_by;
  /// WHERE predicate, when has_where.
  bool has_where = false;
  Predicate where;
  /// Epoch duration in seconds; 0 when unspecified (defaults apply).
  double epoch_duration_s = 0.0;
  /// WITH HISTORY window length in epochs; 0 when absent.
  int history = 0;

  /// The first aggregate item of the SELECT list, if any.
  const SelectItem* FirstAggregate() const {
    for (const auto& item : select) {
      if (item.is_aggregate()) return &item;
    }
    return nullptr;
  }

  /// Renders the query back to canonical SQL text. Parsing the result yields
  /// an equivalent ParsedQuery (round-trip property, enforced by tests).
  std::string ToSql() const;
};

/// Query classes the KSpot client's query router distinguishes
/// (Section II: basic SELECT / GROUP-BY queries go to the local engine,
/// TOP-K queries to the specialized top-k operators).
enum class QueryClass {
  kBasicSelect,         ///< No TOP clause: plain TAG acquisition.
  kSnapshotTopK,        ///< TOP k, current readings: MINT.
  kHistoricHorizontal,  ///< TOP k over history, grouped by room/node: local filtering.
  kHistoricVertical,    ///< TOP k over history, grouped by time instance: TJA.
};

/// Human-readable class name.
std::string QueryClassName(QueryClass c);

}  // namespace kspot::query
