#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.hpp"

namespace kspot::util {

/// A parsed JSON document: null / bool / number / string / array / object.
/// Object member order is preserved (experiment schemas are written and
/// compared in a stable order). Used by tests that round-trip the
/// BENCH_*.json schema and the observability exports.
class JsonValue {
 public:
  JsonValue() = default;

  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool b);
  static JsonValue Number(double v);
  static JsonValue String(std::string s);
  static JsonValue Array();
  static JsonValue Object();

  /// Parses a JSON document. Rejects trailing garbage.
  static StatusOr<JsonValue> Parse(std::string_view text);

  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Value accessors; each requires the matching kind.
  bool bool_value() const { return bool_; }
  double number_value() const { return number_; }
  const std::string& string_value() const { return string_; }
  const std::vector<JsonValue>& array_items() const { return array_; }
  const std::vector<std::pair<std::string, JsonValue>>& object_members() const {
    return object_;
  }

  /// Object lookup; returns nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;

  /// Appends to an array value.
  void Append(JsonValue v) { array_.push_back(std::move(v)); }

  /// Sets (or replaces) an object member, keeping insertion order.
  void Set(std::string key, JsonValue v);

  /// Serializes compactly (no whitespace).
  std::string Dump() const;

 private:
  enum class Kind : uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  void DumpTo(std::ostream& os) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

}  // namespace kspot::util
