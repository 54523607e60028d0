#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace kspot::util {

/// Streaming JSON emitter with correct escaping and comma placement, for
/// writing experiment results and observability exports without building a
/// document tree.
///
///   JsonWriter w(os);
///   w.BeginObject();
///   w.Key("scenario"); w.Value("msgs_vs_k");
///   w.Key("trials"); w.BeginArray(); ... w.EndArray();
///   w.EndObject();
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) {}

  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();

  /// Emits an object key; must be followed by exactly one value.
  void Key(std::string_view key);

  void Value(std::string_view v);
  void Value(const char* v) { Value(std::string_view(v)); }
  void Value(double v);
  void Value(int v) { Value(static_cast<double>(v)); }
  void Value(uint64_t v);
  void Value(bool v);
  void Null();

 private:
  void MaybeComma();
  std::ostream& os_;
  /// One entry per open container: true when a value has already been
  /// written at this level (so the next one needs a comma).
  std::vector<bool> needs_comma_;
  bool after_key_ = false;
};

/// Escapes `s` as a JSON string literal including the surrounding quotes.
std::string JsonEscape(std::string_view s);

/// Formats a double the way JSON expects: integral values without a
/// fractional part, everything else with enough digits to round-trip.
std::string JsonNumber(double v);

}  // namespace kspot::util
