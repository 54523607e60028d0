#include "util/json.hpp"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace kspot::util {

// ------------------------------------------------------------ primitives

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(static_cast<char>(c));
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";  // JSON has no Inf/NaN.
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // Trim to the shortest representation that still round-trips.
  for (int prec = 1; prec < 17; ++prec) {
    char probe[32];
    std::snprintf(probe, sizeof(probe), "%.*g", prec, v);
    if (std::strtod(probe, nullptr) == v) return probe;
  }
  return buf;
}

// ----------------------------------------------------------------- writer

void JsonWriter::MaybeComma() {
  if (after_key_) {
    after_key_ = false;
    return;  // value directly follows its key.
  }
  if (!needs_comma_.empty()) {
    if (needs_comma_.back()) os_ << ',';
    needs_comma_.back() = true;
  }
}

void JsonWriter::BeginObject() {
  MaybeComma();
  os_ << '{';
  needs_comma_.push_back(false);
}

void JsonWriter::EndObject() {
  assert(!needs_comma_.empty());
  needs_comma_.pop_back();
  os_ << '}';
}

void JsonWriter::BeginArray() {
  MaybeComma();
  os_ << '[';
  needs_comma_.push_back(false);
}

void JsonWriter::EndArray() {
  assert(!needs_comma_.empty());
  needs_comma_.pop_back();
  os_ << ']';
}

void JsonWriter::Key(std::string_view key) {
  assert(!needs_comma_.empty());
  if (needs_comma_.back()) os_ << ',';
  needs_comma_.back() = true;
  os_ << JsonEscape(key) << ':';
  after_key_ = true;
}

void JsonWriter::Value(std::string_view v) {
  MaybeComma();
  os_ << JsonEscape(v);
}

void JsonWriter::Value(double v) {
  MaybeComma();
  os_ << JsonNumber(v);
}

void JsonWriter::Value(uint64_t v) {
  MaybeComma();
  os_ << v;
}

void JsonWriter::Value(bool v) {
  MaybeComma();
  os_ << (v ? "true" : "false");
}

void JsonWriter::Null() {
  MaybeComma();
  os_ << "null";
}

}  // namespace kspot::util
