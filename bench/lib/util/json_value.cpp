#include "util/json_value.hpp"

#include <cctype>
#include <charconv>
#include <sstream>

#include "util/json.hpp"

namespace kspot::util {

// ----------------------------------------------------------- construction

JsonValue JsonValue::Bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::Number(double d) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = d;
  return v;
}

JsonValue JsonValue::String(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::Array() {
  JsonValue v;
  v.kind_ = Kind::kArray;
  return v;
}

JsonValue JsonValue::Object() {
  JsonValue v;
  v.kind_ = Kind::kObject;
  return v;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void JsonValue::Set(std::string key, JsonValue v) {
  for (auto& [k, existing] : object_) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  object_.emplace_back(std::move(key), std::move(v));
}

// ------------------------------------------------------------------- dump

void JsonValue::DumpTo(std::ostream& os) const {
  switch (kind_) {
    case Kind::kNull: os << "null"; break;
    case Kind::kBool: os << (bool_ ? "true" : "false"); break;
    case Kind::kNumber: os << JsonNumber(number_); break;
    case Kind::kString: os << JsonEscape(string_); break;
    case Kind::kArray: {
      os << '[';
      bool first = true;
      for (const JsonValue& v : array_) {
        if (!first) os << ',';
        first = false;
        v.DumpTo(os);
      }
      os << ']';
      break;
    }
    case Kind::kObject: {
      os << '{';
      bool first = true;
      for (const auto& [k, v] : object_) {
        if (!first) os << ',';
        first = false;
        os << JsonEscape(k) << ':';
        v.DumpTo(os);
      }
      os << '}';
      break;
    }
  }
}

std::string JsonValue::Dump() const {
  std::ostringstream os;
  DumpTo(os);
  return os.str();
}

// ------------------------------------------------------------------ parse

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  StatusOr<JsonValue> Run() {
    StatusOr<JsonValue> value = ParseValue();
    if (!value.ok()) return value;
    SkipWs();
    if (pos_ != text_.size()) return Fail("trailing characters after document");
    return value;
  }

 private:
  Status Fail(const std::string& what) const {
    return Status::Error("json: " + what + " at offset " + std::to_string(pos_));
  }

  void SkipWs() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  StatusOr<JsonValue> ParseValue() {
    SkipWs();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case '{': return ParseObject();
      case '[': return ParseArray();
      case '"': {
        StatusOr<std::string> s = ParseString();
        if (!s.ok()) return s.status();
        return JsonValue::String(std::move(s).value());
      }
      case 't':
        if (ConsumeWord("true")) return JsonValue::Bool(true);
        return Fail("invalid literal");
      case 'f':
        if (ConsumeWord("false")) return JsonValue::Bool(false);
        return Fail("invalid literal");
      case 'n':
        if (ConsumeWord("null")) return JsonValue::Null();
        return Fail("invalid literal");
      default: return ParseNumber();
    }
  }

  StatusOr<JsonValue> ParseObject() {
    ++pos_;  // '{'
    JsonValue obj = JsonValue::Object();
    SkipWs();
    if (Consume('}')) return obj;
    while (true) {
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"') return Fail("expected object key");
      StatusOr<std::string> key = ParseString();
      if (!key.ok()) return key.status();
      SkipWs();
      if (!Consume(':')) return Fail("expected ':'");
      StatusOr<JsonValue> value = ParseValue();
      if (!value.ok()) return value;
      obj.Set(std::move(key).value(), std::move(value).value());
      SkipWs();
      if (Consume(',')) continue;
      if (Consume('}')) return obj;
      return Fail("expected ',' or '}'");
    }
  }

  StatusOr<JsonValue> ParseArray() {
    ++pos_;  // '['
    JsonValue arr = JsonValue::Array();
    SkipWs();
    if (Consume(']')) return arr;
    while (true) {
      StatusOr<JsonValue> value = ParseValue();
      if (!value.ok()) return value;
      arr.Append(std::move(value).value());
      SkipWs();
      if (Consume(',')) continue;
      if (Consume(']')) return arr;
      return Fail("expected ',' or ']'");
    }
  }

  StatusOr<std::string> ParseString() {
    ++pos_;  // '"'
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        char esc = text_[pos_++];
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return Fail("invalid \\u escape");
            }
            // UTF-8 encode the BMP code point (schema strings are ASCII; this
            // keeps arbitrary escapes lossless anyway).
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default: return Fail("invalid escape");
        }
      } else {
        out.push_back(c);
      }
    }
    return Fail("unterminated string");
  }

  StatusOr<JsonValue> ParseNumber() {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Fail("invalid value");
    double value = 0.0;
    auto result = std::from_chars(text_.data() + start, text_.data() + pos_, value);
    if (result.ec != std::errc() || result.ptr != text_.data() + pos_) {
      return Fail("invalid number");
    }
    return JsonValue::Number(value);
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

StatusOr<JsonValue> JsonValue::Parse(std::string_view text) {
  return Parser(text).Run();
}

}  // namespace kspot::util
