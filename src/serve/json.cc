#include "serve/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace cirank {
namespace serve {

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

// Recursive-descent parser over a string_view. Every failure path returns
// an InvalidArgument naming the byte offset, so the HTTP layer can surface
// actionable 400s.
class Parser {
 public:
  Parser(std::string_view text, const JsonLimits& limits)
      : text_(text), limits_(limits) {}

  Result<JsonValue> ParseDocument() {
    SkipWhitespace();
    CIRANK_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return value;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::InvalidArgument("JSON parse error at byte " +
                                   std::to_string(pos_) + ": " + what);
  }

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  void SkipWhitespace() {
    while (!AtEnd()) {
      const char c = Peek();
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (AtEnd() || Peek() != c) return false;
    ++pos_;
    return true;
  }

  Status Expect(char c, const char* where) {
    if (!Consume(c)) {
      return Error(std::string("expected '") + c + "' " + where);
    }
    return Status::OK();
  }

  Result<JsonValue> ParseValue() {
    if (AtEnd()) return Error("unexpected end of input");
    if (depth_ > limits_.max_depth) return Error("nesting too deep");
    const char c = Peek();
    switch (c) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"':
        return ParseStringValue();
      case 't':
      case 'f':
        return ParseBool();
      case 'n':
        return ParseNull();
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return ParseNumber();
        return Error(std::string("unexpected character '") + c + "'");
    }
  }

  Result<JsonValue> ParseObject() {
    CIRANK_RETURN_IF_ERROR(Expect('{', "to open object"));
    ++depth_;
    JsonValue value;
    value.kind = JsonValue::Kind::kObject;
    SkipWhitespace();
    if (Consume('}')) {
      --depth_;
      return value;
    }
    while (true) {
      SkipWhitespace();
      if (AtEnd() || Peek() != '"') return Error("expected object key string");
      CIRANK_ASSIGN_OR_RETURN(std::string key, ParseStringLiteral());
      SkipWhitespace();
      CIRANK_RETURN_IF_ERROR(Expect(':', "after object key"));
      SkipWhitespace();
      CIRANK_ASSIGN_OR_RETURN(JsonValue member, ParseValue());
      value.object.emplace_back(std::move(key), std::move(member));
      SkipWhitespace();
      if (Consume(',')) continue;
      CIRANK_RETURN_IF_ERROR(Expect('}', "to close object"));
      break;
    }
    --depth_;
    return value;
  }

  Result<JsonValue> ParseArray() {
    CIRANK_RETURN_IF_ERROR(Expect('[', "to open array"));
    ++depth_;
    JsonValue value;
    value.kind = JsonValue::Kind::kArray;
    SkipWhitespace();
    if (Consume(']')) {
      --depth_;
      return value;
    }
    while (true) {
      SkipWhitespace();
      CIRANK_ASSIGN_OR_RETURN(JsonValue element, ParseValue());
      value.array.push_back(std::move(element));
      SkipWhitespace();
      if (Consume(',')) continue;
      CIRANK_RETURN_IF_ERROR(Expect(']', "to close array"));
      break;
    }
    --depth_;
    return value;
  }

  Result<JsonValue> ParseStringValue() {
    CIRANK_ASSIGN_OR_RETURN(std::string s, ParseStringLiteral());
    JsonValue value;
    value.kind = JsonValue::Kind::kString;
    value.string = std::move(s);
    return value;
  }

  // Decodes \uXXXX (pos_ is just past the 'u'); surrogate pairs combine.
  Result<uint32_t> ParseUnicodeEscape() {
    uint32_t code = 0;
    for (int i = 0; i < 4; ++i) {
      if (AtEnd()) return Error("truncated \\u escape");
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Error("invalid hex digit in \\u escape");
      }
    }
    return code;
  }

  Result<std::string> ParseStringLiteral() {
    CIRANK_RETURN_IF_ERROR(Expect('"', "to open string"));
    std::string out;
    while (true) {
      if (AtEnd()) return Error("unterminated string");
      const unsigned char c = static_cast<unsigned char>(text_[pos_++]);
      if (c == '"') return out;
      if (c < 0x20) return Error("raw control character in string");
      if (c != '\\') {
        out.push_back(static_cast<char>(c));
        continue;
      }
      if (AtEnd()) return Error("truncated escape sequence");
      const char e = text_[pos_++];
      switch (e) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          CIRANK_ASSIGN_OR_RETURN(uint32_t code, ParseUnicodeEscape());
          if (code >= 0xD800 && code <= 0xDBFF) {
            // High surrogate: a \uDC00-\uDFFF low surrogate must follow.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return Error("lone high surrogate in \\u escape");
            }
            pos_ += 2;
            CIRANK_ASSIGN_OR_RETURN(uint32_t low, ParseUnicodeEscape());
            if (low < 0xDC00 || low > 0xDFFF) {
              return Error("invalid low surrogate in \\u escape");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            return Error("lone low surrogate in \\u escape");
          }
          AppendUtf8(&out, code);
          break;
        }
        default:
          return Error("invalid escape sequence");
      }
    }
  }

  static void AppendUtf8(std::string* out, uint32_t code) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  Result<JsonValue> ParseNumber() {
    const size_t start = pos_;
    Consume('-');
    if (AtEnd() || Peek() < '0' || Peek() > '9') {
      return Error("malformed number");
    }
    if (Peek() == '0') {
      ++pos_;  // leading zero: no further integer digits allowed
    } else {
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') ++pos_;
    }
    if (Consume('.')) {
      if (AtEnd() || Peek() < '0' || Peek() > '9') {
        return Error("malformed number: digits must follow '.'");
      }
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') ++pos_;
    }
    if (!AtEnd() && (Peek() == 'e' || Peek() == 'E')) {
      ++pos_;
      if (!AtEnd() && (Peek() == '+' || Peek() == '-')) ++pos_;
      if (AtEnd() || Peek() < '0' || Peek() > '9') {
        return Error("malformed number: digits must follow exponent");
      }
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') ++pos_;
    }
    // The token is lexically valid; strtod needs NUL-terminated input.
    const std::string token(text_.substr(start, pos_ - start));
    const double parsed = std::strtod(token.c_str(), nullptr);
    if (!std::isfinite(parsed)) {
      return Error("number out of representable range");
    }
    JsonValue value;
    value.kind = JsonValue::Kind::kNumber;
    value.number = parsed;
    return value;
  }

  Result<JsonValue> ParseBool() {
    if (text_.substr(pos_, 4) == "true") {
      pos_ += 4;
      JsonValue value;
      value.kind = JsonValue::Kind::kBool;
      value.bool_value = true;
      return value;
    }
    if (text_.substr(pos_, 5) == "false") {
      pos_ += 5;
      JsonValue value;
      value.kind = JsonValue::Kind::kBool;
      value.bool_value = false;
      return value;
    }
    return Error("expected 'true' or 'false'");
  }

  Result<JsonValue> ParseNull() {
    if (text_.substr(pos_, 4) == "null") {
      pos_ += 4;
      return JsonValue{};
    }
    return Error("expected 'null'");
  }

  std::string_view text_;
  const JsonLimits& limits_;
  size_t pos_ = 0;
  size_t depth_ = 0;
};

}  // namespace

Result<JsonValue> ParseJson(std::string_view text, const JsonLimits& limits) {
  if (text.size() > limits.max_bytes) {
    return Status::InvalidArgument(
        "JSON document exceeds " + std::to_string(limits.max_bytes) +
        " bytes (got " + std::to_string(text.size()) + ")");
  }
  return Parser(text, limits).ParseDocument();
}

void AppendJsonNumber(std::string* out, double value) {
  if (!std::isfinite(value)) {
    out->push_back('0');
    return;
  }
  // 2^53: the largest range where every integer is double-exact, so the
  // integer fast path never changes the value it prints.
  constexpr double kExactIntLimit = 9007199254740992.0;
  if (value == std::rint(value) && std::fabs(value) < kExactIntLimit) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(value));
    out->append(buf);
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out->append(buf);
}

std::string WriteJson(const JsonValue& value) {
  std::string out;
  switch (value.kind) {
    case JsonValue::Kind::kNull:
      out = "null";
      break;
    case JsonValue::Kind::kBool:
      out = value.bool_value ? "true" : "false";
      break;
    case JsonValue::Kind::kNumber:
      AppendJsonNumber(&out, value.number);
      break;
    case JsonValue::Kind::kString:
      AppendJsonString(&out, value.string);
      break;
    case JsonValue::Kind::kArray: {
      out.push_back('[');
      for (size_t i = 0; i < value.array.size(); ++i) {
        if (i > 0) out.push_back(',');
        out += WriteJson(value.array[i]);
      }
      out.push_back(']');
      break;
    }
    case JsonValue::Kind::kObject: {
      out.push_back('{');
      for (size_t i = 0; i < value.object.size(); ++i) {
        if (i > 0) out.push_back(',');
        AppendJsonString(&out, value.object[i].first);
        out.push_back(':');
        out += WriteJson(value.object[i].second);
      }
      out.push_back('}');
      break;
    }
  }
  return out;
}

}  // namespace serve
}  // namespace cirank
