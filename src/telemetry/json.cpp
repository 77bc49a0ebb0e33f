#include "telemetry/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace hotlib::telemetry {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
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
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  out += '"';
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  // Integers up to 2^53 print exactly without an exponent or trailing ".0".
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  // Shortest round-trip: the fewest significant digits that strtod maps back
  // to the identical double. 17 digits always suffice (and always succeed),
  // but most values need far fewer — 0.1 prints as "0.1", not
  // "0.10000000000000001" — which keeps reports readable and baseline diffs
  // byte-stable.
  char buf[40];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonParseResult run() {
    JsonParseResult r;
    skip_ws();
    JsonValue v;
    if (!parse_value(v)) {
      r.error = error_;
      return r;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      r.error = fail("trailing characters after top-level value");
      return r;
    }
    r.ok = true;
    r.value = std::move(v);
    return r;
  }

 private:
  std::string fail(const std::string& why) {
    if (error_.empty())
      error_ = "JSON error at byte " + std::to_string(pos_) + ": " + why;
    return error_;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
        ++pos_;
      else
        break;
    }
  }

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      fail("invalid literal");
      return false;
    }
    pos_ += word.size();
    return true;
  }

  bool parse_value(JsonValue& out) {
    if (depth_ > 256) {
      fail("nesting too deep");
      return false;
    }
    if (eof()) {
      fail("unexpected end of input");
      return false;
    }
    switch (peek()) {
      case '{': return parse_object(out);
      case '[': return parse_array(out);
      case '"': {
        std::string s;
        if (!parse_string(s)) return false;
        out.emplace<std::string>(std::move(s));
        return true;
      }
      case 't':
        if (!literal("true")) return false;
        out.emplace<bool>(true);
        return true;
      case 'f':
        if (!literal("false")) return false;
        out.emplace<bool>(false);
        return true;
      case 'n':
        if (!literal("null")) return false;
        out.emplace<std::nullptr_t>();
        return true;
      default: return parse_number(out);
    }
  }

  bool parse_object(JsonValue& out) {
    ++pos_;  // '{'
    ++depth_;
    auto obj = std::make_shared<JsonObject>();
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      --depth_;
      out.emplace<std::shared_ptr<JsonObject>>(std::move(obj));
      return true;
    }
    for (;;) {
      skip_ws();
      if (eof() || peek() != '"') {
        fail("expected string key");
        return false;
      }
      std::string key;
      if (!parse_string(key)) return false;
      if (obj->find(key) != obj->end()) {
        // RFC 8259 only says names "should" be unique, but every document we
        // produce or consume is machine-written with unique keys — a
        // duplicate means a broken writer, and silently keeping one value
        // would corrupt a baseline comparison.
        fail("duplicate object key \"" + key + "\"");
        return false;
      }
      skip_ws();
      if (eof() || peek() != ':') {
        fail("expected ':' after key");
        return false;
      }
      ++pos_;
      skip_ws();
      JsonValue v;
      if (!parse_value(v)) return false;
      (*obj)[std::move(key)] = std::move(v);
      skip_ws();
      if (eof()) {
        fail("unterminated object");
        return false;
      }
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        --depth_;
        out.emplace<std::shared_ptr<JsonObject>>(std::move(obj));
        return true;
      }
      fail("expected ',' or '}' in object");
      return false;
    }
  }

  bool parse_array(JsonValue& out) {
    ++pos_;  // '['
    ++depth_;
    auto arr = std::make_shared<JsonArray>();
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      --depth_;
      out.emplace<std::shared_ptr<JsonArray>>(std::move(arr));
      return true;
    }
    for (;;) {
      skip_ws();
      JsonValue v;
      if (!parse_value(v)) return false;
      arr->push_back(std::move(v));
      skip_ws();
      if (eof()) {
        fail("unterminated array");
        return false;
      }
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        --depth_;
        out.emplace<std::shared_ptr<JsonArray>>(std::move(arr));
        return true;
      }
      fail("expected ',' or ']' in array");
      return false;
    }
  }

  bool parse_string(std::string& out) {
    ++pos_;  // opening quote
    out.clear();
    while (!eof()) {
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c < 0x20) {
        fail("unescaped control character in string");
        return false;
      }
      if (c == '\\') {
        ++pos_;
        if (eof()) break;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              fail("truncated \\u escape");
              return false;
            }
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9')
                code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f')
                code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F')
                code |= static_cast<unsigned>(h - 'A' + 10);
              else {
                fail("invalid hex digit in \\u escape");
                return false;
              }
            }
            // UTF-8 encode the BMP code point (surrogate pairs: encode each
            // half independently is wrong, but our writer never emits them;
            // reject to stay strict).
            if (code >= 0xD800 && code <= 0xDFFF) {
              fail("surrogate \\u escapes unsupported");
              return false;
            }
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: fail("invalid escape character"); return false;
        }
        continue;
      }
      out += static_cast<char>(c);
      ++pos_;
    }
    fail("unterminated string");
    return false;
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    // Integer part: 0, or [1-9][0-9]*.
    if (eof() || !is_digit(peek())) {
      fail("invalid number");
      return false;
    }
    if (peek() == '0') {
      ++pos_;
      if (!eof() && is_digit(peek())) {
        fail("leading zero in number");
        return false;
      }
    } else {
      while (!eof() && is_digit(peek())) ++pos_;
    }
    if (!eof() && peek() == '.') {
      ++pos_;
      if (eof() || !is_digit(peek())) {
        fail("digit required after decimal point");
        return false;
      }
      while (!eof() && is_digit(peek())) ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (eof() || !is_digit(peek())) {
        fail("digit required in exponent");
        return false;
      }
      while (!eof() && is_digit(peek())) ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    out.emplace<double>(std::strtod(token.c_str(), nullptr));
    return true;
  }

  static bool is_digit(char c) { return c >= '0' && c <= '9'; }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string error_;
};

}  // namespace

JsonParseResult json_parse(std::string_view text) { return Parser(text).run(); }

}  // namespace hotlib::telemetry
