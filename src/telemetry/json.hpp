// json.hpp — minimal JSON writer and strict validating parser.
//
// The exporters (report.hpp) need a correct writer with full string
// escaping and shortest-round-trip number formatting; the test suite and
// hotlib-analyze (the perf gate) need a *strict* reader that
// rejects anything RFC 8259 rejects (trailing commas, bare values,
// unescaped control characters) plus duplicate object keys, which the RFC
// merely discourages but which would corrupt a baseline comparison. No
// third-party dependency — the whole repo rule.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace hotlib::telemetry {

// ---- writer ---------------------------------------------------------------

// Escape and double-quote `s` per RFC 8259.
std::string json_escape(std::string_view s);

// Render a double as a JSON number (never NaN/Inf — those become 0, JSON has
// no spelling for them). Shortest round-trip: the fewest digits whose strtod
// re-parse yields the identical double.
std::string json_number(double v);

// Incremental writer for objects/arrays; keeps comma state so call sites
// stay linear. Usage:
//   JsonWriter w; w.begin_object(); w.key("a"); w.value(1.0); w.end_object();
class JsonWriter {
 public:
  void begin_object() { open('{'); }
  void end_object() { close('}'); }
  void begin_array() { open('['); }
  void end_array() { close(']'); }

  void key(std::string_view k) {
    comma();
    out_ += json_escape(k);
    out_ += ':';
    just_keyed_ = true;
  }
  void value(double v) { atom(json_number(v)); }
  void value(std::uint64_t v) { atom(std::to_string(v)); }
  void value(std::int64_t v) { atom(std::to_string(v)); }
  void value(int v) { atom(std::to_string(v)); }
  void value(bool v) { atom(v ? "true" : "false"); }
  void value(std::string_view s) { atom(json_escape(s)); }
  void value(const char* s) { atom(json_escape(s)); }
  void null() { atom("null"); }

  const std::string& str() const { return out_; }

 private:
  void comma() {
    if (just_keyed_) {
      just_keyed_ = false;
      return;
    }
    if (need_comma_) out_ += ',';
    need_comma_ = true;
  }
  void atom(std::string_view text) {
    comma();
    out_ += text;
  }
  void open(char c) {
    comma();
    out_ += c;
    need_comma_ = false;
  }
  void close(char c) {
    out_ += c;
    need_comma_ = true;
    just_keyed_ = false;
  }

  std::string out_;
  bool need_comma_ = false;
  bool just_keyed_ = false;
};

// ---- strict parser --------------------------------------------------------

class JsonValue;
using JsonArray = std::vector<JsonValue>;
using JsonObject = std::map<std::string, JsonValue, std::less<>>;

class JsonValue {
 public:
  using Storage = std::variant<std::nullptr_t, bool, double, std::string,
                               std::shared_ptr<JsonArray>, std::shared_ptr<JsonObject>>;

  JsonValue() : v_(nullptr) {}

  // Sets the value in place. The parser builds every value this way:
  // move-assigning a whole variant trips GCC 12's -Wmaybe-uninitialized in
  // the ASan + UBSan build (scripts/ubsan.sh).
  template <class T, class... Args>
  void emplace(Args&&... args) {
    v_.template emplace<T>(std::forward<Args>(args)...);
  }

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(v_); }
  bool is_number() const { return std::holds_alternative<double>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }
  bool is_array() const { return std::holds_alternative<std::shared_ptr<JsonArray>>(v_); }
  bool is_object() const { return std::holds_alternative<std::shared_ptr<JsonObject>>(v_); }

  bool as_bool() const { return std::get<bool>(v_); }
  double as_number() const { return std::get<double>(v_); }
  const std::string& as_string() const { return std::get<std::string>(v_); }
  const JsonArray& as_array() const { return *std::get<std::shared_ptr<JsonArray>>(v_); }
  const JsonObject& as_object() const { return *std::get<std::shared_ptr<JsonObject>>(v_); }

  // Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const {
    if (!is_object()) return nullptr;
    const auto& obj = as_object();
    auto it = obj.find(key);
    return it != obj.end() ? &it->second : nullptr;
  }

 private:
  Storage v_;
};

// Strict parse of a complete JSON document: exactly one top-level value,
// nothing but whitespace after it. On failure returns nullopt and fills
// `error` with a byte offset + reason.
struct JsonParseResult {
  bool ok = false;
  JsonValue value;
  std::string error;  // empty on success
};

JsonParseResult json_parse(std::string_view text);

}  // namespace hotlib::telemetry
