// Minimal JSON support for the serving layer (DESIGN.md §13): a strict
// recursive-descent parser producing a JsonValue tree, plus the escaping /
// number-formatting helpers the response renderers share. Stdlib-only by
// design, like the rest of the repo — the query DSL is small enough that a
// third-party JSON dependency would cost more than it saves.
//
// The parser is pure (bytes in, Result out, no I/O, no globals), so the
// fuzz-ish property test can hammer it with random byte strings without a
// socket in sight. Depth, size, and finiteness are all bounded: malformed
// or hostile input yields an InvalidArgument Status, never a crash.
#ifndef CIRANK_SERVE_JSON_H_
#define CIRANK_SERVE_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/json_string.h"
#include "util/status.h"

namespace cirank {
namespace serve {

// A parsed JSON document node. Object members keep their source order
// (rendering a parsed value reproduces the member sequence byte-for-byte
// modulo whitespace, which the round-trip property test relies on).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_null() const { return kind == Kind::kNull; }
  bool is_bool() const { return kind == Kind::kBool; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_object() const { return kind == Kind::kObject; }

  // First member with `key` in an object, nullptr when absent (or when this
  // value is not an object).
  const JsonValue* Find(std::string_view key) const;
};

struct JsonLimits {
  // Nesting depth of arrays/objects; exceeding it is InvalidArgument, not a
  // stack overflow.
  size_t max_depth = 64;
  // Input size cap; request bodies are already bounded by HttpLimits, this
  // is defense in depth for direct callers.
  size_t max_bytes = 4u << 20;
};

// Parses one complete JSON document (trailing garbage is an error).
// Strict: no comments, no trailing commas, no NaN/Infinity literals;
// numbers must be finite after conversion. Errors name the byte offset.
[[nodiscard]] Result<JsonValue> ParseJson(std::string_view text,
                                          const JsonLimits& limits = {});

// --- Rendering helpers ----------------------------------------------------
// Appends `s` as a quoted JSON string (util/json_string.h).
using ::cirank::AppendJsonString;

// Appends a number. Integral values within the double-exact range render
// without a fraction ("42"), everything else via %.17g so the value
// round-trips exactly. Non-finite inputs (never produced by the serving
// path) render as 0 to keep the output strict-JSON.
void AppendJsonNumber(std::string* out, double value);

// Renders a JsonValue tree back to compact JSON (no whitespace). Object
// member order is preserved.
std::string WriteJson(const JsonValue& value);

}  // namespace serve
}  // namespace cirank

#endif  // CIRANK_SERVE_JSON_H_
