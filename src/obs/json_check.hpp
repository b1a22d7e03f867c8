// Minimal JSON reader for validating the repo's own machine-readable
// outputs: scenario/sweep JSON and the Chrome trace-event exports. Used by
// tools/trace_check (CI validates every uploaded trace artifact with it) and
// by the observability tests (Perfetto well-formedness: parses, required
// keys present, per-track timestamps monotonic).
//
// Scope is deliberately small — a strict recursive-descent parser over the
// JSON the repo emits (objects, arrays, strings, numbers, booleans, null),
// preserving object key order. It is a checker, not a general-purpose
// library: no streaming, no SAX, inputs are whole in-memory documents.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ncc::obs {

struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;  // insertion order

  bool is_object() const { return kind == Kind::Object; }
  bool is_array() const { return kind == Kind::Array; }
  bool is_number() const { return kind == Kind::Number; }
  bool is_string() const { return kind == Kind::String; }

  /// Object member lookup (first match), nullptr when absent or not an
  /// object.
  const JsonValue* find(const std::string& key) const;
};

/// Parse `text` as one JSON document (trailing garbage is an error; so is
/// nesting deeper than 256 arrays/objects). On failure returns false and,
/// when `error` is non-null, describes the first problem with its byte
/// offset.
bool json_parse(std::string_view text, JsonValue* out, std::string* error);

}  // namespace ncc::obs
