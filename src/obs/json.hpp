// Minimal JSON support for the observability subsystem: string escaping for
// the writers (metrics snapshot, trace file, JSONL run log) and a small
// recursive-descent parser used by tools/trace_summary and the tests to
// round-trip what the writers emit. Not a general-purpose JSON library —
// no surrogate-pair decoding, numbers are doubles.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace taamr::obs::json {

// Escapes `s` for inclusion inside a JSON string literal (quotes excluded).
std::string escape(std::string_view s);

// Formats a double the way the obs writers do: shortest form that survives
// a parse round-trip at ~9 significant digits; non-finite values become 0.
std::string number(double v);

struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double num = 0.0;
  std::string str;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;  // insertion order

  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }

  // Object member lookup; nullptr when absent or not an object.
  const Value* find(std::string_view key) const;
};

// Parses a complete JSON document. Throws std::runtime_error (with a byte
// offset) on malformed input, trailing garbage or arrays/objects nested
// more than 64 deep.
Value parse(std::string_view text);

}  // namespace taamr::obs::json
