// util/json.h — a minimal JSON document model and recursive-descent parser,
// plus the two value writers every JSON producer shares.
// The repository's one JSON reader: obs::RunReport::FromJson, the serve
// daemon's request bodies, and tests and tooling that inspect Chrome trace
// files all walk documents parsed here. Input may be untrusted (a POST body),
// so nesting depth is bounded. The run report, Chrome trace export, admin
// SSE payloads, /buildz and the daemon's error bodies write their strings
// and doubles through AppendString / AppendDouble, so Parse reads back
// exactly what they wrote.
#ifndef TRILLIONG_UTIL_JSON_H_
#define TRILLIONG_UTIL_JSON_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace tg::json {

/// Deepest container nesting Parse() accepts; a deeper document is rejected
/// with Corruption rather than recursing without bound. Far above anything
/// this repository emits (run reports nest four levels).
inline constexpr int kMaxNestingDepth = 64;

/// One JSON value. A tagged struct rather than a variant: documents here are
/// small (reports, traces), so per-node overhead does not matter.
struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  /// Set for a non-negative integer literal that fits in 64 bits; `u64` is
  /// then its exact value (`number` rounds above 2^53).
  bool is_u64 = false;
  std::uint64_t u64 = 0;
  std::string str;
  std::vector<Value> array;
  std::map<std::string, Value> object;

  bool is_null() const { return type == Type::kNull; }
  bool is_bool() const { return type == Type::kBool; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }
  bool is_array() const { return type == Type::kArray; }
  bool is_object() const { return type == Type::kObject; }

  /// Object member lookup; returns nullptr when absent or not an object.
  const Value* Find(const std::string& key) const {
    if (!is_object()) return nullptr;
    auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }

  /// Convenience accessors with defaults for optional members.
  double NumberOr(double fallback) const {
    return is_number() ? number : fallback;
  }
  /// Exact for an integer literal in [0, 2^64); any other number is
  /// truncated and clamped into that range.
  std::uint64_t U64Or(std::uint64_t fallback) const;
  const std::string& StringOr(const std::string& fallback) const {
    return is_string() ? str : fallback;
  }
};

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected). Numbers are stored as doubles, plus the exact value of
/// non-negative integers (Value::u64); strings support the standard escapes.
/// \uXXXX escapes decode to UTF-8 (surrogate pairs combine; unpaired
/// surrogates become U+FFFD), so multi-byte content in paths and plan
/// strings survives a round trip. Corruption on malformed input or nesting
/// beyond kMaxNestingDepth.
Status Parse(const std::string& text, Value* out);

/// Appends `s` as a quoted JSON string literal: `"` and `\` are escaped,
/// \n \r \t get their short forms, and every other control character
/// becomes \u00XX. Other bytes (UTF-8 included) pass through.
void AppendString(std::string_view s, std::string* out);

/// Appends `v` with round-trip precision (%.17g). JSON has no inf or NaN:
/// a non-finite value is written as `null`.
void AppendDouble(double v, std::string* out);

}  // namespace tg::json

#endif  // TRILLIONG_UTIL_JSON_H_
