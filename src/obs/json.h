#pragma once
// Minimal JSON document model shared by the observability sinks and
// the tools that read them back (tools/lvf2_report, tests). Objects
// preserve insertion order — the manifest writer emits keys in a
// documented, stable order and the parser must not destroy it, so
// a parse/serialize round trip is byte-stable.
//
// The parser is strict (no comments, no trailing commas); numbers are
// stored as double, which is exact for every value the sinks emit
// (%.9g renderings and counters below 2^53). An unsigned 64-bit value
// that a double cannot hold goes in as a decimal string (json_u64).

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lvf2::obs {

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  /// Key/value pairs in insertion (= document) order.
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }

  /// Member lookup (objects only); nullptr when absent.
  const JsonValue* find(std::string_view key) const;
  bool has(std::string_view key) const { return find(key) != nullptr; }

  /// `number` of member `key`, or `fallback` when absent / non-number.
  double number_or(std::string_view key, double fallback) const;
  /// `string` of member `key`, or `fallback` when absent / non-string.
  std::string string_or(std::string_view key, std::string_view fallback) const;
};

/// Value constructors for documents built in code.
JsonValue json_number(double v);
/// A JSON number below 2^53, else the exact decimal string.
JsonValue json_u64(std::uint64_t v);
JsonValue json_string(std::string s);
JsonValue json_bool(bool b);
JsonValue json_array();
/// An object holding `members` in order.
JsonValue json_object(
    std::initializer_list<std::pair<std::string, JsonValue>> members = {});

/// Parses strict JSON. On failure returns nullopt and, when `error`
/// is non-null, stores a one-line description with the byte offset.
std::optional<JsonValue> json_parse(std::string_view text,
                                    std::string* error = nullptr);

/// Appends `s` to `out` as a quoted JSON string with escaping.
void json_append_string(std::string& out, std::string_view s);

/// Appends `v` to `out` as a JSON number (%.9g); non-finite values
/// are not representable in JSON and degrade to null.
void json_append_number(std::string& out, double v);

/// Same with an explicit %g precision. 17 significant digits
/// round-trip any IEEE double exactly through parse (strtod), which
/// is what the result cache relies on for bitwise-stable replays.
void json_append_number(std::string& out, double v, int precision);

/// Serialization options. The default (9 digits) matches the sink
/// writers; the result cache serializes at 17 for exact round trips.
struct JsonWriteOptions {
  int double_precision = 9;
};

/// Serializes `value` (compact, no whitespace), preserving object key
/// order. An integral number below 2^53 in magnitude renders as a
/// plain integer (counters stay exact); any other number renders at
/// `double_precision` digits (%.9g by default).
void json_write(const JsonValue& value, std::string& out);
std::string json_write(const JsonValue& value);
void json_write(const JsonValue& value, std::string& out,
                const JsonWriteOptions& options);
std::string json_write(const JsonValue& value, const JsonWriteOptions& options);

}  // namespace lvf2::obs
