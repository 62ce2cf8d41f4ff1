// Minimal JSON document model, writer helpers, and parser shared by every
// serialization schema in the tree (tdtcp-sweep/1, tdtcp-bench/1,
// tdtcp-trace/1). Lives in the base library so higher layers (app/, trace/)
// can both use it without depending on each other.
//
// The parser accepts exactly the subset of JSON the writers emit (objects,
// arrays, strings, numbers, literals) so documents round-trip without
// third-party dependencies.
#pragma once

#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace tdtcp {

struct JsonValue {
  enum class Type { kNull, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue* Find(const std::string& key) const {
    auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
  double NumberOr(double def) const {
    return type == Type::kNumber ? number : def;
  }
};

// Parses a JSON document; throws std::runtime_error on malformed input.
JsonValue ParseJson(const std::string& text);

// A parsed number as a non-negative integer field. Casting an out-of-range
// double to an integer is undefined and a fractional one truncates, so a
// negative, fractional or too-large value throws std::runtime_error naming
// `what` instead.
template <typename Int>
Int JsonToInt(double v, const std::string& what) {
  const double limit = std::ldexp(1.0, std::numeric_limits<Int>::digits);
  if (!(v >= 0 && v < limit && v == std::floor(v))) {
    throw std::runtime_error(what + " is not an integer in [0, 2^" +
                             std::to_string(std::numeric_limits<Int>::digits) +
                             ")");
  }
  return static_cast<Int>(v);
}

// JsonToInt for a signed field that may be negative (a time, a path index
// with a -1 sentinel): [-2^digits, 2^digits).
template <typename Int>
Int JsonToSignedInt(double v, const std::string& what) {
  static_assert(std::numeric_limits<Int>::is_signed);
  const double limit = std::ldexp(1.0, std::numeric_limits<Int>::digits);
  if (!(v >= -limit && v < limit && v == std::floor(v))) {
    throw std::runtime_error(what + " is not an integer in [-2^" +
                             std::to_string(std::numeric_limits<Int>::digits) +
                             ", 2^" +
                             std::to_string(std::numeric_limits<Int>::digits) +
                             ")");
  }
  return static_cast<Int>(v);
}

// %.17g: round-trips every finite double exactly.
std::string NumberToJson(double v);

// Escapes ", \, and control bytes for embedding in a JSON string literal.
std::string EscapeJson(const std::string& s);

// Whole-file helpers used by every Write*/Read* entry point. WriteTextFile
// appends a trailing newline; both throw std::runtime_error on I/O failure.
std::string ReadTextFile(const std::string& path);
void WriteTextFile(const std::string& path, const std::string& text);

}  // namespace tdtcp
