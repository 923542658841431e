// Minimal recursive-descent JSON parser, the read-side complement of
// util/json_writer, used to schema-check the exported Chrome traces and
// metric snapshots in tests; it is not a general-purpose JSON library.
//
// Scope: the full JSON value grammar (RFC 8259) minus surrogate-pair
// decoding — `\uXXXX` escapes outside the BMP are kept as two literal
// escape sequences' code units encoded in UTF-8 independently, which is
// fine for the ASCII-only documents this repo produces. Numbers parse as
// double. Object members keep document order in a vector (no hashing:
// iteration stays deterministic, analyzer rule A2 has nothing to flag) and
// duplicate keys are rejected.

#ifndef VASTATS_UTIL_JSON_READER_H_
#define VASTATS_UTIL_JSON_READER_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace vastats {

enum class JsonKind {
  kNull = 0,
  kBool,
  kNumber,
  kString,
  kArray,
  kObject,
};

// One parsed JSON value. A tree of these owns all its storage; lookups
// return borrowed pointers into the tree.
struct JsonValue {
  JsonKind kind = JsonKind::kNull;
  bool bool_value = false;
  double number_value = 0.0;
  std::string string_value;
  std::vector<JsonValue> items;  // kArray
  // kObject, in document order.
  std::vector<std::pair<std::string, JsonValue>> members;

  bool is_null() const { return kind == JsonKind::kNull; }
  bool is_bool() const { return kind == JsonKind::kBool; }
  bool is_number() const { return kind == JsonKind::kNumber; }
  bool is_string() const { return kind == JsonKind::kString; }
  bool is_array() const { return kind == JsonKind::kArray; }
  bool is_object() const { return kind == JsonKind::kObject; }

  // Member lookup on an object (nullptr when absent or not an object).
  const JsonValue* Find(std::string_view key) const;

  // Find + kind filter, for terse schema checks.
  const JsonValue* FindNumber(std::string_view key) const;
  const JsonValue* FindString(std::string_view key) const;
  const JsonValue* FindArray(std::string_view key) const;
  const JsonValue* FindObject(std::string_view key) const;
};

// Parses `text` as one JSON document (leading/trailing whitespace allowed,
// trailing garbage is an error). Errors carry a byte offset.
Result<JsonValue> ParseJson(std::string_view text);

}  // namespace vastats

#endif  // VASTATS_UTIL_JSON_READER_H_
