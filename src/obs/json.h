// Minimal JSON DOM: parser, path lookup, and string escaping.
//
// The repo emits JSON from a dozen surfaces (bench files, trace export, the
// obs exporter) but until the bench-regression gate nothing needed to READ
// it back. This is the reader: a strict recursive-descent parser over the
// subset of JSON the repo's own emitters produce (objects, arrays, doubles,
// strings with the common escapes, bools, null), plus a dotted-path lookup
// so the regression harness can address metrics inside bench documents:
//
//   "detect_ms_per_scene.p50_ms"                         object member chain
//   "loads.0.p99_ms"                                     array index
//   "variants.[variant=fp32].families.[family=jam].p50_ms"
//                                                        array-of-objects
//                                                        search on a string
//                                                        member
//
// No dependencies beyond the standard library — the obs layer sits at the
// very bottom of the link order.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace upaq::obs::json {

struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Value> items;  ///< kArray elements, in order
  std::vector<std::pair<std::string, Value>> members;  ///< kObject, file order

  bool is_number() const { return kind == Kind::kNumber; }
  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }

  /// Object member by key; nullptr when absent or not an object.
  const Value* find(const std::string& key) const;

  /// Walks a '.'-separated path of object keys, numeric array indexes, and
  /// "[key=value]" array-of-objects searches. nullptr when any step misses.
  const Value* at_path(const std::string& path) const;
};

/// Strict parse of a complete document (trailing whitespace allowed, any
/// other trailing content is an error; so is nesting more than 256
/// arrays/objects deep). On failure returns false and, when
/// `err` is non-null, a message with the byte offset.
bool parse(const std::string& text, Value& out, std::string* err = nullptr);

/// Appends `s` to `out` with JSON string escaping ("\ \n \t, control
/// characters as \u00xx). Shared by the prof chrome-trace exporter and the
/// obs event/metric emitters.
void escape(std::string& out, const std::string& s);

}  // namespace upaq::obs::json
