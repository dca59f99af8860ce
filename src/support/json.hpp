// Minimal JSON reader plus the one string escaper every writer uses
// (concert-insight).
//
// The runtime *writes* JSON in several places (metrics, traces, sites,
// critical paths, postmortems, lint reports) with hand-rolled emitters; all
// of them escape strings through json_escape below. json_parse reads the
// artifacts back (concert_trace postmortem renders POSTMORTEM.json, and tests
// round-trip every artifact through it). It is a deliberately small
// recursive-descent parser over the JSON the runtime emits plus standard
// escapes — not a general-purpose library: no SAX mode, no streaming, numbers
// are doubles, objects preserve insertion order and are looked up linearly.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace concert {

class JsonValue {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  Type type = Type::Null;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> arr;
  std::vector<std::pair<std::string, JsonValue>> obj;

  bool is_null() const { return type == Type::Null; }
  bool is_bool() const { return type == Type::Bool; }
  bool is_number() const { return type == Type::Number; }
  bool is_string() const { return type == Type::String; }
  bool is_array() const { return type == Type::Array; }
  bool is_object() const { return type == Type::Object; }

  /// Object member lookup (first match); nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const {
    if (type != Type::Object) return nullptr;
    for (const auto& kv : obj)
      if (kv.first == key) return &kv.second;
    return nullptr;
  }
  /// Convenience: member as number/string with a default.
  double num_or(const std::string& key, double dflt) const {
    const JsonValue* v = find(key);
    return (v != nullptr && v->is_number()) ? v->number : dflt;
  }
  std::string str_or(const std::string& key, const std::string& dflt) const {
    const JsonValue* v = find(key);
    return (v != nullptr && v->is_string()) ? v->str : dflt;
  }
};

/// Escapes `s` for use inside a JSON string literal (no surrounding quotes):
/// `"` and `\` get a backslash, newline and tab become `\n` and `\t`, and
/// every other control character becomes `\u00XX`, as RFC 8259 requires.
std::string json_escape(const std::string& s);

/// Deepest array/object nesting json_parse accepts. The parser recurses once
/// per level; the runtime's own artifacts nest a handful of levels.
constexpr std::size_t kJsonMaxDepth = 256;

/// Parses `text` into `out`. Raw control characters inside strings are
/// rejected, as RFC 8259 requires. Returns false (and sets *err, if given, to a
/// message with an offset) on malformed input, trailing garbage, or nesting
/// deeper than kJsonMaxDepth.
bool json_parse(const std::string& text, JsonValue& out, std::string* err = nullptr);

}  // namespace concert
