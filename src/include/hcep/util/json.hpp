// Minimal JSON value tree: a deterministic RFC 8259-conformant writer
// (keys in insertion order) plus a strict recursive-descent parser, so
// study results and telemetry exports can be serialized *and* loaded
// back in (the trace reader and the `hcep profile` smoke test both
// re-parse our own output).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hcep {

/// A JSON value tree.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : kind_(Kind::kNull) {}
  static JsonValue boolean(bool b);
  static JsonValue number(double v);
  static JsonValue number(std::int64_t v);
  static JsonValue string(std::string s);
  static JsonValue array();
  static JsonValue object();

  /// Strict parse of one JSON document (trailing garbage throws).
  /// Numbers without fraction/exponent that fit an int64 parse as
  /// integral, so dump(parse(dump(x))) is stable for our own output.
  static JsonValue parse(std::string_view text);

  [[nodiscard]] Kind kind() const { return kind_; }

  /// Array append (requires kind kArray).
  JsonValue& push(JsonValue v);
  /// Object insert/overwrite-free append (requires kind kObject; duplicate
  /// keys are a programming error and throw).
  JsonValue& set(const std::string& key, JsonValue v);

  // Read accessors; kind mismatches throw PreconditionError.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;      ///< any number, widened
  [[nodiscard]] std::int64_t as_int() const;   ///< integral numbers only
  [[nodiscard]] const std::string& as_string() const;
  /// Element count of an array or object (scalars throw).
  [[nodiscard]] std::size_t size() const;
  /// Array element by index (bounds-checked).
  [[nodiscard]] const JsonValue& at(std::size_t index) const;
  /// Object field by key, or nullptr when absent.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
  /// Object field by key; missing keys throw.
  [[nodiscard]] const JsonValue& at(std::string_view key) const;
  /// Object fields in insertion order (requires kind kObject).
  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>&
  fields() const;

  /// Compact serialization.
  [[nodiscard]] std::string dump() const;
  /// Pretty serialization with 2-space indentation.
  [[nodiscard]] std::string dump_pretty() const;

 private:
  void write(std::string& out, int indent, bool pretty) const;

  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  bool integral_ = false;
  std::int64_t int_number_ = 0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> fields_;
};

/// Escapes a string per JSON rules (quotes not included).
[[nodiscard]] std::string json_escape(const std::string& s);
/// Appends `s`, escaped per JSON rules (quotes not included), to `out`;
/// writers escape through this so no key or value needs a temporary.
void append_json_escaped(std::string& out, std::string_view s);

}  // namespace hcep
