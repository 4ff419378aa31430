// The repo's one JSON reader and string escaper: the fleet service's wire
// protocol, job specs and payload manifests, and the Chrome trace validator
// (obs::validate_chrome_trace) all parse with json_parse, and every exporter
// escapes strings with json_escape.
//
// A strict recursive-descent parser producing an immutable DOM (JsonValue).
// Scope is deliberately small — it only ever parses objects a client
// hand-writes or that this repo emitted — but within that scope it is a real
// parser: full string escapes (\uXXXX incl. surrogate pairs), numbers via
// strtod, a nesting cap of 64, duplicate-key rejection, and a trailing-garbage
// check. No dependencies beyond the stdlib (built as lbchat_json, which
// lbchat_obs links).
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace lbchat::svc {

class JsonValue;

/// Parse `text` as a single JSON value. Returns nullptr and fills `error`
/// (with a byte offset) on any syntax problem, including trailing non-space
/// bytes. Never throws.
[[nodiscard]] std::unique_ptr<JsonValue> json_parse(std::string_view text, std::string& error);

/// `s` escaped for embedding inside a JSON string literal (quotes not
/// included): ", \, and control characters become escape sequences.
[[nodiscard]] std::string json_escape(std::string_view s);

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kObject, kArray };

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_null() const { return type_ == Type::kNull; }
  [[nodiscard]] bool is_bool() const { return type_ == Type::kBool; }
  [[nodiscard]] bool is_number() const { return type_ == Type::kNumber; }
  [[nodiscard]] bool is_string() const { return type_ == Type::kString; }
  [[nodiscard]] bool is_object() const { return type_ == Type::kObject; }
  [[nodiscard]] bool is_array() const { return type_ == Type::kArray; }

  [[nodiscard]] bool as_bool() const { return bool_; }
  [[nodiscard]] double as_number() const { return number_; }
  [[nodiscard]] const std::string& as_string() const { return string_; }
  [[nodiscard]] const std::vector<std::unique_ptr<JsonValue>>& items() const { return items_; }
  /// Object members in source order (duplicate keys rejected at parse time).
  [[nodiscard]] const std::vector<std::pair<std::string, std::unique_ptr<JsonValue>>>& members()
      const {
    return members_;
  }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* get(std::string_view key) const;

  /// Byte span of this value in the parsed source text: [source_begin,
  /// source_end). Lets callers slice a value's exact source bytes out of the
  /// original input (no re-scanning, no re-serialization).
  [[nodiscard]] std::size_t source_begin() const { return source_begin_; }
  [[nodiscard]] std::size_t source_end() const { return source_end_; }

 private:
  friend class Parser;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<std::unique_ptr<JsonValue>> items_;
  std::vector<std::pair<std::string, std::unique_ptr<JsonValue>>> members_;
  std::size_t source_begin_ = 0;
  std::size_t source_end_ = 0;
};

}  // namespace lbchat::svc
