// Minimal JSON value + recursive-descent parser.
//
// Exists so the observability outputs (Chrome traces, metrics snapshots,
// BENCH_*.json rows) can be *validated* inside this repo — tests and the
// trace-export smoke binary parse what the writers produced, making
// malformed JSON a build failure rather than a silent artifact. Supports
// the full JSON grammar minus \uXXXX escapes beyond ASCII passthrough.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace fsdp::obs {

class JsonValue;
using JsonArray = std::vector<JsonValue>;
using JsonObject = std::map<std::string, JsonValue>;

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;
  explicit JsonValue(bool b) : type_(Type::kBool), bool_(b) {}
  explicit JsonValue(double d) : type_(Type::kNumber), number_(d) {}
  explicit JsonValue(std::string s)
      : type_(Type::kString), string_(std::move(s)) {}
  explicit JsonValue(JsonArray a)
      : type_(Type::kArray), array_(std::make_shared<JsonArray>(std::move(a))) {}
  explicit JsonValue(JsonObject o)
      : type_(Type::kObject),
        object_(std::make_shared<JsonObject>(std::move(o))) {}

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool AsBool() const { FSDP_CHECK(is_bool()); return bool_; }
  double AsNumber() const { FSDP_CHECK(is_number()); return number_; }
  const std::string& AsString() const { FSDP_CHECK(is_string()); return string_; }
  const JsonArray& AsArray() const { FSDP_CHECK(is_array()); return *array_; }
  const JsonObject& AsObject() const { FSDP_CHECK(is_object()); return *object_; }

  bool Has(const std::string& key) const {
    return is_object() && object_->count(key) > 0;
  }
  /// Object member access; aborts if absent or not an object.
  const JsonValue& operator[](const std::string& key) const {
    FSDP_CHECK_MSG(Has(key), "missing JSON key '" << key << "'");
    return object_->at(key);
  }

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::shared_ptr<JsonArray> array_;
  std::shared_ptr<JsonObject> object_;
};

/// Deepest array/object nesting ParseJson accepts. The parser recurses once
/// per level, so the cap bounds its stack use; the deepest artifact this
/// repo writes (flight-recorder dumps, PROFILE_*.json) nests 5 levels.
constexpr int kMaxJsonDepth = 256;

/// Parses `text` as one JSON document (trailing whitespace allowed).
/// Nesting deeper than kMaxJsonDepth is rejected as Status::Invalid.
Result<JsonValue> ParseJson(const std::string& text);

/// Reads and parses a JSON file.
Result<JsonValue> ParseJsonFile(const std::string& path);

/// Escapes a string for embedding in JSON output.
std::string JsonEscape(const std::string& s);

}  // namespace fsdp::obs
