// Minimal JSON value + recursive-descent parser, and the one JSON writer.
//
// JsonWriter renders every run artifact (BENCH, PROFILE, TUNE, FLIGHT,
// RECOVERY, Chrome traces, metrics snapshots): it is the only code that
// quotes strings or formats numbers, and it writes doubles in the shortest
// form that parses back to the same bits. The parser exists so those
// outputs can be *validated* inside this repo — tests and the trace-export
// smoke binary parse what the writers produced, making malformed JSON a
// build failure rather than a silent artifact. Supports the full JSON
// grammar minus \uXXXX escapes beyond ASCII passthrough.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
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
std::string JsonEscape(std::string_view s);

/// Streaming writer for one JSON document. Members and elements are
/// separated by ", " and keys by ": ", so a document reads on one line.
/// Strings go through JsonEscape; integers print exactly; doubles print as
/// the shortest decimal that parses back bit-equal (std::to_chars), and
/// NaN/±inf, which JSON cannot spell, print as null. Misuse — a value in an
/// object without a Key, an unbalanced End — aborts.
///
///   JsonWriter w;
///   w.BeginObject().Key("step_us").Double(t).Key("ranks").Int(4);
///   w.EndObject();
///   file << w.str();
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  /// Names the next value; valid only directly inside an object.
  JsonWriter& Key(std::string_view key);
  JsonWriter& String(std::string_view v);
  JsonWriter& Int(int64_t v);
  JsonWriter& Double(double v);
  JsonWriter& Bool(bool v);
  JsonWriter& Null();

  /// The document so far; complete once every Begin has its End.
  const std::string& str() const { return out_; }

 private:
  struct Level {
    bool object = false;
    bool empty = true;
  };
  /// Emits the separator a new value or key needs at the current level.
  void BeforeValue();
  JsonWriter& Open(bool object, char brace);
  JsonWriter& Close(bool object, char brace);

  std::string out_;
  std::vector<Level> open_;
  bool have_key_ = false;  // Key written, its value not yet
};

}  // namespace fsdp::obs
