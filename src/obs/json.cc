#include "obs/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace fsdp::obs {

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<JsonValue> Parse() {
    SkipWs();
    JsonValue v;
    Status st = ParseValue(&v);
    if (!st.ok()) return st;
    SkipWs();
    if (pos_ != text_.size()) {
      return Fail("trailing characters after JSON document");
    }
    return v;
  }

 private:
  Status Fail(const std::string& msg) {
    std::ostringstream oss;
    oss << msg << " at offset " << pos_;
    return Status::Invalid(oss.str());
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ParseValue(JsonValue* out) {
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
      case '[': {
        if (++depth_ > kMaxJsonDepth) {
          return Fail("nesting deeper than " + std::to_string(kMaxJsonDepth));
        }
        Status st = c == '{' ? ParseObject(out) : ParseArray(out);
        --depth_;
        return st;
      }
      case '"': {
        std::string s;
        Status st = ParseString(&s);
        if (!st.ok()) return st;
        *out = JsonValue(std::move(s));
        return Status::OK();
      }
      case 't':
        if (text_.compare(pos_, 4, "true") == 0) {
          pos_ += 4;
          *out = JsonValue(true);
          return Status::OK();
        }
        return Fail("bad literal");
      case 'f':
        if (text_.compare(pos_, 5, "false") == 0) {
          pos_ += 5;
          *out = JsonValue(false);
          return Status::OK();
        }
        return Fail("bad literal");
      case 'n':
        if (text_.compare(pos_, 4, "null") == 0) {
          pos_ += 4;
          *out = JsonValue();
          return Status::OK();
        }
        return Fail("bad literal");
      default:
        return ParseNumber(out);
    }
  }

  Status ParseObject(JsonValue* out) {
    ++pos_;  // '{'
    JsonObject obj;
    SkipWs();
    if (Consume('}')) {
      *out = JsonValue(std::move(obj));
      return Status::OK();
    }
    while (true) {
      SkipWs();
      std::string key;
      Status st = ParseString(&key);
      if (!st.ok()) return st;
      SkipWs();
      if (!Consume(':')) return Fail("expected ':' in object");
      SkipWs();
      JsonValue v;
      st = ParseValue(&v);
      if (!st.ok()) return st;
      obj.emplace(std::move(key), std::move(v));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume('}')) break;
      return Fail("expected ',' or '}' in object");
    }
    *out = JsonValue(std::move(obj));
    return Status::OK();
  }

  Status ParseArray(JsonValue* out) {
    ++pos_;  // '['
    JsonArray arr;
    SkipWs();
    if (Consume(']')) {
      *out = JsonValue(std::move(arr));
      return Status::OK();
    }
    while (true) {
      SkipWs();
      JsonValue v;
      Status st = ParseValue(&v);
      if (!st.ok()) return st;
      arr.push_back(std::move(v));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume(']')) break;
      return Fail("expected ',' or ']' in array");
    }
    *out = JsonValue(std::move(arr));
    return Status::OK();
  }

  Status ParseString(std::string* out) {
    if (!Consume('"')) return Fail("expected string");
    std::string s;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        *out = std::move(s);
        return Status::OK();
      }
      if (c == '\\') {
        if (pos_ >= text_.size()) return Fail("bad escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': s += '"'; break;
          case '\\': s += '\\'; break;
          case '/': s += '/'; break;
          case 'b': s += '\b'; break;
          case 'f': s += '\f'; break;
          case 'n': s += '\n'; break;
          case 'r': s += '\r'; break;
          case 't': s += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Fail("bad \\u escape");
            const std::string hex = text_.substr(pos_, 4);
            pos_ += 4;
            const long code = std::strtol(hex.c_str(), nullptr, 16);
            // ASCII passthrough only; others become '?' (enough for our
            // own writers, which never emit non-ASCII).
            s += code < 0x80 ? static_cast<char>(code) : '?';
            break;
          }
          default:
            return Fail("bad escape");
        }
        continue;
      }
      s += c;
    }
    return Fail("unterminated string");
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Fail("expected number");
    const std::string tok = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size()) return Fail("bad number");
    *out = JsonValue(v);
    return Status::OK();
  }

  const std::string& text_;
  int depth_ = 0;  // arrays/objects open at pos_
  size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> ParseJson(const std::string& text) {
  return Parser(text).Parse();
}

Result<JsonValue> ParseJsonFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return ParseJson(buf.str());
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonWriter::BeforeValue() {
  if (open_.empty()) {
    FSDP_CHECK_MSG(out_.empty(), "JsonWriter: second top-level value");
    return;
  }
  Level& top = open_.back();
  if (top.object) {
    FSDP_CHECK_MSG(have_key_, "JsonWriter: object member without a Key");
    have_key_ = false;
    return;
  }
  if (!top.empty) out_ += ", ";
  top.empty = false;
}

JsonWriter& JsonWriter::Open(bool object, char brace) {
  BeforeValue();
  out_ += brace;
  open_.push_back(Level{object});
  return *this;
}

JsonWriter& JsonWriter::Close(bool object, char brace) {
  FSDP_CHECK_MSG(!open_.empty() && open_.back().object == object && !have_key_,
                 "JsonWriter: unbalanced '" << brace << "'");
  open_.pop_back();
  out_ += brace;
  return *this;
}

JsonWriter& JsonWriter::BeginObject() { return Open(true, '{'); }
JsonWriter& JsonWriter::EndObject() { return Close(true, '}'); }
JsonWriter& JsonWriter::BeginArray() { return Open(false, '['); }
JsonWriter& JsonWriter::EndArray() { return Close(false, ']'); }

JsonWriter& JsonWriter::Key(std::string_view key) {
  FSDP_CHECK_MSG(!open_.empty() && open_.back().object && !have_key_,
                 "JsonWriter: misplaced Key '" << key << "'");
  Level& top = open_.back();
  if (!top.empty) out_ += ", ";
  top.empty = false;
  out_ += '"';
  out_ += JsonEscape(key);
  out_ += "\": ";
  have_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view v) {
  BeforeValue();
  out_ += '"';
  out_ += JsonEscape(v);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t v) {
  BeforeValue();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::Double(double v) {
  if (!std::isfinite(v)) return Null();
  BeforeValue();
  char buf[32];  // shortest round-trip double needs at most 24 chars
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  out_.append(buf, r.ptr);
  return *this;
}

JsonWriter& JsonWriter::Bool(bool v) {
  BeforeValue();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Null() {
  BeforeValue();
  out_ += "null";
  return *this;
}

}  // namespace fsdp::obs
