#include "common/json_util.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"

namespace mweaver {

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  // Integers print without a fraction so counts stay exact and diffable.
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    return StrFormat("%lld", static_cast<long long>(value));
  }
  return StrFormat("%.6g", value);
}

JsonWriter::JsonWriter() = default;

void JsonWriter::BeforeValue() {
  MW_CHECK(!done_) << "JsonWriter used after Finish()";
  if (stack_.empty()) return;
  if (stack_.back() == Frame::kObject) {
    MW_CHECK(pending_key_) << "object value without Key()";
    pending_key_ = false;
    return;
  }
  if (has_items_.back()) out_.push_back(',');
  has_items_.back() = true;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  MW_CHECK(!stack_.empty() && stack_.back() == Frame::kObject)
      << "Key() outside an object";
  MW_CHECK(!pending_key_) << "two Key() calls in a row";
  if (has_items_.back()) out_.push_back(',');
  has_items_.back() = true;
  AppendJsonString(&out_, key);
  out_.push_back(':');
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  out_.push_back('{');
  stack_.push_back(Frame::kObject);
  has_items_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  MW_CHECK(!stack_.empty() && stack_.back() == Frame::kObject && !pending_key_)
      << "unbalanced EndObject()";
  out_.push_back('}');
  stack_.pop_back();
  has_items_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  out_.push_back('[');
  stack_.push_back(Frame::kArray);
  has_items_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  MW_CHECK(!stack_.empty() && stack_.back() == Frame::kArray)
      << "unbalanced EndArray()";
  out_.push_back(']');
  stack_.pop_back();
  has_items_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  BeforeValue();
  AppendJsonString(&out_, value);
  return *this;
}

JsonWriter& JsonWriter::Number(double value) {
  BeforeValue();
  out_ += JsonNumber(value);
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t value) {
  BeforeValue();
  out_ += StrFormat("%lld", static_cast<long long>(value));
  return *this;
}

JsonWriter& JsonWriter::UInt(uint64_t value) {
  BeforeValue();
  out_ += StrFormat("%llu", static_cast<unsigned long long>(value));
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  BeforeValue();
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Raw(std::string_view json) {
  BeforeValue();
  out_ += json;
  return *this;
}

std::string JsonWriter::Finish() {
  MW_CHECK(stack_.empty()) << "Finish() with open scopes";
  done_ = true;
  return std::move(out_);
}

// ---------------------------------------------------------------------------
// JsonValue + parser

JsonValue JsonValue::Null() { return JsonValue(); }

JsonValue JsonValue::Of(bool b) {
  JsonValue v;
  v.type_ = Type::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::Of(double n) {
  JsonValue v;
  v.type_ = Type::kNumber;
  v.number_ = n;
  return v;
}

JsonValue JsonValue::Of(std::string s) {
  JsonValue v;
  v.type_ = Type::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::Array(std::vector<JsonValue> items) {
  JsonValue v;
  v.type_ = Type::kArray;
  v.array_ = std::move(items);
  return v;
}

JsonValue JsonValue::Object(std::map<std::string, JsonValue, std::less<>> m) {
  JsonValue v;
  v.type_ = Type::kObject;
  v.object_ = std::move(m);
  return v;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

double JsonValue::NumberOr(std::string_view key, double fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_number()) ? v->number() : fallback;
}

std::string JsonValue::StringOr(std::string_view key,
                                std::string_view fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_string()) ? v->string()
                                          : std::string(fallback);
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    MW_ASSIGN_OR_RETURN(JsonValue v, ParseValue());
    SkipWs();
    if (pos_ != text_.size()) return Error("trailing characters");
    return v;
  }

 private:
  Status Error(const std::string& what) {
    return Status::InvalidArgument(
        StrFormat("json offset %zu: %s", pos_, what.c_str()));
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<JsonValue> ParseValue() {
    SkipWs();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"': {
        MW_ASSIGN_OR_RETURN(std::string s, ParseString());
        return JsonValue::Of(std::move(s));
      }
      case 't':
        return ParseKeyword("true", JsonValue::Of(true));
      case 'f':
        return ParseKeyword("false", JsonValue::Of(false));
      case 'n':
        return ParseKeyword("null", JsonValue::Null());
      default:
        return ParseNumber();
    }
  }

  Result<JsonValue> ParseKeyword(std::string_view word, JsonValue value) {
    if (text_.substr(pos_, word.size()) != word) {
      return Error("invalid literal");
    }
    pos_ += word.size();
    return value;
  }

  Result<JsonValue> ParseNumber() {
    const size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return Error("malformed number");
    return JsonValue::Of(value);
  }

  Result<std::string> ParseString() {
    if (!Consume('"')) return Error("expected '\"'");
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("bad \\u escape");
            }
          }
          // The perf files only escape control characters; emit the code
          // point as UTF-8 without surrogate-pair handling.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Error("bad escape");
      }
    }
    return Error("unterminated string");
  }

  Result<JsonValue> ParseObject() {
    if (!Consume('{')) return Error("expected '{'");
    std::map<std::string, JsonValue, std::less<>> members;
    SkipWs();
    if (Consume('}')) return JsonValue::Object(std::move(members));
    while (true) {
      SkipWs();
      MW_ASSIGN_OR_RETURN(std::string key, ParseString());
      if (!Consume(':')) return Error("expected ':'");
      MW_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
      members.insert_or_assign(std::move(key), std::move(value));
      if (Consume(',')) continue;
      if (Consume('}')) return JsonValue::Object(std::move(members));
      return Error("expected ',' or '}'");
    }
  }

  Result<JsonValue> ParseArray() {
    if (!Consume('[')) return Error("expected '['");
    std::vector<JsonValue> items;
    SkipWs();
    if (Consume(']')) return JsonValue::Array(std::move(items));
    while (true) {
      MW_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
      items.push_back(std::move(value));
      if (Consume(',')) continue;
      if (Consume(']')) return JsonValue::Array(std::move(items));
      return Error("expected ',' or ']'");
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> ParseJson(std::string_view text) {
  return Parser(text).Parse();
}

}  // namespace mweaver
