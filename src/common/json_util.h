// Minimal JSON support: an ordered streaming writer (service metrics, the
// BENCH_*.json perf trajectory files) and a small recursive-descent parser
// (reads those same files back for baseline comparison). The parser
// handles the full JSON grammar but is tuned for the files this repo
// writes — it keeps everything in memory and has no streaming mode. No
// third-party dependency, by design (DESIGN.md §11).
#ifndef MWEAVER_COMMON_JSON_UTIL_H_
#define MWEAVER_COMMON_JSON_UTIL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace mweaver {

/// \brief Appends the JSON string literal for `s` (quotes included,
/// control characters escaped) to `out`.
void AppendJsonString(std::string* out, std::string_view s);

/// \brief Formats a double the way the perf files expect: fixed precision,
/// never NaN/Inf (both map to 0, JSON has no spelling for them).
std::string JsonNumber(double value);

/// \brief An ordered JSON builder. Push objects/arrays, set keyed or
/// positional values, and Finish() exactly once. The writer validates
/// nesting with MW_CHECK — misuse is a programming error, not an input
/// error.
class JsonWriter {
 public:
  JsonWriter();

  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  /// \brief Emits `"key":` — must be directly inside an object and
  /// followed by a value or Begin*().
  JsonWriter& Key(std::string_view key);

  JsonWriter& String(std::string_view value);
  JsonWriter& Number(double value);
  JsonWriter& Int(int64_t value);
  JsonWriter& UInt(uint64_t value);
  JsonWriter& Bool(bool value);

  /// \brief Splices an already-serialized JSON value (e.g. a
  /// MetricsSnapshot::ToJson() object) in as the next value. The caller
  /// vouches that `json` is well-formed.
  JsonWriter& Raw(std::string_view json);

  // Keyed shorthands. The const char* overload exists because otherwise a
  // string literal converts to bool, silently emitting `true`.
  JsonWriter& KV(std::string_view key, std::string_view value) {
    return Key(key).String(value);
  }
  JsonWriter& KV(std::string_view key, const char* value) {
    return Key(key).String(value);
  }
  JsonWriter& KV(std::string_view key, double value) {
    return Key(key).Number(value);
  }
  JsonWriter& KV(std::string_view key, uint64_t value) {
    return Key(key).UInt(value);
  }
  JsonWriter& KV(std::string_view key, bool value) {
    return Key(key).Bool(value);
  }

  /// \brief Returns the document; the writer must be back at depth zero.
  std::string Finish();

 private:
  enum class Frame { kObject, kArray };
  void BeforeValue();

  std::string out_;
  std::vector<Frame> stack_;
  std::vector<bool> has_items_;
  bool pending_key_ = false;
  bool done_ = false;
};

/// \brief A parsed JSON value. Numbers are doubles (the perf files never
/// need 64-bit-exact integers above 2^53).
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type() const { return type_; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }

  double number() const { return number_; }
  bool boolean() const { return bool_; }
  const std::string& string() const { return string_; }
  const std::vector<JsonValue>& array() const { return array_; }
  /// \brief Object members by key (empty for non-objects); lets callers
  /// enumerate and re-serialize sections they did not write themselves.
  const std::map<std::string, JsonValue, std::less<>>& object() const {
    return object_;
  }

  /// \brief Object member by key, or nullptr when absent (or not an
  /// object). Insertion order is not preserved; the perf comparisons key
  /// by name.
  const JsonValue* Find(std::string_view key) const;

  /// \brief `Find(key)->number()` with a fallback for absent/non-numeric.
  double NumberOr(std::string_view key, double fallback) const;
  /// \brief `Find(key)->string()` with a fallback for absent/non-string.
  std::string StringOr(std::string_view key, std::string_view fallback) const;

  // Construction (used by the parser and tests).
  static JsonValue Null();
  static JsonValue Of(bool b);
  static JsonValue Of(double n);
  static JsonValue Of(std::string s);
  static JsonValue Array(std::vector<JsonValue> items);
  static JsonValue Object(std::map<std::string, JsonValue, std::less<>> m);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue, std::less<>> object_;
};

/// \brief Parses a complete JSON document. Errors carry the byte offset
/// ("json offset 42: expected ':'").
Result<JsonValue> ParseJson(std::string_view text);

}  // namespace mweaver

#endif  // MWEAVER_COMMON_JSON_UTIL_H_
