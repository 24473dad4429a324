// Minimal JSON writer and its strict reader counterpart — the writer
// feeds the scenario engine's structured result sink (BENCH_*.json
// artifacts, CI consumption), the reader feeds the declarative scenario
// spec layer (`wsnctl run --file`).
//
// Writer policy decisions (pinned by tests/test_json_writer.cpp):
//   * strings are escaped per RFC 8259: `"`, `\`, and control characters
//     below 0x20 (as \uXXXX except the common \b \f \n \r \t); all other
//     bytes pass through untouched, so UTF-8 payloads survive round-trip;
//   * NaN and +-Inf have no JSON representation and serialize as `null`
//     (consumers must treat a null metric as "not observed");
//   * finite doubles render with up to 17 significant digits ("%.17g"),
//     enough to round-trip; integral values within 2^53 render without
//     an exponent or trailing ".0" so seeds and counts stay readable.
//
// Reader policy decisions (pinned by tests/test_json_reader.cpp):
//   * strict RFC 8259 grammar: no comments, no trailing commas, no
//     single quotes, no leading zeros or bare `.5`/`1.` numbers;
//   * duplicate object keys are rejected (a config file where the last
//     key silently wins is a debugging trap), naming the key and path;
//   * `NaN`/`Infinity` tokens are rejected with a named error pointing
//     at the writer's null convention — the round trip is
//     NaN -> (writer) null -> (reader) a null JsonValue;
//   * numbers whose magnitude overflows double are rejected (silent
//     +inf from strtod would re-introduce the non-finite values the
//     writer just refused to emit); denormal underflow to 0 is allowed;
//   * nesting is capped (default 64 levels) so a pathological file
//     fails with a named error instead of exhausting the stack;
//   * every error names its line, column and JSON path ("$.a.b[2]").
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace wsn::util {

/// Escape `s` for inclusion inside a JSON string literal (no quotes added).
std::string JsonEscape(const std::string& s);

/// Render a double per the policy above (`null` for NaN/Inf).
std::string JsonNumber(double v);

class JsonWriter {
 public:
  /// `indent` spaces per nesting level; 0 renders compact single-line.
  explicit JsonWriter(int indent = 2);

  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  /// Member key inside an object; must be followed by exactly one value.
  JsonWriter& Key(const std::string& name);

  JsonWriter& String(const std::string& value);
  JsonWriter& Number(double value);
  JsonWriter& UInt(std::uint64_t value);
  JsonWriter& Bool(bool value);

  /// The document so far.  Valid once every container has been closed.
  const std::string& Str() const noexcept { return out_; }

 private:
  void BeforeValue();
  void NewlineIndent();

  std::string out_;
  int indent_;
  /// One entry per open container: true once it has at least one element.
  std::vector<bool> has_element_;
  bool pending_key_ = false;
};

/// Parsed JSON document node.  Objects preserve insertion order (so a
/// re-serialized spec diffs cleanly against its source) and are stored
/// as a flat key/value vector — config files are small and order
/// matters more than lookup speed.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  using Member = std::pair<std::string, JsonValue>;

  JsonValue() = default;  // null

  static JsonValue MakeNull() { return JsonValue(); }
  static JsonValue MakeBool(bool v);
  static JsonValue MakeNumber(double v);
  static JsonValue MakeString(std::string v);
  static JsonValue MakeArray(std::vector<JsonValue> v);
  static JsonValue MakeObject(std::vector<Member> v);

  Kind kind() const noexcept { return kind_; }
  bool is_null() const noexcept { return kind_ == Kind::kNull; }
  bool is_bool() const noexcept { return kind_ == Kind::kBool; }
  bool is_number() const noexcept { return kind_ == Kind::kNumber; }
  bool is_string() const noexcept { return kind_ == Kind::kString; }
  bool is_array() const noexcept { return kind_ == Kind::kArray; }
  bool is_object() const noexcept { return kind_ == Kind::kObject; }

  /// Accessors assume the matching kind; call sites validate first
  /// (the spec layer wraps them in typed, path-qualified errors).
  bool AsBool() const noexcept { return bool_; }
  double AsNumber() const noexcept { return number_; }
  const std::string& AsString() const noexcept { return string_; }
  const std::vector<JsonValue>& Items() const noexcept { return items_; }
  const std::vector<Member>& Members() const noexcept { return members_; }

  /// Object member lookup; nullptr when absent (or not an object).
  const JsonValue* Find(const std::string& key) const noexcept;

  /// One human-readable word per kind ("number", "object", ...) for
  /// error messages.
  static const char* KindName(Kind kind) noexcept;
  const char* TypeName() const noexcept { return KindName(kind_); }

  friend bool operator==(const JsonValue& a, const JsonValue& b);
  friend bool operator!=(const JsonValue& a, const JsonValue& b) {
    return !(a == b);
  }

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<Member> members_;
};

struct JsonReaderOptions {
  /// Maximum container nesting before the parser refuses the document.
  int max_depth = 64;
};

/// Parse a complete JSON document per the reader policy above.  Throws
/// util::InvalidArgument with messages of the form
///   json: <what> at line L column C (at $.path)
/// on any violation (syntax error, duplicate key, trailing garbage,
/// NaN/Infinity token, number overflow, nesting deeper than
/// `options.max_depth`).
JsonValue ParseJson(const std::string& text,
                    const JsonReaderOptions& options = {});

}  // namespace wsn::util
