#include "util/json.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "util/error.hpp"

namespace wsn::util {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char ch : s) {
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (ch < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out += static_cast<char>(ch);
        }
    }
  }
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  // Integral values within the double-exact range print as integers.
  if (v == std::floor(v) && std::fabs(v) < 9.0e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

JsonWriter::JsonWriter(int indent) : indent_(indent) {}

void JsonWriter::NewlineIndent() {
  if (indent_ <= 0) return;
  out_ += '\n';
  out_.append(static_cast<std::size_t>(indent_) * has_element_.size(), ' ');
}

void JsonWriter::BeforeValue() {
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  if (has_element_.empty()) return;
  if (has_element_.back()) out_ += ',';
  has_element_.back() = true;
  NewlineIndent();
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  out_ += '{';
  has_element_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  Require(!has_element_.empty(), "JsonWriter: no open container");
  const bool had = has_element_.back();
  has_element_.pop_back();
  if (had) NewlineIndent();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  out_ += '[';
  has_element_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  Require(!has_element_.empty(), "JsonWriter: no open container");
  const bool had = has_element_.back();
  has_element_.pop_back();
  if (had) NewlineIndent();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::Key(const std::string& name) {
  Require(!has_element_.empty(), "JsonWriter: key outside an object");
  if (has_element_.back()) out_ += ',';
  has_element_.back() = true;
  NewlineIndent();
  out_ += '"';
  out_ += JsonEscape(name);
  out_ += indent_ > 0 ? "\": " : "\":";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(const std::string& value) {
  BeforeValue();
  out_ += '"';
  out_ += JsonEscape(value);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Number(double value) {
  BeforeValue();
  out_ += JsonNumber(value);
  return *this;
}

JsonWriter& JsonWriter::UInt(std::uint64_t value) {
  BeforeValue();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  BeforeValue();
  out_ += value ? "true" : "false";
  return *this;
}

JsonValue JsonValue::MakeBool(bool v) {
  JsonValue out;
  out.kind_ = Kind::kBool;
  out.bool_ = v;
  return out;
}

JsonValue JsonValue::MakeNumber(double v) {
  JsonValue out;
  out.kind_ = Kind::kNumber;
  out.number_ = v;
  return out;
}

JsonValue JsonValue::MakeString(std::string v) {
  JsonValue out;
  out.kind_ = Kind::kString;
  out.string_ = std::move(v);
  return out;
}

JsonValue JsonValue::MakeArray(std::vector<JsonValue> v) {
  JsonValue out;
  out.kind_ = Kind::kArray;
  out.items_ = std::move(v);
  return out;
}

JsonValue JsonValue::MakeObject(std::vector<Member> v) {
  JsonValue out;
  out.kind_ = Kind::kObject;
  out.members_ = std::move(v);
  return out;
}

const JsonValue* JsonValue::Find(const std::string& key) const noexcept {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& member : members_) {
    if (member.first == key) return &member.second;
  }
  return nullptr;
}

const char* JsonValue::KindName(Kind kind) noexcept {
  switch (kind) {
    case Kind::kNull:
      return "null";
    case Kind::kBool:
      return "bool";
    case Kind::kNumber:
      return "number";
    case Kind::kString:
      return "string";
    case Kind::kArray:
      return "array";
    case Kind::kObject:
      return "object";
  }
  return "unknown";
}

bool operator==(const JsonValue& a, const JsonValue& b) {
  if (a.kind_ != b.kind_) return false;
  switch (a.kind_) {
    case JsonValue::Kind::kNull:
      return true;
    case JsonValue::Kind::kBool:
      return a.bool_ == b.bool_;
    case JsonValue::Kind::kNumber:
      return a.number_ == b.number_;
    case JsonValue::Kind::kString:
      return a.string_ == b.string_;
    case JsonValue::Kind::kArray:
      return a.items_ == b.items_;
    case JsonValue::Kind::kObject:
      return a.members_ == b.members_;
  }
  return false;
}

namespace {

/// Recursive-descent parser over the raw text.  Tracks line/column for
/// error positions and the member/index path for error context; both go
/// into every thrown message so a bad config file is a one-look fix.
class JsonParser {
 public:
  JsonParser(const std::string& text, const JsonReaderOptions& options)
      : text_(text), options_(options) {}

  JsonValue ParseDocument() {
    SkipWhitespace();
    JsonValue value = ParseValue();
    SkipWhitespace();
    if (pos_ != text_.size()) {
      Fail("trailing garbage after the document");
    }
    return value;
  }

 private:
  [[noreturn]] void Fail(const std::string& what) const {
    std::string path = "$";
    for (const auto& step : path_) path += step;
    throw InvalidArgument("json: " + what + " at line " +
                          std::to_string(line_) + " column " +
                          std::to_string(Column()) + " (at " + path + ")");
  }

  std::size_t Column() const {
    // Columns are 1-based counts from the last newline before pos_.
    return pos_ - line_start_ + 1;
  }

  bool AtEnd() const { return pos_ >= text_.size(); }

  char Peek() const { return AtEnd() ? '\0' : text_[pos_]; }

  char Next() {
    const char ch = text_[pos_++];
    if (ch == '\n') {
      ++line_;
      line_start_ = pos_;
    }
    return ch;
  }

  void SkipWhitespace() {
    while (!AtEnd()) {
      const char ch = Peek();
      if (ch != ' ' && ch != '\t' && ch != '\n' && ch != '\r') break;
      Next();
    }
  }

  void Expect(char ch, const char* what) {
    if (AtEnd() || Peek() != ch) Fail(std::string("expected ") + what);
    Next();
  }

  bool ConsumeKeyword(const char* keyword) {
    std::size_t n = 0;
    while (keyword[n] != '\0') ++n;
    if (text_.compare(pos_, n, keyword) != 0) return false;
    for (std::size_t i = 0; i < n; ++i) Next();
    return true;
  }

  JsonValue ParseValue() {
    if (AtEnd()) Fail("unexpected end of input, expected a value");
    const char ch = Peek();
    switch (ch) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"':
        return JsonValue::MakeString(ParseString("string"));
      case 't':
        if (ConsumeKeyword("true")) return JsonValue::MakeBool(true);
        break;
      case 'f':
        if (ConsumeKeyword("false")) return JsonValue::MakeBool(false);
        break;
      case 'n':
        if (ConsumeKeyword("null")) return JsonValue::MakeNull();
        break;
      case 'N':
        if (ConsumeKeyword("NaN")) {
          Fail("NaN is not valid JSON (JsonWriter serializes it as null)");
        }
        break;
      case 'I':
        if (ConsumeKeyword("Infinity")) {
          Fail(
              "Infinity is not valid JSON (JsonWriter serializes it as null)");
        }
        break;
      default:
        if (ch == '-' || (ch >= '0' && ch <= '9')) return ParseNumber();
        break;
    }
    Fail(std::string("unexpected character '") + ch + "'");
  }

  JsonValue ParseObject() {
    EnterContainer();
    Next();  // '{'
    std::vector<JsonValue::Member> members;
    SkipWhitespace();
    if (Peek() == '}') {
      Next();
      LeaveContainer();
      return JsonValue::MakeObject(std::move(members));
    }
    while (true) {
      SkipWhitespace();
      if (Peek() != '"') Fail("expected '\"' to start an object key");
      std::string key = ParseString("object key");
      for (const auto& member : members) {
        if (member.first == key) {
          Fail("duplicate object key '" + key + "'");
        }
      }
      path_.push_back("." + key);
      SkipWhitespace();
      Expect(':', "':' after object key");
      SkipWhitespace();
      JsonValue value = ParseValue();
      path_.pop_back();
      members.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (Peek() == ',') {
        Next();
        continue;
      }
      if (Peek() == '}') {
        Next();
        break;
      }
      Fail("expected ',' or '}' in object");
    }
    LeaveContainer();
    return JsonValue::MakeObject(std::move(members));
  }

  JsonValue ParseArray() {
    EnterContainer();
    Next();  // '['
    std::vector<JsonValue> items;
    SkipWhitespace();
    if (Peek() == ']') {
      Next();
      LeaveContainer();
      return JsonValue::MakeArray(std::move(items));
    }
    while (true) {
      SkipWhitespace();
      std::string step = "[";
      step += std::to_string(items.size());
      step += ']';
      path_.push_back(std::move(step));
      items.push_back(ParseValue());
      path_.pop_back();
      SkipWhitespace();
      if (Peek() == ',') {
        Next();
        continue;
      }
      if (Peek() == ']') {
        Next();
        break;
      }
      Fail("expected ',' or ']' in array");
    }
    LeaveContainer();
    return JsonValue::MakeArray(std::move(items));
  }

  void EnterContainer() {
    if (++depth_ > options_.max_depth) {
      Fail("nesting deeper than " + std::to_string(options_.max_depth) +
           " levels");
    }
  }

  void LeaveContainer() { --depth_; }

  std::string ParseString(const char* what) {
    Next();  // opening '"'
    std::string out;
    while (true) {
      if (AtEnd()) Fail(std::string("unterminated ") + what);
      const unsigned char ch = static_cast<unsigned char>(Next());
      if (ch == '"') return out;
      if (ch < 0x20) {
        char buf[48];
        std::snprintf(buf, sizeof(buf),
                      "unescaped control character 0x%02x in %s", ch, what);
        Fail(buf);
      }
      if (ch != '\\') {
        out += static_cast<char>(ch);
        continue;
      }
      if (AtEnd()) Fail(std::string("unterminated escape in ") + what);
      const char esc = Next();
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u':
          AppendUnicodeEscape(out, what);
          break;
        default:
          Fail(std::string("invalid escape '\\") + esc + "' in " + what);
      }
    }
  }

  unsigned ParseHex4(const char* what) {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      if (AtEnd()) Fail(std::string("unterminated \\u escape in ") + what);
      const char ch = Next();
      code <<= 4;
      if (ch >= '0' && ch <= '9') {
        code |= static_cast<unsigned>(ch - '0');
      } else if (ch >= 'a' && ch <= 'f') {
        code |= static_cast<unsigned>(ch - 'a' + 10);
      } else if (ch >= 'A' && ch <= 'F') {
        code |= static_cast<unsigned>(ch - 'A' + 10);
      } else {
        Fail(std::string("invalid hex digit '") + ch + "' in \\u escape");
      }
    }
    return code;
  }

  void AppendUnicodeEscape(std::string& out, const char* what) {
    unsigned code = ParseHex4(what);
    if (code >= 0xD800 && code <= 0xDBFF) {
      // High surrogate: must be followed by \uDC00..\uDFFF.
      if (AtEnd() || Peek() != '\\') {
        Fail("unpaired UTF-16 high surrogate in \\u escape");
      }
      Next();
      if (AtEnd() || Peek() != 'u') {
        Fail("unpaired UTF-16 high surrogate in \\u escape");
      }
      Next();
      const unsigned low = ParseHex4(what);
      if (low < 0xDC00 || low > 0xDFFF) {
        Fail("invalid UTF-16 low surrogate in \\u escape");
      }
      code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    } else if (code >= 0xDC00 && code <= 0xDFFF) {
      Fail("unpaired UTF-16 low surrogate in \\u escape");
    }
    // UTF-8 encode.
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  JsonValue ParseNumber() {
    const std::size_t start = pos_;
    if (Peek() == '-') Next();
    if (AtEnd() || Peek() < '0' || Peek() > '9') {
      Fail("expected a digit after '-'");
    }
    if (Peek() == '0') {
      Next();
      if (!AtEnd() && Peek() >= '0' && Peek() <= '9') {
        Fail("leading zeros are not allowed in numbers");
      }
    } else {
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') Next();
    }
    if (!AtEnd() && Peek() == '.') {
      Next();
      if (AtEnd() || Peek() < '0' || Peek() > '9') {
        Fail("expected a digit after the decimal point");
      }
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') Next();
    }
    if (!AtEnd() && (Peek() == 'e' || Peek() == 'E')) {
      Next();
      if (!AtEnd() && (Peek() == '+' || Peek() == '-')) Next();
      if (AtEnd() || Peek() < '0' || Peek() > '9') {
        Fail("expected a digit in the exponent");
      }
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') Next();
    }
    const std::string token = text_.substr(start, pos_ - start);
    errno = 0;
    const double value = std::strtod(token.c_str(), nullptr);
    if (!std::isfinite(value)) {
      Fail("number '" + token + "' overflows double");
    }
    // strtod sets ERANGE both for overflow (caught above) and for
    // denormal underflow, which rounds toward zero and is acceptable.
    return JsonValue::MakeNumber(value);
  }

  const std::string& text_;
  const JsonReaderOptions& options_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
  std::size_t line_start_ = 0;
  int depth_ = 0;
  std::vector<std::string> path_;
};

}  // namespace

JsonValue ParseJson(const std::string& text, const JsonReaderOptions& options) {
  return JsonParser(text, options).ParseDocument();
}

}  // namespace wsn::util
