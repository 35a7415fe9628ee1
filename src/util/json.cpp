#include "hcep/util/json.hpp"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "hcep/util/error.hpp"

namespace hcep {

JsonValue JsonValue::boolean(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::number(double value) {
  require(std::isfinite(value), "JsonValue: non-finite number");
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = value;
  return v;
}

JsonValue JsonValue::number(std::int64_t value) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.integral_ = true;
  v.int_number_ = value;
  return v;
}

JsonValue JsonValue::string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::array() {
  JsonValue v;
  v.kind_ = Kind::kArray;
  return v;
}

JsonValue JsonValue::object() {
  JsonValue v;
  v.kind_ = Kind::kObject;
  return v;
}

JsonValue& JsonValue::push(JsonValue v) {
  require(kind_ == Kind::kArray, "JsonValue::push: not an array");
  items_.push_back(std::move(v));
  return *this;
}

JsonValue& JsonValue::set(const std::string& key, JsonValue v) {
  require(kind_ == Kind::kObject, "JsonValue::set: not an object");
  // The message is built only on a match: set is called once per field
  // of every document written, so a per-key message would allocate
  // n - 1 strings for the n-th field.
  for (const auto& [k, unused] : fields_)
    if (k == key)
      throw PreconditionError("JsonValue::set: duplicate key '" + key + "'");
  fields_.emplace_back(key, std::move(v));
  return *this;
}

bool JsonValue::as_bool() const {
  require(kind_ == Kind::kBool, "JsonValue::as_bool: not a boolean");
  return bool_;
}

double JsonValue::as_number() const {
  require(kind_ == Kind::kNumber, "JsonValue::as_number: not a number");
  return integral_ ? static_cast<double>(int_number_) : number_;
}

std::int64_t JsonValue::as_int() const {
  require(kind_ == Kind::kNumber && integral_,
          "JsonValue::as_int: not an integral number");
  return int_number_;
}

const std::string& JsonValue::as_string() const {
  require(kind_ == Kind::kString, "JsonValue::as_string: not a string");
  return string_;
}

std::size_t JsonValue::size() const {
  if (kind_ == Kind::kArray) return items_.size();
  require(kind_ == Kind::kObject, "JsonValue::size: not a container");
  return fields_.size();
}

const JsonValue& JsonValue::at(std::size_t index) const {
  require(kind_ == Kind::kArray, "JsonValue::at(index): not an array");
  require(index < items_.size(), "JsonValue::at(index): out of range");
  return items_[index];
}

const JsonValue* JsonValue::find(std::string_view key) const {
  require(kind_ == Kind::kObject, "JsonValue::find: not an object");
  for (const auto& [k, v] : fields_)
    if (k == key) return &v;
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* v = find(key);
  if (v == nullptr)
    throw PreconditionError("JsonValue::at: missing key '" +
                            std::string(key) + "'");
  return *v;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::fields()
    const {
  require(kind_ == Kind::kObject, "JsonValue::fields: not an object");
  return fields_;
}

void append_json_escaped(std::string& out, std::string_view s) {
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  append_json_escaped(out, s);
  return out;
}

namespace {

void append_indent(std::string& out, int indent) {
  out.push_back('\n');
  out.append(static_cast<std::size_t>(indent) * 2, ' ');
}

/// Strict RFC 8259 recursive-descent parser over a string_view.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    require(pos_ == text_.size(),
            "JsonValue::parse: trailing characters at offset " +
                std::to_string(pos_));
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw PreconditionError("JsonValue::parse: " + what + " at offset " +
                            std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return JsonValue::string(parse_string());
      case 't':
        if (consume_literal("true")) return JsonValue::boolean(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return JsonValue::boolean(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return JsonValue();
        fail("invalid literal");
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue obj = JsonValue::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.set(key, parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return obj;
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue arr = JsonValue::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push(parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return arr;
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("unescaped control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("dangling escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': append_utf8(out, parse_hex4()); break;
        default: fail("invalid escape");
      }
    }
  }

  unsigned parse_hex4() {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      if (pos_ >= text_.size()) fail("truncated \\u escape");
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
      else fail("invalid \\u escape");
    }
    return code;
  }

  static void append_utf8(std::string& out, unsigned code) {
    // Basic-plane only; surrogate pairs are not produced by our writer
    // (json_escape emits \uXXXX solely for C0 controls).
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xc0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3f));
    } else {
      out += static_cast<char>(0xe0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (code & 0x3f));
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    bool integral = true;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = c == '+' || c == '-' ? integral : false;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start || (text_[start] == '-' && pos_ == start + 1))
      fail("invalid number");
    const std::string token(text_.substr(start, pos_ - start));
    if (integral) {
      errno = 0;
      char* end = nullptr;
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end == token.c_str() + token.size())
        return JsonValue::number(static_cast<std::int64_t>(v));
    }
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("invalid number");
    require(std::isfinite(d), "JsonValue::parse: non-finite number");
    return JsonValue::number(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue JsonValue::parse(std::string_view text) {
  return Parser(text).parse_document();
}

void JsonValue::write(std::string& out, int indent, bool pretty) const {
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      return;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      return;
    case Kind::kNumber: {
      // 12 significant digits, the bytes of "%.12g" without printf.
      char buf[40];
      const std::to_chars_result r =
          integral_ ? std::to_chars(buf, buf + sizeof buf, int_number_)
                    : std::to_chars(buf, buf + sizeof buf, number_,
                                    std::chars_format::general, 12);
      out.append(buf, r.ptr);
      return;
    }
    case Kind::kString:
      out += '"';
      append_json_escaped(out, string_);
      out += '"';
      return;
    case Kind::kArray: {
      out += '[';
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i) out += ',';
        if (pretty) append_indent(out, indent + 1);
        items_[i].write(out, indent + 1, pretty);
      }
      if (pretty && !items_.empty()) append_indent(out, indent);
      out += ']';
      return;
    }
    case Kind::kObject: {
      out += '{';
      for (std::size_t i = 0; i < fields_.size(); ++i) {
        if (i) out += ',';
        if (pretty) append_indent(out, indent + 1);
        out += '"';
        append_json_escaped(out, fields_[i].first);
        out += "\":";
        if (pretty) out += ' ';
        fields_[i].second.write(out, indent + 1, pretty);
      }
      if (pretty && !fields_.empty()) append_indent(out, indent);
      out += '}';
      return;
    }
  }
}

std::string JsonValue::dump() const {
  std::string out;
  write(out, 0, false);
  return out;
}

std::string JsonValue::dump_pretty() const {
  std::string out;
  write(out, 0, true);
  return out;
}

}  // namespace hcep
