#include "common/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/check.h"

namespace tprm {

// ---------------------------------------------------------------------------
// Accessors
// ---------------------------------------------------------------------------

bool JsonValue::asBool() const {
  TPRM_CHECK(isBool(), "JSON value is not a boolean");
  return std::get<bool>(value_);
}

double JsonValue::asNumber() const {
  TPRM_CHECK(isNumber(), "JSON value is not a number");
  return std::get<double>(value_);
}

const std::string& JsonValue::asString() const {
  TPRM_CHECK(isString(), "JSON value is not a string");
  return std::get<std::string>(value_);
}

const JsonValue::Array& JsonValue::asArray() const {
  TPRM_CHECK(isArray(), "JSON value is not an array");
  return std::get<Array>(value_);
}

const JsonValue::Object& JsonValue::asObject() const {
  TPRM_CHECK(isObject(), "JSON value is not an object");
  return std::get<Object>(value_);
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (!isObject()) return nullptr;
  const auto& object = std::get<Object>(value_);
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

namespace {

/// True for the bytes appendEscaped must rewrite.
bool needsEscape(char c) {
  return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
}

void appendEscaped(std::string& out, std::string_view s) {
  out += '"';
  std::size_t run = 0;  // start of the pending run of verbatim bytes
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (!needsEscape(c)) continue;
    out.append(s.substr(run, i - run));
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        char buffer[8];
        std::snprintf(buffer, sizeof buffer, "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(c)));
        out += buffer;
      }
    }
  }
  out.append(s.substr(run));
  out += '"';
}

/// Integral values below 1e15 print without a fractional part (the bytes of
/// "%.0f").  Every other value prints either as "%.17g" — the long-standing
/// dump() form, which std::to_chars with chars_format::general and precision
/// 17 reproduces exactly — or, for the compact form, as the shortest digits
/// that parse back to the same double.
void appendNumber(std::string& out, double d, bool shortest) {
  char buffer[32];
  std::to_chars_result written{};
  if (d == std::floor(d) && std::abs(d) < 1e15) {
    if (d == 0.0 && std::signbit(d)) {
      out += "-0";
      return;
    }
    written = std::to_chars(buffer, buffer + sizeof buffer,
                            static_cast<std::int64_t>(d));
  } else if (shortest) {
    written = std::to_chars(buffer, buffer + sizeof buffer, d);
  } else {
    written = std::to_chars(buffer, buffer + sizeof buffer, d,
                            std::chars_format::general, 17);
  }
  TPRM_CHECK(written.ec == std::errc{}, "number does not fit its buffer");
  out.append(buffer, written.ptr);
}

void appendIndent(std::string& out, int indent) {
  out.append(static_cast<std::size_t>(indent) * 2, ' ');
}

}  // namespace

void JsonValue::dumpTo(std::string& out, int indent) const {
  if (isNull()) {
    out += "null";
  } else if (isBool()) {
    out += asBool() ? "true" : "false";
  } else if (isNumber()) {
    appendNumber(out, asNumber(), /*shortest=*/false);
  } else if (isString()) {
    appendEscaped(out, asString());
  } else if (isArray()) {
    const auto& array = asArray();
    if (array.empty()) {
      out += "[]";
      return;
    }
    out += "[\n";
    for (std::size_t i = 0; i < array.size(); ++i) {
      appendIndent(out, indent + 1);
      array[i].dumpTo(out, indent + 1);
      if (i + 1 < array.size()) out += ',';
      out += '\n';
    }
    appendIndent(out, indent);
    out += ']';
  } else {
    const auto& object = asObject();
    if (object.empty()) {
      out += "{}";
      return;
    }
    out += "{\n";
    std::size_t i = 0;
    for (const auto& [key, value] : object) {
      appendIndent(out, indent + 1);
      appendEscaped(out, key);
      out += ": ";
      value.dumpTo(out, indent + 1);
      if (++i < object.size()) out += ',';
      out += '\n';
    }
    appendIndent(out, indent);
    out += '}';
  }
}

std::string JsonValue::dump() const {
  std::string out;
  dumpTo(out, 0);
  return out;
}

void JsonValue::dumpCompactTo(std::string& out) const {
  if (isNull()) {
    out += "null";
  } else if (isBool()) {
    out += asBool() ? "true" : "false";
  } else if (isNumber()) {
    appendNumber(out, asNumber(), /*shortest=*/true);
  } else if (isString()) {
    appendEscaped(out, asString());
  } else if (isArray()) {
    out += '[';
    const auto& array = asArray();
    for (std::size_t i = 0; i < array.size(); ++i) {
      if (i > 0) out += ',';
      array[i].dumpCompactTo(out);
    }
    out += ']';
  } else {
    out += '{';
    std::size_t i = 0;
    for (const auto& [key, value] : asObject()) {
      if (i++ > 0) out += ',';
      appendEscaped(out, key);
      out += ':';
      value.dumpCompactTo(out);
    }
    out += '}';
  }
}

std::string JsonValue::dumpCompact() const {
  std::string out;
  dumpCompactTo(out);
  return out;
}

// ---------------------------------------------------------------------------
// Streaming writer
// ---------------------------------------------------------------------------

void JsonWriter::separate() {
  if (!first_) *out_ += ',';
  first_ = false;
}

JsonWriter& JsonWriter::beginObject() {
  separate();
  *out_ += '{';
  first_ = true;
  return *this;
}

JsonWriter& JsonWriter::endObject() {
  *out_ += '}';
  first_ = false;
  return *this;
}

JsonWriter& JsonWriter::beginArray() {
  separate();
  *out_ += '[';
  first_ = true;
  return *this;
}

JsonWriter& JsonWriter::endArray() {
  *out_ += ']';
  first_ = false;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  separate();
  appendEscaped(*out_, name);
  *out_ += ':';
  first_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(double d) {
  separate();
  appendNumber(*out_, d, /*shortest=*/true);
  return *this;
}

JsonWriter& JsonWriter::value(bool b) {
  separate();
  *out_ += b ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  separate();
  appendEscaped(*out_, s);
  return *this;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

class Parser {
 public:
  Parser(const std::string& text, const JsonParseOptions& options)
      : text_(text), options_(options) {}

  JsonParseResult run() {
    skipWhitespace();
    JsonValue value;
    if (!parseValue(value)) return failure();
    skipWhitespace();
    if (pos_ != text_.size()) {
      error_ = "trailing garbage after document";
      return failure();
    }
    JsonParseResult result;
    result.value = std::move(value);
    return result;
  }

 private:
  JsonParseResult failure() {
    JsonParseResult result;
    result.error = error_.empty() ? "parse error" : error_;
    result.errorOffset = pos_;
    return result;
  }

  void skipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool fail(const char* what) {
    error_ = what;
    return false;
  }

  [[nodiscard]] bool atEnd() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }

  bool consumeLiteral(const char* literal) {
    const std::size_t n = std::char_traits<char>::length(literal);
    if (text_.compare(pos_, n, literal) != 0) return fail("invalid literal");
    pos_ += n;
    return true;
  }

  bool parseValue(JsonValue& out) {
    if (atEnd()) return fail("unexpected end of input");
    switch (peek()) {
      case '{': return parseObject(out);
      case '[': return parseArray(out);
      case '"': {
        std::string s;
        if (!parseString(s)) return false;
        out = JsonValue(std::move(s));
        return true;
      }
      case 't':
        if (!consumeLiteral("true")) return false;
        out = JsonValue(true);
        return true;
      case 'f':
        if (!consumeLiteral("false")) return false;
        out = JsonValue(false);
        return true;
      case 'n':
        if (!consumeLiteral("null")) return false;
        out = JsonValue(nullptr);
        return true;
      default: return parseNumber(out);
    }
  }

  bool parseObject(JsonValue& out) {
    ++pos_;  // '{'
    if (++depth_ > options_.maxDepth) return fail("nesting too deep");
    JsonValue::Object object;
    skipWhitespace();
    if (!atEnd() && peek() == '}') {
      ++pos_;
      --depth_;
      out = JsonValue(std::move(object));
      return true;
    }
    for (;;) {
      skipWhitespace();
      if (atEnd() || peek() != '"') return fail("expected object key");
      std::string key;
      if (!parseString(key)) return false;
      skipWhitespace();
      if (atEnd() || peek() != ':') return fail("expected ':' after key");
      ++pos_;
      skipWhitespace();
      // Keys usually arrive sorted (every writer here emits them so): the
      // end hint makes that case amortised constant.  The value is parsed
      // in place; a duplicate key parses over the earlier value, so the
      // last one wins.
      const auto slot = object.try_emplace(object.end(), std::move(key));
      if (!parseValue(slot->second)) return false;
      skipWhitespace();
      if (atEnd()) return fail("unterminated object");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        --depth_;
        out = JsonValue(std::move(object));
        return true;
      }
      return fail("expected ',' or '}' in object");
    }
  }

  bool parseArray(JsonValue& out) {
    ++pos_;  // '['
    if (++depth_ > options_.maxDepth) return fail("nesting too deep");
    JsonValue::Array array;
    skipWhitespace();
    if (!atEnd() && peek() == ']') {
      ++pos_;
      --depth_;
      out = JsonValue(std::move(array));
      return true;
    }
    for (;;) {
      skipWhitespace();
      if (!parseValue(array.emplace_back())) return false;
      skipWhitespace();
      if (atEnd()) return fail("unterminated array");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        --depth_;
        out = JsonValue(std::move(array));
        return true;
      }
      return fail("expected ',' or ']' in array");
    }
  }

  bool parseString(std::string& out) {
    ++pos_;  // '"'
    out.clear();
    while (!atEnd()) {
      // Copy the run of plain bytes up to the next quote, backslash or
      // control byte in one append.
      const std::size_t run = pos_;
      while (pos_ < text_.size() && text_[pos_] != '"' &&
             text_[pos_] != '\\' &&
             static_cast<unsigned char>(text_[pos_]) >= 0x20) {
        ++pos_;
      }
      out.append(text_, run, pos_ - run);
      if (atEnd()) break;
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') return fail("unescaped control character in string");
      if (atEnd()) return fail("unterminated escape");
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
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("bad \\u escape");
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
              return fail("bad \\u escape");
            }
          }
          // UTF-8 encode (basic multilingual plane only; surrogate pairs
          // are rejected to keep the implementation honest).
          if (code >= 0xD800 && code <= 0xDFFF) {
            return fail("surrogate pairs are not supported");
          }
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: return fail("invalid escape character");
      }
    }
    return fail("unterminated string");
  }

  static bool isDigit(char c) { return c >= '0' && c <= '9'; }

  bool parseNumber(JsonValue& out) {
    const std::size_t start = pos_;
    if (!atEnd() && peek() == '-') ++pos_;
    while (!atEnd() && isDigit(peek())) {
      ++pos_;
    }
    if (!atEnd() && peek() == '.') {
      ++pos_;
      while (!atEnd() && isDigit(peek())) {
        ++pos_;
      }
    }
    if (!atEnd() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!atEnd() && (peek() == '+' || peek() == '-')) ++pos_;
      while (!atEnd() && isDigit(peek())) {
        ++pos_;
      }
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
      return fail("invalid number");
    }
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(text_.data() + start,
                                           text_.data() + pos_, value);
    if (ec != std::errc{} || ptr != text_.data() + pos_) {
      return fail("invalid number");
    }
    out = JsonValue(value);
    return true;
  }

  const std::string& text_;
  JsonParseOptions options_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string error_;
};

}  // namespace

JsonParseResult parseJson(const std::string& text,
                          const JsonParseOptions& options) {
  return Parser(text, options).run();
}

}  // namespace tprm
