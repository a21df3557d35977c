// Minimal JSON reader/writer (no external dependencies).
//
// Supports the JSON subset the library's serialization needs: objects,
// arrays, strings (with \" \\ \/ \b \f \n \r \t and \uXXXX escapes),
// numbers (doubles), booleans, and null.  Parsing is strict: trailing
// garbage, unterminated constructs, and invalid escapes are errors.
// Errors are reported with a byte offset rather than by aborting, so
// callers can reject malformed user files gracefully.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace tprm {

/// A parsed JSON value.  Objects preserve no duplicate keys (last wins) and
/// iterate in key order.  The object comparator is transparent, so lookups
/// by `std::string_view` or string literal build no temporary string.
class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  using Object = std::map<std::string, JsonValue, std::less<>>;

  JsonValue() : value_(nullptr) {}                        // null
  JsonValue(std::nullptr_t) : value_(nullptr) {}          // NOLINT(runtime/explicit)
  JsonValue(bool b) : value_(b) {}                        // NOLINT(runtime/explicit)
  JsonValue(double d) : value_(d) {}                      // NOLINT(runtime/explicit)
  JsonValue(int i) : value_(static_cast<double>(i)) {}    // NOLINT(runtime/explicit)
  JsonValue(std::int64_t i) : value_(static_cast<double>(i)) {}  // NOLINT
  JsonValue(const char* s) : value_(std::string(s)) {}    // NOLINT(runtime/explicit)
  JsonValue(std::string s) : value_(std::move(s)) {}      // NOLINT(runtime/explicit)
  JsonValue(Array a) : value_(std::move(a)) {}            // NOLINT(runtime/explicit)
  JsonValue(Object o) : value_(std::move(o)) {}           // NOLINT(runtime/explicit)

  [[nodiscard]] bool isNull() const {
    return std::holds_alternative<std::nullptr_t>(value_);
  }
  [[nodiscard]] bool isBool() const {
    return std::holds_alternative<bool>(value_);
  }
  [[nodiscard]] bool isNumber() const {
    return std::holds_alternative<double>(value_);
  }
  [[nodiscard]] bool isString() const {
    return std::holds_alternative<std::string>(value_);
  }
  [[nodiscard]] bool isArray() const {
    return std::holds_alternative<Array>(value_);
  }
  [[nodiscard]] bool isObject() const {
    return std::holds_alternative<Object>(value_);
  }

  /// Typed accessors; abort on type mismatch (check first, or use the
  /// lookup helpers below which produce descriptive errors).
  [[nodiscard]] bool asBool() const;
  [[nodiscard]] double asNumber() const;
  [[nodiscard]] const std::string& asString() const;
  [[nodiscard]] const Array& asArray() const;
  [[nodiscard]] const Object& asObject() const;

  /// Object field lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

  /// Serialises with 2-space indentation and sorted keys (stable output).
  [[nodiscard]] std::string dump() const;

  /// Serialises without any whitespace (sorted keys): the wire form of the
  /// negotiation protocol, and the JSON-lines form of periodic metric
  /// snapshots.  Non-integral numbers print in the shortest form that parses
  /// back to the same double (dump() keeps its 17-significant-digit form).
  [[nodiscard]] std::string dumpCompact() const;

  bool operator==(const JsonValue& other) const = default;

 private:
  void dumpTo(std::string& out, int indent) const;
  void dumpCompactTo(std::string& out) const;

  std::variant<std::nullptr_t, bool, double, std::string, Array, Object>
      value_;
};

/// Streams compact JSON straight into a string, for hot encoders that would
/// otherwise build a JsonValue only to dump it.  Callers write each object's
/// keys in sorted order, so the bytes equal dumpCompact() of the same
/// document: no whitespace, numbers printed exactly as dumpCompact() prints
/// them (integers widened to double first, as a JsonValue would hold them).
class JsonWriter {
 public:
  explicit JsonWriter(std::string& out) : out_(&out) {}

  JsonWriter& beginObject();
  JsonWriter& endObject();
  JsonWriter& beginArray();
  JsonWriter& endArray();
  /// Object key; the next call writes its value.
  JsonWriter& key(std::string_view name);

  JsonWriter& value(double d);
  JsonWriter& value(std::int64_t i) { return value(static_cast<double>(i)); }
  JsonWriter& value(int i) { return value(static_cast<double>(i)); }
  JsonWriter& value(bool b);
  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }

  /// key(name).value(v).
  template <typename T>
  JsonWriter& member(std::string_view name, const T& v) {
    return key(name).value(v);
  }

 private:
  /// Writes the ',' that separates this item from the previous one.
  void separate();

  std::string* out_;
  /// True until the open container gets its first item, and right after a
  /// key (a value never takes a separator).
  bool first_ = true;
};

/// Parse outcome: a value or an error message with a byte offset.
struct JsonParseResult {
  std::optional<JsonValue> value;
  std::string error;       // empty on success
  std::size_t errorOffset = 0;

  [[nodiscard]] bool ok() const { return value.has_value(); }
};

/// Parser limits for untrusted input (wire frames, user files).  The depth
/// cap bounds the parser's recursion: without it a few kilobytes of "[[[["
/// can exhaust the stack.
struct JsonParseOptions {
  /// Maximum container nesting depth (top-level scalar = depth 0).
  int maxDepth = 64;
};

/// Parses a complete JSON document (rejects trailing garbage).
[[nodiscard]] JsonParseResult parseJson(const std::string& text,
                                        const JsonParseOptions& options = {});

}  // namespace tprm
