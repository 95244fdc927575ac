// JSON emitter and parser shared by every report serializer and by the
// sweep-service request protocol / cache files.
//
// The writer emits keys in insertion order -- there is no map in between --
// so a report serialized twice, or serialized from a reordered computation,
// produces byte-identical documents; the sweep determinism tests rely on
// this. Doubles are printed with std::to_chars (shortest representation
// that parses back to the same bits), so the reports round-trip exactly
// through strtod.
//
// The parser (json_parse) is the writer's inverse: numbers come back with
// the exact double bits the writer printed, and object members keep the
// document's key order (json_value stores them in a vector, not a map), so
// write(parse(write(x))) == write(x) byte for byte -- the property the
// result-store persistence and the daemon's warm/cold response identity
// are built on.
#pragma once

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/error.h"

namespace nwdec {

/// Escapes one JSON string body (quotes, backslashes, control characters);
/// the surrounding quotes are not included.
std::string json_escape(const std::string& text);

/// A malformed JSON document; what() names the byte offset of the defect.
class json_parse_error : public error {
 public:
  explicit json_parse_error(const std::string& what) : error(what) {}
};

/// One parsed JSON document node. Object members are kept in document
/// order; numbers are stored as the exact double the text parses to.
class json_value {
 public:
  enum class kind { null, boolean, number, string, array, object };
  using member = std::pair<std::string, json_value>;

  json_value() = default;  ///< null
  json_value(bool flag) : kind_(kind::boolean), bool_(flag) {}
  json_value(double number) : kind_(kind::number), number_(number) {}
  json_value(std::string text)
      : kind_(kind::string), string_(std::move(text)) {}
  json_value(const char* text) : json_value(std::string(text)) {}
  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>,
                             int> = 0>
  json_value(T number)
      : kind_(kind::number), number_(static_cast<double>(number)) {}

  static json_value array() { return json_value(kind::array); }
  static json_value object() { return json_value(kind::object); }
  /// Builds an object from prepared members in one move -- O(n) where
  /// repeated set() calls are O(n^2); the parser's path for large objects.
  /// Keys are taken as-is (set() is the deduplicating mutation API).
  static json_value object(std::vector<member> members);

  kind type() const { return kind_; }
  bool is_null() const { return kind_ == kind::null; }
  bool is_bool() const { return kind_ == kind::boolean; }
  bool is_number() const { return kind_ == kind::number; }
  bool is_string() const { return kind_ == kind::string; }
  bool is_array() const { return kind_ == kind::array; }
  bool is_object() const { return kind_ == kind::object; }

  /// Typed accessors; throw invalid_argument_error on a kind mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  /// The elements of an array.
  const std::vector<json_value>& items() const;
  /// The members of an object, in document/insertion order.
  const std::vector<member>& members() const;

  /// Appends an array element.
  void push_back(json_value element);
  /// Appends an object member (replaces the value if the key exists).
  void set(const std::string& name, json_value value);
  /// The member named `name`, or nullptr when absent / not an object.
  const json_value* find(const std::string& name) const;
  /// The member named `name`; throws not_found_error when absent.
  const json_value& at(const std::string& name) const;

  /// Deep structural equality. Numbers compare by value; object members
  /// compare element-wise in order (both the writer and the parser preserve
  /// member order, so round-tripped documents compare equal).
  friend bool operator==(const json_value& a, const json_value& b);
  friend bool operator!=(const json_value& a, const json_value& b) {
    return !(a == b);
  }

 private:
  explicit json_value(kind k) : kind_(k) {}

  kind kind_ = kind::null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<json_value> items_;
  std::vector<member> members_;
};

/// Parses one complete JSON document (trailing whitespace allowed, trailing
/// content is an error). Throws json_parse_error with the byte offset on
/// malformed input. Accepts strict JSON only: no comments, no trailing
/// commas, no inf/nan literals; \uXXXX escapes (including surrogate pairs)
/// decode to UTF-8.
json_value json_parse(const std::string& text);

/// Streaming writer with automatic comma placement. The default `pretty`
/// style two-space indents (the report files); `compact` emits a single
/// line with no whitespace (the daemon's newline-delimited responses).
/// Usage: begin_object()/key()/value() pairs, nested arrays via
/// begin_array(); str() renders the document and requires every scope to be
/// closed. Every token is appended straight into one std::string: keys and
/// strings are escaped in place and numbers go through std::to_chars on the
/// stack, so rendering allocates only when that buffer grows.
class json_writer {
 public:
  enum class style { pretty, compact };

  explicit json_writer(style output_style = style::pretty)
      : style_(output_style) {}

  json_writer& begin_object();
  json_writer& end_object();
  json_writer& begin_array();
  json_writer& end_array();

  /// Emits the key of the next value; only valid directly inside an object.
  json_writer& key(std::string_view name);

  json_writer& value(const std::string& text);
  /// Keeps a string literal from converting to value(bool).
  json_writer& value(const char* text);
  json_writer& value(double number);
  json_writer& value(bool flag);
  /// Emits a parsed tree (arrays/objects recurse; numbers re-print through
  /// the exact shortest-double path).
  json_writer& value(const json_value& node);
  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>,
                             int> = 0>
  json_writer& value(T number) {
    char digits[24];  // any 64-bit integer with its sign
    const std::to_chars_result result =
        std::to_chars(digits, digits + sizeof(digits), number);
    return raw(std::string_view(digits,
                                static_cast<std::size_t>(result.ptr - digits)));
  }

  /// key() + value() in one call, for flat objects.
  template <typename T>
  json_writer& field(std::string_view name, T&& v) {
    key(name);
    return value(std::forward<T>(v));
  }

  /// The rendered document plus a trailing newline; every begin_* must have
  /// been closed.
  std::string str() const;

 private:
  enum class scope { object, array };
  struct level {
    scope inside;
    bool first = true;
  };

  json_writer& raw(std::string_view text);
  json_writer& quoted(std::string_view text);
  void before_value();
  void indent();

  style style_ = style::pretty;
  std::string out_;
  std::vector<level> stack_;
  bool pending_key_ = false;
};

/// Renders one json_value as a standalone document (no trailing newline
/// trimming: same contract as json_writer::str()).
std::string json_render(const json_value& node,
                        json_writer::style output_style = json_writer::style::pretty);

}  // namespace nwdec
