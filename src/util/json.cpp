#include "util/json.h"

#include <charconv>
#include <cmath>
#include <string_view>
#include <unordered_map>

#include "util/error.h"

namespace nwdec {

namespace {

// Appends the escaped body of `text` to `out`, copying each run of bytes
// that needs no escape in one append.
void append_escaped(std::string& out, std::string_view text) {
  static constexpr char hex[] = "0123456789abcdef";
  std::size_t run = 0;
  for (std::size_t at = 0; at < text.size(); ++at) {
    const auto c = static_cast<unsigned char>(text[at]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(text.data() + run, at - run);
    run = at + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const char escape[] = {'\\', 'u', '0', '0', hex[c >> 4], hex[c & 0xf]};
        out.append(escape, sizeof(escape));
      }
    }
  }
  out.append(text.data() + run, text.size() - run);
}

}  // namespace

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  append_escaped(out, text);
  return out;
}

// ------------------------------------------------------------- json_value

bool json_value::as_bool() const {
  NWDEC_EXPECTS(kind_ == kind::boolean, "json_value is not a boolean");
  return bool_;
}

double json_value::as_number() const {
  NWDEC_EXPECTS(kind_ == kind::number, "json_value is not a number");
  return number_;
}

const std::string& json_value::as_string() const {
  NWDEC_EXPECTS(kind_ == kind::string, "json_value is not a string");
  return string_;
}

const std::vector<json_value>& json_value::items() const {
  NWDEC_EXPECTS(kind_ == kind::array, "json_value is not an array");
  return items_;
}

const std::vector<json_value::member>& json_value::members() const {
  NWDEC_EXPECTS(kind_ == kind::object, "json_value is not an object");
  return members_;
}

void json_value::push_back(json_value element) {
  NWDEC_EXPECTS(kind_ == kind::array, "push_back on a non-array json_value");
  items_.push_back(std::move(element));
}

void json_value::set(const std::string& name, json_value value) {
  NWDEC_EXPECTS(kind_ == kind::object, "set on a non-object json_value");
  for (member& entry : members_) {
    if (entry.first == name) {
      entry.second = std::move(value);
      return;
    }
  }
  members_.emplace_back(name, std::move(value));
}

const json_value* json_value::find(const std::string& name) const {
  if (kind_ != kind::object) return nullptr;
  for (const member& entry : members_) {
    if (entry.first == name) return &entry.second;
  }
  return nullptr;
}

json_value json_value::object(std::vector<member> members) {
  json_value out(kind::object);
  out.members_ = std::move(members);
  return out;
}

const json_value& json_value::at(const std::string& name) const {
  NWDEC_EXPECTS(kind_ == kind::object, "at() on a non-object json_value");
  const json_value* found = find(name);
  if (found == nullptr) {
    throw not_found_error("json object has no member '" + name + "'");
  }
  return *found;
}

bool operator==(const json_value& a, const json_value& b) {
  if (a.kind_ != b.kind_) return false;
  switch (a.kind_) {
    case json_value::kind::null: return true;
    case json_value::kind::boolean: return a.bool_ == b.bool_;
    case json_value::kind::number: return a.number_ == b.number_;
    case json_value::kind::string: return a.string_ == b.string_;
    case json_value::kind::array: return a.items_ == b.items_;
    case json_value::kind::object: return a.members_ == b.members_;
  }
  return false;
}

// ------------------------------------------------------------ json_parse

namespace {

class json_parser {
 public:
  explicit json_parser(const std::string& text) : text_(text) {}

  json_value parse_document() {
    skip_whitespace();
    json_value value = parse_value(0);
    skip_whitespace();
    if (at_ != text_.size()) fail("trailing content after the JSON document");
    return value;
  }

 private:
  // Deep enough for any nwdec document; bounds the recursion so a hostile
  // daemon request cannot overflow the stack.
  static constexpr std::size_t max_depth = 128;

  [[noreturn]] void fail(const std::string& what) const {
    throw json_parse_error("JSON parse error at offset " +
                           std::to_string(at_) + ": " + what);
  }

  bool done() const { return at_ >= text_.size(); }
  char peek() const { return text_[at_]; }

  char next() {
    if (done()) fail("unexpected end of input");
    return text_[at_++];
  }

  void expect(char c) {
    if (done() || text_[at_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++at_;
  }

  void skip_whitespace() {
    while (!done()) {
      const char c = peek();
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++at_;
    }
  }

  json_value parse_value(std::size_t depth) {
    if (depth > max_depth) fail("document nests deeper than 128 levels");
    if (done()) fail("unexpected end of input");
    switch (peek()) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return json_value(parse_string());
      case 't': expect_literal("true"); return json_value(true);
      case 'f': expect_literal("false"); return json_value(false);
      case 'n': expect_literal("null"); return json_value();
      default:
        if (peek() == '-' || (peek() >= '0' && peek() <= '9')) {
          return json_value(parse_number());
        }
        fail(std::string("unexpected character '") + peek() + "'");
    }
  }

  void expect_literal(const char* literal) {
    for (const char* c = literal; *c != '\0'; ++c) {
      if (done() || text_[at_] != *c) {
        fail(std::string("expected '") + literal + "'");
      }
      ++at_;
    }
  }

  json_value parse_object(std::size_t depth) {
    expect('{');
    skip_whitespace();
    if (!done() && peek() == '}') {
      ++at_;
      return json_value::object();
    }
    // Members accumulate in a flat vector with a key index on the side, so
    // a large (possibly hostile) object parses in O(n) instead of the
    // O(n^2) repeated set() would cost; duplicate keys keep last-wins
    // semantics.
    std::vector<json_value::member> members;
    std::unordered_map<std::string, std::size_t> index;
    while (true) {
      skip_whitespace();
      if (done() || peek() != '"') fail("expected an object key string");
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      skip_whitespace();
      json_value value = parse_value(depth + 1);
      const auto [it, inserted] = index.emplace(key, members.size());
      if (inserted) {
        members.emplace_back(std::move(key), std::move(value));
      } else {
        members[it->second].second = std::move(value);
      }
      skip_whitespace();
      const char c = next();
      if (c == '}') return json_value::object(std::move(members));
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  json_value parse_array(std::size_t depth) {
    expect('[');
    json_value array = json_value::array();
    skip_whitespace();
    if (!done() && peek() == ']') {
      ++at_;
      return array;
    }
    while (true) {
      skip_whitespace();
      array.push_back(parse_value(depth + 1));
      skip_whitespace();
      const char c = next();
      if (c == ']') return array;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (done()) fail("unterminated string");
      const char c = next();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string (use \\u escapes)");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      const char escape = next();
      switch (escape) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': append_unicode_escape(out); break;
        default: fail("unknown escape sequence");
      }
    }
  }

  unsigned parse_hex4() {
    unsigned value = 0;
    for (int k = 0; k < 4; ++k) {
      const char c = next();
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') value |= static_cast<unsigned>(c - 'A' + 10);
      else fail("expected four hex digits after \\u");
    }
    return value;
  }

  void append_unicode_escape(std::string& out) {
    unsigned code = parse_hex4();
    if (code >= 0xd800 && code <= 0xdbff) {
      // High surrogate: a low surrogate escape must follow.
      if (done() || next() != '\\' || done() || next() != 'u') {
        fail("high surrogate without a following \\u low surrogate");
      }
      const unsigned low = parse_hex4();
      if (low < 0xdc00 || low > 0xdfff) {
        fail("invalid low surrogate in \\u pair");
      }
      code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
    } else if (code >= 0xdc00 && code <= 0xdfff) {
      fail("unpaired low surrogate");
    }
    // Encode the code point as UTF-8.
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xc0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3f));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xe0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (code & 0x3f));
    } else {
      out += static_cast<char>(0xf0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3f));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (code & 0x3f));
    }
  }

  double parse_number() {
    // Validate the strict JSON grammar first (from_chars is laxer: it
    // accepts inf/nan and bare leading dots).
    const std::size_t start = at_;
    if (!done() && peek() == '-') ++at_;
    if (done() || peek() < '0' || peek() > '9') fail("malformed number");
    if (peek() == '0') {
      ++at_;
    } else {
      while (!done() && peek() >= '0' && peek() <= '9') ++at_;
    }
    if (!done() && peek() == '.') {
      ++at_;
      if (done() || peek() < '0' || peek() > '9') {
        fail("expected digits after the decimal point");
      }
      while (!done() && peek() >= '0' && peek() <= '9') ++at_;
    }
    if (!done() && (peek() == 'e' || peek() == 'E')) {
      ++at_;
      if (!done() && (peek() == '+' || peek() == '-')) ++at_;
      if (done() || peek() < '0' || peek() > '9') {
        fail("expected digits in the exponent");
      }
      while (!done() && peek() >= '0' && peek() <= '9') ++at_;
    }
    double value = 0.0;
    const char* first = text_.data() + start;
    const char* last = text_.data() + at_;
    const std::from_chars_result result = std::from_chars(first, last, value);
    if (result.ec != std::errc{} || result.ptr != last) {
      fail("malformed number");
    }
    return value;
  }

  const std::string& text_;
  std::size_t at_ = 0;
};

}  // namespace

json_value json_parse(const std::string& text) {
  return json_parser(text).parse_document();
}

// ------------------------------------------------------------ json_writer

void json_writer::indent() { out_.append(2 * stack_.size(), ' '); }

void json_writer::before_value() {
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  NWDEC_EXPECTS(stack_.empty() || stack_.back().inside == scope::array,
                "a value inside an object needs a key() first");
  if (!stack_.empty()) {
    if (!stack_.back().first) out_ += ',';
    stack_.back().first = false;
    if (style_ == style::pretty) {
      out_ += '\n';
      indent();
    }
  }
}

json_writer& json_writer::begin_object() {
  before_value();
  out_ += '{';
  stack_.push_back({scope::object, true});
  return *this;
}

json_writer& json_writer::end_object() {
  NWDEC_EXPECTS(!stack_.empty() && stack_.back().inside == scope::object &&
                    !pending_key_,
                "end_object() outside an object");
  const bool empty = stack_.back().first;
  stack_.pop_back();
  if (!empty && style_ == style::pretty) {
    out_ += '\n';
    indent();
  }
  out_ += '}';
  return *this;
}

json_writer& json_writer::begin_array() {
  before_value();
  out_ += '[';
  stack_.push_back({scope::array, true});
  return *this;
}

json_writer& json_writer::end_array() {
  NWDEC_EXPECTS(!stack_.empty() && stack_.back().inside == scope::array,
                "end_array() outside an array");
  const bool empty = stack_.back().first;
  stack_.pop_back();
  if (!empty && style_ == style::pretty) {
    out_ += '\n';
    indent();
  }
  out_ += ']';
  return *this;
}

json_writer& json_writer::key(std::string_view name) {
  NWDEC_EXPECTS(!stack_.empty() && stack_.back().inside == scope::object &&
                    !pending_key_,
                "key() is only valid directly inside an object");
  if (!stack_.back().first) out_ += ',';
  stack_.back().first = false;
  if (style_ == style::pretty) {
    out_ += '\n';
    indent();
  }
  out_ += '"';
  append_escaped(out_, name);
  out_ += style_ == style::pretty ? "\": " : "\":";
  pending_key_ = true;
  return *this;
}

json_writer& json_writer::raw(std::string_view text) {
  before_value();
  out_ += text;
  return *this;
}

json_writer& json_writer::quoted(std::string_view text) {
  before_value();
  out_ += '"';
  append_escaped(out_, text);
  out_ += '"';
  return *this;
}

json_writer& json_writer::value(const std::string& text) {
  return quoted(text);
}

json_writer& json_writer::value(const char* text) { return quoted(text); }

json_writer& json_writer::value(double number) {
  // JSON has no inf/nan; map them to null rather than emit garbage.
  if (!std::isfinite(number)) return raw("null");
  // Shortest representation that parses back to the same double, so the
  // reports round-trip exactly through strtod.
  char buffer[32];
  const std::to_chars_result result =
      std::to_chars(buffer, buffer + sizeof(buffer), number);
  return raw(std::string_view(buffer,
                              static_cast<std::size_t>(result.ptr - buffer)));
}

json_writer& json_writer::value(bool flag) {
  return raw(flag ? "true" : "false");
}

json_writer& json_writer::value(const json_value& node) {
  switch (node.type()) {
    case json_value::kind::null: return raw("null");
    case json_value::kind::boolean: return value(node.as_bool());
    case json_value::kind::number: return value(node.as_number());
    case json_value::kind::string: return value(node.as_string());
    case json_value::kind::array: {
      begin_array();
      for (const json_value& element : node.items()) value(element);
      return end_array();
    }
    case json_value::kind::object: {
      begin_object();
      for (const json_value::member& entry : node.members()) {
        key(entry.first);
        value(entry.second);
      }
      return end_object();
    }
  }
  return *this;
}

std::string json_writer::str() const {
  NWDEC_EXPECTS(stack_.empty() && !pending_key_,
                "str() called with an unclosed object/array or dangling key");
  std::string document;
  document.reserve(out_.size() + 1);
  document.append(out_).push_back('\n');
  return document;
}

std::string json_render(const json_value& node,
                        json_writer::style output_style) {
  json_writer writer(output_style);
  writer.value(node);
  return writer.str();
}

}  // namespace nwdec
