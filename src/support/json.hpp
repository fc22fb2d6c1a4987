// A hand-rolled JSON document model: builder/writer plus a strict
// RFC 8259 parser (`parse()` below).
//
// Every report type of the toolkit renders a machine-readable document
// through this Value type (the `toJson(...)` siblings of the
// `toString(...)` renderers), and `tpdfc --json` emits one such document
// per command.  The parser is the other direction: the `tpdfd` daemon
// frames newline-delimited request documents off a socket and needs
// line/column-positioned rejections for malformed ones, and the test
// suites use the same implementation as their round-trip oracle.
// Design constraints, in order:
//   * deterministic output — objects keep insertion order, so the same
//     report always serializes to the same bytes (golden tests diff it);
//   * no dependencies — the container image pins the toolchain, so this
//     is a few hundred lines of std:: instead of a vendored library;
//   * strict RFC 8259 — escaped strings, shortest round-trip doubles via
//     std::to_chars, non-finite doubles degrade to null on output; the
//     parser accepts exactly the RFC grammar (no comments, no trailing
//     commas, no bare control characters) and throws ParseError with a
//     1-based line/column on the first violation.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "support/error.hpp"

namespace tpdf::support::json {

/// Escapes `s` for use inside a JSON string literal (quotes excluded).
/// Control characters below 0x20 become \u00XX; bytes >= 0x80 are passed
/// through untouched (input is assumed UTF-8).
inline std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char raw : s) {
    const unsigned char c = static_cast<unsigned char>(raw);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          static const char hex[] = "0123456789abcdef";
          out += "\\u00";
          out += hex[c >> 4];
          out += hex[c & 0xF];
        } else {
          out += raw;
        }
    }
  }
  return out;
}

/// One JSON value: null, bool, integer, double, string, array or object.
/// Integers are kept distinct from doubles so counts serialize without a
/// fractional part.  Objects preserve insertion order.
class Value {
 public:
  using Array = std::vector<Value>;
  using Member = std::pair<std::string, Value>;
  using Object = std::vector<Member>;

  Value() : data_(nullptr) {}
  Value(std::nullptr_t) : data_(nullptr) {}          // NOLINT
  Value(bool b) : data_(b) {}                        // NOLINT
  Value(int v) : data_(static_cast<std::int64_t>(v)) {}        // NOLINT
  Value(long v) : data_(static_cast<std::int64_t>(v)) {}       // NOLINT
  Value(long long v) : data_(static_cast<std::int64_t>(v)) {}  // NOLINT
  Value(unsigned v) : data_(static_cast<std::int64_t>(v)) {}   // NOLINT
  Value(unsigned long v)                                       // NOLINT
      : data_(static_cast<std::int64_t>(v)) {}
  Value(unsigned long long v)                                  // NOLINT
      : data_(static_cast<std::int64_t>(v)) {}
  Value(double d) : data_(d) {}                      // NOLINT
  Value(std::string s) : data_(std::move(s)) {}      // NOLINT
  Value(const char* s) : data_(std::string(s)) {}    // NOLINT
  // Anything string_view-convertible (std::string_view itself,
  // graph::Name) — same SFINAE shape std::string uses, so plain strings
  // and literals keep hitting the exact-match overloads above.
  template <typename T>
    requires(std::is_convertible_v<const T&, std::string_view> &&
             !std::is_convertible_v<const T&, const char*> &&
             !std::is_same_v<std::decay_t<T>, std::string>)
  Value(const T& s)                                  // NOLINT
      : data_(std::string(std::string_view(s))) {}

  static Value object() {
    Value v;
    v.data_ = Object{};
    return v;
  }
  static Value array() {
    Value v;
    v.data_ = Array{};
    return v;
  }

  bool isNull() const { return std::holds_alternative<std::nullptr_t>(data_); }
  bool isBool() const { return std::holds_alternative<bool>(data_); }
  bool isInt() const { return std::holds_alternative<std::int64_t>(data_); }
  bool isDouble() const { return std::holds_alternative<double>(data_); }
  bool isString() const { return std::holds_alternative<std::string>(data_); }
  bool isArray() const { return std::holds_alternative<Array>(data_); }
  bool isObject() const { return std::holds_alternative<Object>(data_); }

  bool asBool() const { return std::get<bool>(data_); }
  std::int64_t asInt() const { return std::get<std::int64_t>(data_); }
  double asDouble() const { return std::get<double>(data_); }
  const std::string& asString() const { return std::get<std::string>(data_); }
  const Array& items() const { return std::get<Array>(data_); }
  const Object& members() const { return std::get<Object>(data_); }
  /// Mutable member access (lets callers move values out when splicing
  /// one document into another).
  Object& members() { return std::get<Object>(data_); }

  /// Sets `key` in an object (replacing an existing member in place, so
  /// insertion order is stable under overwrite).  Throws on non-objects.
  ///
  /// set() and push() build the member in place from their argument
  /// instead of taking a Value by value and moving it in: that saves a
  /// move per member, and it keeps GCC 12's -Wmaybe-uninitialized from
  /// misreading the inlined std::variant move of a temporary.
  template <typename T>
    requires std::is_constructible_v<Value, T&&>
  Value& set(std::string key, T&& v) {
    Object& obj = mutableObject();
    for (Member& m : obj) {
      if (m.first == key) {
        m.second = Value(std::forward<T>(v));
        return *this;
      }
    }
    obj.emplace_back(std::move(key), std::forward<T>(v));
    return *this;
  }

  /// Appends to an array.  Throws on non-arrays.
  template <typename T>
    requires std::is_constructible_v<Value, T&&>
  Value& push(T&& v) {
    if (!isArray()) {
      throw support::Error("json: push() on a non-array value");
    }
    std::get<Array>(data_).emplace_back(std::forward<T>(v));
    return *this;
  }

  /// Member lookup; nullptr when absent or not an object.
  const Value* find(const std::string& key) const {
    if (!isObject()) return nullptr;
    for (const Member& m : members()) {
      if (m.first == key) return &m.second;
    }
    return nullptr;
  }

  std::size_t size() const {
    if (isArray()) return items().size();
    if (isObject()) return members().size();
    return 0;
  }

  bool operator==(const Value& o) const { return data_ == o.data_; }
  bool operator!=(const Value& o) const { return !(*this == o); }

  /// Compact single-line serialization.
  std::string dump() const {
    Sink sink;
    write(sink, -1, 0);
    return std::move(sink.buf);
  }

  /// Indented multi-line serialization (`indent` spaces per level).
  std::string pretty(int indent = 2) const {
    Sink sink;
    write(sink, indent < 0 ? 0 : indent, 0);
    sink.buf += '\n';
    return std::move(sink.buf);
  }

  /// Receives a streamed serialization one chunk at a time.
  using ChunkOut = std::function<void(std::string_view)>;

  /// pretty(), streamed: `out` is called with consecutive chunks whose
  /// concatenation is exactly pretty().  Chunks are cut at value
  /// boundaries once at least 64 KiB are pending, so memory stays ~one
  /// chunk (plus the largest single string) however large the document
  /// is.
  void prettyTo(const ChunkOut& out) const {
    Sink sink{.buf = {}, .out = &out};
    sink.buf.reserve(kChunkBytes + kChunkBytes / 4);
    write(sink, 2, 0);
    sink.buf += '\n';
    out(sink.buf);
  }

 private:
  static constexpr std::size_t kChunkBytes = 64 * 1024;

  /// Where the one writer puts its bytes: into `buf`, which is either
  /// the whole result (dump/pretty: no `out`) or the pending chunk,
  /// handed to `out` and cleared at value boundaries (prettyTo).
  struct Sink {
    std::string buf;
    const ChunkOut* out = nullptr;

    void boundary() {
      if (out != nullptr && buf.size() >= kChunkBytes) {
        (*out)(buf);
        buf.clear();
      }
    }
  };

  Object& mutableObject() {
    if (!isObject()) {
      throw support::Error("json: set() on a non-object value");
    }
    return std::get<Object>(data_);
  }

  static void writeNumber(std::string& out, std::int64_t v) {
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, res.ptr);
  }

  static void writeNumber(std::string& out, double v) {
    if (!std::isfinite(v)) {
      // JSON has no NaN/Infinity; degrade explicitly rather than emit an
      // invalid token.
      out += "null";
      return;
    }
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    std::string token(buf, res.ptr);
    // Keep the value recognizably floating-point: shortest-round-trip
    // renders 1.0 as "1", which would read back as an integer.
    if (token.find('.') == std::string::npos &&
        token.find('e') == std::string::npos) {
      token += ".0";
    }
    out += token;
  }

  void newline(std::string& out, int indent, int depth) const {
    if (indent <= 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * depth), ' ');
  }

  /// `indent` < 0 means compact.
  void write(Sink& sink, int indent, int depth) const {
    std::string& out = sink.buf;
    if (isNull()) {
      out += "null";
    } else if (isBool()) {
      out += asBool() ? "true" : "false";
    } else if (isInt()) {
      writeNumber(out, asInt());
    } else if (isDouble()) {
      writeNumber(out, asDouble());
    } else if (isString()) {
      out += '"';
      out += escape(asString());
      out += '"';
    } else if (isArray()) {
      const Array& arr = items();
      if (arr.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      bool first = true;
      for (const Value& v : arr) {
        if (!first) out += ',';
        first = false;
        newline(out, indent, depth + 1);
        v.write(sink, indent, depth + 1);
        sink.boundary();
      }
      newline(out, indent, depth);
      out += ']';
    } else {
      const Object& obj = members();
      if (obj.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      bool first = true;
      for (const Member& m : obj) {
        if (!first) out += ',';
        first = false;
        newline(out, indent, depth + 1);
        out += '"';
        out += escape(m.first);
        out += "\":";
        if (indent > 0) out += ' ';
        m.second.write(sink, indent, depth + 1);
        sink.boundary();
      }
      newline(out, indent, depth);
      out += '}';
    }
  }

  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string, Array,
               Object>
      data_;
};

namespace detail {

/// Recursive-descent RFC 8259 parser over a complete document.  Hoisted
/// from the test suites' strict oracle (tests/strict_json.hpp) so the
/// serving layer and the tests share one implementation; every rejection
/// is a support::ParseError carrying the 1-based line/column of the
/// offending byte.  Nesting is depth-limited so an adversarial request
/// cannot overflow the stack.
class Parser {
 public:
  static constexpr int kMaxDepth = 64;

  explicit Parser(std::string_view text) : text_(text) {}

  Value parse() {
    skipWs();
    Value v = parseValue(0);
    skipWs();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) {
    throw ParseError("json: " + why, line_, column_);
  }

  bool atEnd() const { return pos_ >= text_.size(); }

  char peek() {
    if (atEnd()) fail("unexpected end of document");
    return text_[pos_];
  }

  char get() {
    const char c = peek();
    ++pos_;
    if (c == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    return c;
  }

  void expect(char c, const char* where) {
    if (atEnd() || peek() != c) {
      fail(std::string("expected '") + c + "' in " + where);
    }
    get();
  }

  void skipWs() {
    while (!atEnd()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') return;
      get();
    }
  }

  void literal(std::string_view word) {
    for (const char expected : word) {
      if (atEnd() || peek() != expected) fail("invalid literal");
      get();
    }
  }

  Value parseValue(int depth) {
    if (depth > kMaxDepth) fail("document nested too deeply");
    switch (peek()) {
      case '{': return parseObject(depth);
      case '[': return parseArray(depth);
      case '"': return Value(parseString());
      case 't': literal("true"); return Value(true);
      case 'f': literal("false"); return Value(false);
      case 'n': literal("null"); return Value(nullptr);
      default: return parseNumber();
    }
  }

  Value parseObject(int depth) {
    expect('{', "object");
    auto obj = Value::object();
    skipWs();
    if (peek() == '}') {
      get();
      return obj;
    }
    while (true) {
      skipWs();
      if (peek() != '"') fail("object member name must be a string");
      std::string key = parseString();
      skipWs();
      expect(':', "object member");
      skipWs();
      obj.set(std::move(key), parseValue(depth + 1));
      skipWs();
      const char c = get();
      if (c == '}') return obj;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  Value parseArray(int depth) {
    expect('[', "array");
    auto arr = Value::array();
    skipWs();
    if (peek() == ']') {
      get();
      return arr;
    }
    while (true) {
      skipWs();
      arr.push(parseValue(depth + 1));
      skipWs();
      const char c = get();
      if (c == ']') return arr;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  /// One \uXXXX escape (the four hex digits; the prefix was consumed).
  unsigned parseHex4() {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = get();
      code <<= 4;
      if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a') + 10;
      else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A') + 10;
      else fail("invalid \\u escape (four hex digits required)");
    }
    return code;
  }

  /// Appends `code` (a Unicode scalar value) to `out` as UTF-8.
  static void appendUtf8(std::string& out, unsigned code) {
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

  std::string parseString() {
    expect('"', "string");
    std::string out;
    while (true) {
      const char c = get();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string (use \\u escapes)");
      }
      if (c != '\\') {
        out += c;  // bytes >= 0x80 pass through (input is UTF-8)
        continue;
      }
      const char esc = get();
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
          unsigned code = parseHex4();
          if (code >= 0xD800 && code <= 0xDBFF) {
            // High surrogate: a low surrogate escape must follow.
            if (atEnd() || get() != '\\' || atEnd() || get() != 'u') {
              fail("unpaired surrogate in \\u escape");
            }
            const unsigned low = parseHex4();
            if (low < 0xDC00 || low > 0xDFFF) {
              fail("invalid low surrogate in \\u escape");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            fail("unpaired surrogate in \\u escape");
          }
          appendUtf8(out, code);
          break;
        }
        default:
          fail("invalid escape sequence in string");
      }
    }
  }

  Value parseNumber() {
    const std::size_t start = pos_;
    bool isDouble = false;
    if (peek() == '-') get();
    // Integer part: "0" alone or a nonzero-led digit run (RFC 8259
    // forbids leading zeros).
    if (atEnd() || !isDigit(peek())) fail("invalid number");
    if (get() != '0') {
      while (!atEnd() && isDigit(peek())) get();
    } else if (!atEnd() && isDigit(peek())) {
      fail("invalid number (leading zero)");
    }
    if (!atEnd() && peek() == '.') {
      isDouble = true;
      get();
      if (atEnd() || !isDigit(peek())) fail("invalid number (bare decimal point)");
      while (!atEnd() && isDigit(peek())) get();
    }
    if (!atEnd() && (peek() == 'e' || peek() == 'E')) {
      isDouble = true;
      get();
      if (!atEnd() && (peek() == '+' || peek() == '-')) get();
      if (atEnd() || !isDigit(peek())) fail("invalid number (empty exponent)");
      while (!atEnd() && isDigit(peek())) get();
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (!isDouble) {
      std::int64_t value = 0;
      const auto res =
          std::from_chars(token.data(), token.data() + token.size(), value);
      if (res.ec == std::errc() && res.ptr == token.data() + token.size()) {
        return Value(value);
      }
      // Out of int64 range: keep the value, as a double.
    }
    // std::from_chars(double) is still patchy across standard libraries;
    // strtod on a NUL-terminated copy is fully portable and the token is
    // short.
    const std::string copy(token);
    return Value(std::strtod(copy.c_str(), nullptr));
  }

  static bool isDigit(char c) { return c >= '0' && c <= '9'; }

  std::string_view text_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
};

}  // namespace detail

/// Parses one complete, strict RFC 8259 document.  Throws
/// support::ParseError with the 1-based line/column of the first
/// violation (malformed syntax, bare control characters, trailing
/// garbage, nesting beyond detail::Parser::kMaxDepth).  Numbers without
/// fraction/exponent parse as int64 (falling back to double outside the
/// int64 range); \uXXXX escapes decode to UTF-8, surrogate pairs
/// included.
inline Value parse(std::string_view text) { return detail::Parser(text).parse(); }

}  // namespace tpdf::support::json
