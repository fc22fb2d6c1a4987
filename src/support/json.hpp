// A hand-rolled JSON toolkit: a push-style Writer, a document model
// (Value) and a strict RFC 8259 parser (`parse()` below).
//
// Every report type renders itself once, through a `write(Writer&, ...)`
// member that pushes its members straight into the output: `tpdfc
// --json` streams its envelope to stdout in 64 KiB chunks and `tpdfd`
// writes its compact reply line, with no document tree in between.
// Value is the other direction: the parser builds one (tpdfd requests,
// --connect replies, the tests' oracle), and Value::dump/pretty walk it
// into the same Writer, so there is one byte formatter.  toValue() parses
// a renderer's output back for tests and the benchmark helper.
// Design constraints, in order:
//   * deterministic output — members come out in write order, so a
//     report always serializes to the same bytes (golden tests diff it);
//   * two layouts — pretty (2-space indent, one member or element per
//     line, a final newline) and compact (one line, no spaces);
//   * no dependencies — a few hundred lines of std::, no vendored library;
//   * strict RFC 8259 — escaped strings, shortest round-trip doubles via
//     std::to_chars, non-finite doubles degrade to null, and bytes that
//     are not well-formed UTF-8 are replaced by U+FFFD (one per maximal
//     ill-formed subsequence), so the output is always valid JSON; the
//     parser accepts exactly the RFC grammar (no comments, no trailing
//     commas, no bare control characters, no duplicate member names)
//     and throws ParseError with a 1-based line/column on the first
//     violation.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "support/error.hpp"

namespace tpdf::support::json {

class Value;

/// Receives a streamed serialization one chunk at a time.
using ChunkOut = std::function<void(std::string_view)>;

enum class Layout { Compact, Pretty };

namespace detail {

/// Length of the well-formed UTF-8 sequence starting at s[i] (a byte
/// >= 0x80), or minus the length of its maximal ill-formed prefix
/// (Unicode's "maximal subpart": at least 1, replaced by one U+FFFD).
inline int utf8Sequence(std::string_view s, std::size_t i) {
  const auto c = static_cast<unsigned char>(s[i]);
  const std::size_t len = c < 0xC2 ? 0 : c < 0xE0 ? 2 : c < 0xF0 ? 3
                          : c < 0xF5 ? 4 : 0;
  if (len == 0) return -1;
  // The second byte's range rules out overlong forms (E0, F0),
  // surrogates (ED) and values past U+10FFFF (F4) — Unicode Table 3-7.
  unsigned char lo = c == 0xE0 ? 0xA0 : c == 0xF0 ? 0x90 : 0x80;
  unsigned char hi = c == 0xED ? 0x9F : c == 0xF4 ? 0x8F : 0xBF;
  std::size_t k = 1;
  for (; k < len && i + k < s.size(); ++k, lo = 0x80, hi = 0xBF) {
    const auto b = static_cast<unsigned char>(s[i + k]);
    if (b < lo || b > hi) break;
  }
  return k == len ? static_cast<int>(len) : -static_cast<int>(k);
}

/// True for a byte that a JSON string cannot carry verbatim, or that
/// needs a UTF-8 check: control characters, '"', '\\' and non-ASCII.
inline bool needsEscapeCheck(unsigned char c) {
  return c < 0x20 || c >= 0x80 || c == '"' || c == '\\';
}

/// Writes s[i, stop) escaped for a JSON string literal (quotes excluded)
/// at `out`, which has room for 6 bytes per input byte plus 3 (a UTF-8
/// sequence starting before `stop` is copied whole).  Control characters
/// below 0x20 become short or \u00XX escapes; well-formed UTF-8 is copied
/// verbatim and ill-formed bytes become U+FFFD.  Returns the end of the
/// output; `i` ends at or just past `stop`.
inline char* escapeRun(char* out, std::string_view s, std::size_t& i,
                       std::size_t stop) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t run = i;  // first byte not yet copied
  auto flush = [&] { out = std::copy(s.data() + run, s.data() + i, out); };
  while (i < stop) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (!needsEscapeCheck(c)) {
      ++i;
      continue;
    }
    if (c >= 0x80) {
      const int n = utf8Sequence(s, i);
      if (n > 0) {
        i += static_cast<std::size_t>(n);
        continue;
      }
      flush();
      std::memcpy(out, "\xEF\xBF\xBD", 3);
      out += 3;
      i += static_cast<std::size_t>(-n);
      run = i;
      continue;
    }
    flush();
    *out++ = '\\';
    switch (c) {
      case '"': *out++ = '"'; break;
      case '\\': *out++ = '\\'; break;
      case '\b': *out++ = 'b'; break;
      case '\f': *out++ = 'f'; break;
      case '\n': *out++ = 'n'; break;
      case '\r': *out++ = 'r'; break;
      case '\t': *out++ = 't'; break;
      default:
        std::memcpy(out, "u00", 3);
        out[3] = kHex[c >> 4];
        out[4] = kHex[c & 0xF];
        out += 5;
    }
    run = ++i;
  }
  flush();
  return out;
}

}  // namespace detail

/// The one JSON byte formatter: a push-style writer over an output
/// buffer.  Calls mirror the document — beginObject/key/value/endObject,
/// beginArray/value/endArray — and the writer places commas, newlines
/// and indentation itself.  Without a ChunkOut, finish() returns the
/// whole text; with one, the text is handed over in chunks cut at value
/// boundaries once at least 64 KiB are pending, so memory stays ~one
/// chunk (plus the largest single string) however large the document.
/// The caller keeps calls balanced; the writer does not check them.
class Writer {
 public:
  static constexpr std::size_t kChunkBytes = 64 * 1024;

  explicit Writer(Layout layout, const ChunkOut* out = nullptr)
      : pretty_(layout == Layout::Pretty), out_(out) {
    if (out_ != nullptr) buf_.resize(kChunkBytes + kChunkBytes / 4);
  }

  Writer& beginObject() { return open('{'); }
  Writer& endObject() { return close('}'); }
  Writer& beginArray() { return open('['); }
  Writer& endArray() { return close(']'); }

  /// Names the next member of the open object; its value follows.
  Writer& key(std::string_view name) {
    char* p = separate(room(separatorRoom() + name.size() + 4));
    commit(colon(quoted(p, name, 2)));
    afterKey_ = true;
    return *this;
  }

  /// Scalars: null, bool, every integer type (rendered as an int64, no
  /// fractional part), double (shortest round-trip form, kept
  /// recognizably floating-point — "1.0", not "1"; NaN and infinities
  /// have no JSON spelling and become null), and strings, literals,
  /// std::string_view and graph::Name.
  template <typename T>
    requires(!std::is_same_v<T, Value>)
  Writer& value(const T& v) {
    const std::size_t need = roomFor(v);
    commit(put(separate(room(separatorRoom() + need)), v));
    return done();
  }
  /// A parsed or hand-built document, walked into this writer.
  Writer& value(const Value& v);

  /// key(name).value(v); a scalar goes out with its key and separator
  /// in one step.
  template <typename T>
  Writer& member(std::string_view name, const T& v) {
    if constexpr (std::is_same_v<T, Value>) {
      return key(name).value(v);
    } else {
      const std::size_t need = roomFor(v);
      char* p =
          separate(room(separatorRoom() + name.size() + 4 + need));
      commit(put(colon(quoted(p, name, 2 + need)), v));
      return done();
    }
  }

  /// Ends the document (pretty adds the final newline) and returns its
  /// text — or, with a ChunkOut, hands over the last chunk and returns "".
  std::string finish() {
    if (pretty_) commit(newlineAt(room(1), 0));
    if (out_ != nullptr) {
      (*out_)(std::string_view(buf_.data(), len_));
      len_ = 0;
      return {};
    }
    buf_.resize(len_);
    len_ = 0;
    return std::move(buf_);
  }

 private:
  // Every write reserves its worst-case size with room() and then
  // stores bytes through a pointer, which the helpers below take and
  // return; commit() makes them part of the text.  The buffer is a
  // std::string whose size is the capacity in use; `len_` is the length
  // of the text in it.
  char* room(std::size_t n) {
    if (buf_.size() - len_ < n) {
      buf_.resize(std::max(2 * buf_.size(), len_ + n + 240));
    }
    return buf_.data() + len_;
  }
  void commit(const char* end) {
    len_ = static_cast<std::size_t>(end - buf_.data());
  }

  /// What separate() may write: a comma, a line break and the
  /// indentation, which is stored in whole 8-byte groups.
  std::size_t separatorRoom() const { return 10 + 2 * hasItems_.size(); }

  /// Before a value or key: the comma and line break that separate it
  /// from its predecessor (none right after a key or at the top level).
  char* separate(char* p) {
    if (afterKey_) {
      afterKey_ = false;
      return p;
    }
    if (hasItems_.empty()) return p;
    if (hasItems_.back() != 0) *p++ = ',';
    hasItems_.back() = 1;
    return pretty_ ? newlineAt(p, hasItems_.size()) : p;
  }

  /// A line break and the indentation of `depth` open containers.
  static char* newlineAt(char* p, std::size_t depth) {
    *p++ = '\n';
    for (std::size_t k = 0; k < 2 * depth; k += 8) {
      std::memcpy(p + k, "        ", 8);
    }
    return p + 2 * depth;
  }

  char* colon(char* p) const {
    *p++ = ':';
    if (pretty_) *p++ = ' ';
    return p;
  }

  static std::size_t roomFor(std::nullptr_t) { return 5; }
  template <typename T>
    requires std::is_arithmetic_v<T>
  static std::size_t roomFor(T) {
    return 34;
  }
  template <typename T>
    requires std::is_convertible_v<const T&, std::string_view>
  static std::size_t roomFor(const T& s) {
    return std::string_view(s).size() + 2;
  }

  static char* put(char* p, std::nullptr_t) { return literal(p, "null"); }
  static char* put(char* p, bool b) {
    return literal(p, b ? "true" : "false");
  }
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  static char* put(char* p, T v) {
    return std::to_chars(p, p + 24, static_cast<std::int64_t>(v)).ptr;
  }
  static char* put(char* p, double d) {
    if (!std::isfinite(d)) return literal(p, "null");
    char* end = std::to_chars(p, p + 32, d).ptr;
    if (std::string_view(p, end).find_first_of(".e") == std::string::npos) {
      std::memcpy(end, ".0", 2);
      end += 2;
    }
    return end;
  }
  template <typename T>
    requires std::is_convertible_v<const T&, std::string_view>
  char* put(char* p, const T& s) {
    return quoted(p, s, 0);
  }

  static char* literal(char* p, std::string_view token) {
    std::memcpy(p, token.data(), token.size());
    return p + token.size();
  }

  /// `s` quoted at `p`, which has room for s.size() + 2 + `tail` bytes;
  /// returns the end, which has room for `tail` more.  Plain runs are
  /// copied in one step; anything else is escaped in bounded blocks (so
  /// a long string never reserves more than a block's worst case).
  char* quoted(char* p, std::string_view s, std::size_t tail) {
    *p++ = '"';
    std::size_t i = 0;
    while (i < s.size() &&
           !detail::needsEscapeCheck(static_cast<unsigned char>(s[i]))) {
      ++i;
    }
    p = std::copy(s.data(), s.data() + i, p);
    if (i < s.size()) {
      constexpr std::size_t kBlock = 4096;
      commit(p);
      while (i < s.size()) {
        const std::size_t stop = std::min(s.size(), i + kBlock);
        commit(detail::escapeRun(room(6 * (stop - i) + 4), s, i, stop));
      }
      p = room(1 + tail);
    }
    *p++ = '"';
    return p;
  }

  Writer& open(char bracket) {
    char* p = separate(room(separatorRoom() + 1));
    *p++ = bracket;
    commit(p);
    hasItems_.push_back(0);
    return *this;
  }

  Writer& close(char bracket) {
    const bool hadItems = hasItems_.back() != 0;
    hasItems_.pop_back();
    char* p = room(separatorRoom());
    // Empty containers stay "[]" / "{}".
    if (hadItems && pretty_) p = newlineAt(p, hasItems_.size());
    *p++ = bracket;
    commit(p);
    return done();
  }

  /// After a complete value: a chunk boundary, if one is due.
  Writer& done() {
    if (out_ != nullptr && !hasItems_.empty() && len_ >= kChunkBytes) {
      (*out_)(std::string_view(buf_.data(), len_));
      len_ = 0;
    }
    return *this;
  }

  std::string buf_;
  std::size_t len_ = 0;
  bool pretty_;
  bool afterKey_ = false;
  const ChunkOut* out_;
  /// One flag per open container: has it received a member yet?  A
  /// string, so documents nested up to its inline capacity (15 levels)
  /// allocate nothing for it.
  std::string hasItems_;
};

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
  std::string dump() const;

  /// Indented multi-line serialization (2 spaces per level, final
  /// newline).
  std::string pretty() const;

  /// pretty(), streamed: `out` is called with consecutive chunks whose
  /// concatenation is exactly pretty() (Writer's chunking).
  void prettyTo(const ChunkOut& out) const;

 private:
  Object& mutableObject() {
    if (!isObject()) {
      throw support::Error("json: set() on a non-object value");
    }
    return std::get<Object>(data_);
  }

  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string, Array,
               Object>
      data_;
};

inline Writer& Writer::value(const Value& v) {
  if (v.isNull()) return value(nullptr);
  if (v.isBool()) return value(v.asBool());
  if (v.isInt()) return value(v.asInt());
  if (v.isDouble()) return value(v.asDouble());
  if (v.isString()) return value(v.asString());
  if (v.isArray()) {
    beginArray();
    for (const Value& item : v.items()) value(item);
    return endArray();
  }
  beginObject();
  for (const auto& [name, member] : v.members()) key(name).value(member);
  return endObject();
}

inline std::string Value::dump() const {
  return Writer(Layout::Compact).value(*this).finish();
}

inline std::string Value::pretty() const {
  return Writer(Layout::Pretty).value(*this).finish();
}

inline void Value::prettyTo(const ChunkOut& out) const {
  Writer(Layout::Pretty, &out).value(*this).finish();
}

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
    failAt(why, line_, column_);
  }
  [[noreturn]] static void failAt(const std::string& why, int line,
                                  int column) {
    throw ParseError("json: " + why, line, column);
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
      const int line = line_;
      const int column = column_;
      std::string key = parseString();
      // RFC 8259 leaves duplicate names to the reader; a silent "last
      // one wins" would let {"command":"analyze","command":"map"} run
      // map, so a repeated name is an error at its position.
      if (obj.find(key) != nullptr) {
        failAt("duplicate member name \"" + key + "\"", line, column);
      }
      skipWs();
      expect(':', "object member");
      skipWs();
      obj.members().emplace_back(std::move(key), parseValue(depth + 1));
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
/// garbage, a duplicate member name, nesting beyond
/// detail::Parser::kMaxDepth).  Numbers without
/// fraction/exponent parse as int64 (falling back to double outside the
/// int64 range); \uXXXX escapes decode to UTF-8, surrogate pairs
/// included.
inline Value parse(std::string_view text) { return detail::Parser(text).parse(); }

/// What `report.write(w, args...)` writes, parsed back into a Value: the
/// adapter behind the remaining `toJson()` members, for callers that
/// inspect a report (tests, the benchmark helper).  Nothing prints
/// through it.
template <typename Report, typename... Args>
Value toValue(const Report& report, const Args&... args) {
  Writer w(Layout::Compact);
  report.write(w, args...);
  return parse(w.finish());
}

/// toValue() of a report whose write() puts the members of one object
/// (the api responses, whose members go straight into the envelope).
template <typename Report, typename... Args>
Value toObject(const Report& report, const Args&... args) {
  Writer w(Layout::Compact);
  report.write(w.beginObject(), args...);
  return parse(w.endObject().finish());
}

}  // namespace tpdf::support::json
