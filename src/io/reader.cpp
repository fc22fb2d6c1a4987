// Recursive-descent reader for the .tpdf format (see format.hpp).
//
// The lexer tokenizes through a Source: either a whole in-memory buffer
// (readGraph(string)) or a bounded sliding window over an std::istream
// (readGraph(istream) / readGraphFile) that never materializes the
// document.  The grammar needs at most ~9 characters of lookahead (the
// "priority" clause boundary inside a bare rate expression), so the
// window can be tiny; both modes run the identical lexer code and report
// identical line/column diagnostics.  The lexer scans the window's
// buffered runs in place, so a rate specification reaches RateSeq::parse
// as a view, copied only when it crosses a refill.
#include <algorithm>
#include <array>
#include <fstream>
#include <istream>
#include <limits>
#include <string>
#include <string_view>
#include <utility>

#include "io/format.hpp"
#include "support/error.hpp"

namespace tpdf::io {

using graph::Graph;
using graph::PortKind;
using graph::RateSeq;

namespace {

/// Character supply with bounded lookahead.  Buffer mode serves a
/// string_view in place; stream mode keeps a compacted window of unread
/// characters and refills it from the stream on demand.
class Source {
 public:
  explicit Source(std::string_view text)
      : data_(text.data()), size_(text.size()) {}

  Source(std::istream& in, std::size_t chunkBytes)
      : in_(&in), chunk_(std::max<std::size_t>(chunkBytes, 16)) {}

  /// Makes at least `k` unread characters addressable (or hits EOF);
  /// true when at(0..k-1) are valid.
  bool ensure(std::size_t k) {
    if (cur_ + k <= size_) return true;
    if (in_ == nullptr || eof_) return false;
    refill(k);
    return cur_ + k <= size_;
  }

  /// The i-th unread character; requires ensure(i + 1).
  char at(std::size_t i) const { return data_[cur_ + i]; }

  /// The unread characters already addressable (no refill).
  std::string_view buffered() const {
    return {data_ + cur_, size_ - cur_};
  }

  void consume(std::size_t n = 1) { cur_ += n; }

 private:
  void refill(std::size_t need) {
    // Compact: drop everything already consumed (at most lookahead-many
    // characters remain, so this is a handful of bytes per refill).
    buf_.erase(0, cur_);
    cur_ = 0;
    while (buf_.size() < need && !eof_) {
      const std::size_t old = buf_.size();
      const std::size_t want = std::max(chunk_, need - old);
      buf_.resize(old + want);
      in_->read(buf_.data() + old, static_cast<std::streamsize>(want));
      const std::size_t got = static_cast<std::size_t>(in_->gcount());
      buf_.resize(old + got);
      if (in_->bad()) {
        throw support::Error("I/O error while reading .tpdf input");
      }
      if (got < want) eof_ = true;
    }
    data_ = buf_.data();
    size_ = buf_.size();
  }

  const char* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t cur_ = 0;

  std::istream* in_ = nullptr;
  std::size_t chunk_ = 0;
  bool eof_ = false;
  std::string buf_;
};

// Character classes, as the C locale's isspace/isalpha/isalnum/isdigit
// define them (the reader never depends on the global locale).
enum : unsigned char {
  kSpace = 1,
  kIdentStart = 2,
  kIdentChar = 4,
  kDigit = 8,
};

constexpr std::array<unsigned char, 256> kCharClass = [] {
  std::array<unsigned char, 256> t{};
  for (const char c : std::string_view(" \t\n\v\f\r")) {
    t[static_cast<unsigned char>(c)] = kSpace;
  }
  for (int c = 'a'; c <= 'z'; ++c) t[c] = kIdentStart | kIdentChar;
  for (int c = 'A'; c <= 'Z'; ++c) t[c] = kIdentStart | kIdentChar;
  t['_'] = kIdentStart | kIdentChar;
  for (int c = '0'; c <= '9'; ++c) t[c] = kIdentChar | kDigit;
  return t;
}();

bool hasClass(char c, unsigned char cls) {
  return (kCharClass[static_cast<unsigned char>(c)] & cls) != 0;
}

// Every scanning loop below works on Source::buffered() runs: it walks
// the run in place, updates line/column as it goes and consumes the run
// (or the part it took) at once, refilling only when the run is used up.
struct Lexer {
  Source& src;
  int line = 1;
  int column = 1;
  // First token of the declaration or clause being read: where a
  // ModelError raised by its Graph call is reported.
  int clauseLine = 1;
  int clauseColumn = 1;
  // Holds a rate specification that crossed a refill of the window.
  std::string specBuffer;

  explicit Lexer(Source& s) : src(s) {}

  void startClause() {
    clauseLine = line;
    clauseColumn = column;
  }

  [[noreturn]] void fail(const std::string& message) const {
    throw support::ParseError(message, line, column);
  }

  bool eof() { return !src.ensure(1); }
  char cur() { return src.at(0); }

  /// Moves line/column over character `c` (which the caller consumes).
  void step(char c) {
    if (c == '\n') {
      ++line;
      column = 1;
    } else {
      ++column;
    }
  }

  void advance() {
    step(src.at(0));
    src.consume();
  }

  void skipSpaceAndComments() {
    bool inComment = false;  // a comment runs up to (not over) its '\n'
    while (!eof()) {
      const std::string_view run = src.buffered();
      std::size_t n = 0;
      for (; n < run.size(); ++n) {
        const char c = run[n];
        if (c == '\n') {
          inComment = false;
        } else if (!inComment && !hasClass(c, kSpace)) {
          if (c != '#') break;
          inComment = true;
        }
        step(c);
      }
      src.consume(n);
      if (n < run.size()) return;
    }
  }

  bool atEnd() {
    skipSpaceAndComments();
    return eof();
  }

  char peek() {
    skipSpaceAndComments();
    return eof() ? '\0' : cur();
  }

  bool tryConsume(char c) {
    if (peek() != c) return false;
    advance();
    return true;
  }

  void expect(char c) {
    if (!tryConsume(c)) {
      fail(std::string("expected '") + c + "'");
    }
  }

  std::string identifier() {
    skipSpaceAndComments();
    if (eof() || !hasClass(cur(), kIdentStart)) fail("expected identifier");
    // An identifier holds no newline, so only the column moves.
    std::string out;
    while (!eof()) {
      const std::string_view run = src.buffered();
      std::size_t n = 0;
      while (n < run.size() && hasClass(run[n], kIdentChar)) ++n;
      out.append(run.data(), n);
      column += static_cast<int>(n);
      src.consume(n);
      if (n < run.size()) break;
    }
    return out;
  }

  /// Matches `kw` followed by a non-identifier boundary, consuming it on
  /// success.  Pure lookahead: nothing is consumed on a miss, so no
  /// position rollback is needed (the property that lets the streaming
  /// window stay tiny).
  bool tryKeyword(std::string_view kw) {
    skipSpaceAndComments();
    std::string_view run = src.buffered();
    if (run.size() <= kw.size()) {
      src.ensure(kw.size() + 1);  // best effort; EOF may cut it short
      run = src.buffered();
    }
    if (!run.starts_with(kw)) return false;
    if (run.size() > kw.size() && hasClass(run[kw.size()], kIdentChar)) {
      return false;
    }
    column += static_cast<int>(kw.size());  // keywords hold no newline
    src.consume(kw.size());
    return true;
  }

  void expectKeyword(std::string_view kw) {
    if (!tryKeyword(kw)) fail("expected keyword '" + std::string(kw) + "'");
  }

  std::int64_t integer() {
    skipSpaceAndComments();
    bool negative = false;
    if (!eof() && cur() == '-') {
      negative = true;
      advance();
    }
    if (eof() || !hasClass(cur(), kDigit)) fail("expected integer");
    std::int64_t value = 0;
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    while (!eof()) {
      const std::string_view run = src.buffered();
      std::size_t n = 0;
      for (; n < run.size() && hasClass(run[n], kDigit); ++n) {
        const std::int64_t digit = run[n] - '0';
        if (value > (kMax - digit) / 10) {
          column += static_cast<int>(n);
          fail("integer literal overflows");
        }
        value = value * 10 + digit;
      }
      column += static_cast<int>(n);
      src.consume(n);
      if (n < run.size()) break;
    }
    return negative ? -value : value;
  }

  double real() {
    skipSpaceAndComments();
    const int startLine = line;
    const int startColumn = column;
    std::string buf;
    while (!eof() && (hasClass(cur(), kDigit) || cur() == '.' || cur() == '-' ||
                      cur() == 'e' || cur() == 'E' || cur() == '+')) {
      buf += cur();
      advance();
    }
    if (buf.empty()) fail("expected number");
    // std::stod accepts the longest number prefix; the token must be one
    // number as a whole ("1-2" or "3e5e7" is not).
    std::size_t used = 0;
    double value = 0;
    try {
      value = std::stod(buf, &used);
    } catch (const std::exception&) {
      used = 0;  // no number at all, or out of range
    }
    if (used != buf.size()) {
      throw support::ParseError("malformed number '" + buf + "'", startLine,
                                startColumn);
    }
    return value;
  }

  /// Reads a rate specification: either a bracketed list "[...]" or a
  /// bare expression up to the next ';' / keyword boundary.  The view
  /// points into the window (or into specBuffer when the specification
  /// crossed a refill) and is valid until the next read.
  std::string_view rateSpec() {
    const bool bracketed = peek() == '[';  // skips space and comments
    specBuffer.clear();
    // The characters taken from the current run so far; moved into
    // specBuffer (and consumed) whenever the window must be refilled.
    std::string_view run = src.buffered();
    std::size_t n = 0;
    const auto flush = [&] {
      specBuffer.append(run.data(), n);
      src.consume(n);
      n = 0;
    };
    const auto result = [&]() -> std::string_view {
      src.consume(n);
      if (specBuffer.empty()) return run.substr(0, n);
      specBuffer.append(run.data(), n);
      return specBuffer;
    };
    if (bracketed) {
      // Brackets nest one level in well-formed specs ("[2 p [1 0]^3]" is
      // not a thing; nesting comes only from expressions).  Cap the
      // depth so adversarially deep "[[[[…" input fails here with a
      // position instead of feeding an enormous spec to RateSeq::parse.
      constexpr int kMaxBracketDepth = 16;
      int depth = 0;
      while (true) {
        if (n == run.size()) {
          flush();
          if (eof()) fail("unterminated rate list");
          run = src.buffered();
        }
        const char c = run[n];
        if (c == '[' && ++depth > kMaxBracketDepth) {
          fail("rate list nested too deeply (limit " +
               std::to_string(kMaxBracketDepth) + ")");
        }
        step(c);
        ++n;
        if (c == ']' && --depth == 0) return result();
      }
    }
    static constexpr std::string_view kPriority = "priority";
    while (true) {
      if (n == run.size()) {
        flush();
        if (eof()) break;
        run = src.buffered();
      }
      const char c = run[n];
      if (c == ';' || c == '\n') break;
      // A bare expression ends where a trailing "priority" clause starts.
      if (hasClass(c, kSpace)) {
        if (run.size() - n <= kPriority.size()) {
          flush();
          src.ensure(kPriority.size() + 1);  // best effort, as at EOF
          run = src.buffered();
        }
        if (run.size() - n > kPriority.size() &&
            run.substr(n + 1, kPriority.size()) == kPriority) {
          break;
        }
      }
      ++column;  // a bare expression holds no newline
      ++n;
    }
    const std::string_view spec = result();
    if (spec.empty()) fail("expected rate specification");
    return spec;
  }
};

void parsePortClause(Lexer& lex, Graph& g, graph::ActorId actor,
                     PortKind kind) {
  const std::string name = lex.identifier();
  lex.expectKeyword("rates");
  // Record where the rate specification starts: RateSeq::parse reports
  // positions relative to the spec text, and diagnostics must point at
  // the real location in the .tpdf file, not "line 1" of the expression.
  lex.skipSpaceAndComments();
  const int specLine = lex.line;
  const int specColumn = lex.column;
  const std::string_view spec = lex.rateSpec();
  RateSeq seq = [&] {
    try {
      return RateSeq::parse(spec);
    } catch (const support::ParseError& e) {
      const int line = specLine + e.line() - 1;
      const int column = e.line() == 1 ? specColumn + e.column() - 1
                                       : e.column();
      throw support::ParseError(e.message(), line, column);
    }
  }();
  int priority = 0;
  if (lex.tryKeyword("priority")) {
    priority = static_cast<int>(lex.integer());
  }
  lex.expect(';');
  g.addPort(actor, name, kind, std::move(seq), priority);
}

void parseActorBody(Lexer& lex, Graph& g, graph::ActorId actor) {
  lex.expect('{');
  while (!lex.tryConsume('}')) {
    lex.startClause();
    if (lex.tryKeyword("in")) {
      parsePortClause(lex, g, actor, PortKind::DataIn);
    } else if (lex.tryKeyword("out")) {
      parsePortClause(lex, g, actor, PortKind::DataOut);
    } else if (lex.tryKeyword("ctl_in")) {
      parsePortClause(lex, g, actor, PortKind::ControlIn);
    } else if (lex.tryKeyword("ctl_out")) {
      parsePortClause(lex, g, actor, PortKind::ControlOut);
    } else if (lex.tryKeyword("exec")) {
      std::vector<double> times;
      while (lex.peek() != ';') times.push_back(lex.real());
      lex.expect(';');
      g.setExecTime(actor, times);
    } else {
      lex.fail("expected port declaration, 'exec' or '}'");
    }
  }
}

void parseDeclarations(Lexer& lex, Graph& g) {
  while (!lex.tryConsume('}')) {
    lex.startClause();
    if (lex.tryKeyword("param")) {
      g.addParam(lex.identifier());
      lex.expect(';');
    } else if (lex.tryKeyword("kernel")) {
      const graph::ActorId a =
          g.addActor(lex.identifier(), graph::ActorKind::Kernel);
      parseActorBody(lex, g, a);
    } else if (lex.tryKeyword("control")) {
      const graph::ActorId a =
          g.addActor(lex.identifier(), graph::ActorKind::Control);
      parseActorBody(lex, g, a);
    } else if (lex.tryKeyword("channel")) {
      const std::string name = lex.identifier();
      lex.expectKeyword("from");
      const std::string fromActor = lex.identifier();
      lex.expect('.');
      const std::string fromPort = lex.identifier();
      lex.expectKeyword("to");
      const std::string toActor = lex.identifier();
      lex.expect('.');
      const std::string toPort = lex.identifier();
      std::int64_t initial = 0;
      if (lex.tryKeyword("init")) initial = lex.integer();
      lex.expect(';');

      const auto src = g.findPort(fromActor, fromPort);
      const auto dst = g.findPort(toActor, toPort);
      if (!src) lex.fail("unknown port '" + fromActor + "." + fromPort + "'");
      if (!dst) lex.fail("unknown port '" + toActor + "." + toPort + "'");
      g.addChannel(name, *src, *dst, initial);
    } else {
      lex.fail("expected 'param', 'kernel', 'control', 'channel' or '}'");
    }
  }
}

Graph parseDocument(Lexer& lex) {
  lex.expectKeyword("graph");
  Graph g(lex.identifier());
  lex.expect('{');
  try {
    parseDeclarations(lex, g);
  } catch (const support::ModelError& e) {
    // The lexer and the rate parser raise ParseError: this came from the
    // Graph call of the clause being read.
    throw support::ModelError(e.what(), lex.clauseLine, lex.clauseColumn);
  }
  if (!lex.atEnd()) lex.fail("unexpected trailing input");

  g.validate();
  return g;
}

}  // namespace

Graph readGraph(const std::string& text) {
  Source src(std::string_view{text});
  Lexer lex(src);
  return parseDocument(lex);
}

Graph readGraph(std::istream& in, std::size_t bufferBytes) {
  Source src(in, bufferBytes);
  Lexer lex(src);
  return parseDocument(lex);
}

Graph readGraphFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw support::Error("cannot open '" + path + "' for reading");
  }
  return readGraph(in);
}

}  // namespace tpdf::io
