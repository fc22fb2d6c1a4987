// Streaming-reader parity suite.
//
// The .tpdf reader was rewritten from a whole-string lexer to a
// streaming lexer with a bounded lookahead window.  This suite pins the
// rewrite to the legacy behavior three ways:
//
//  1. every committed examples/graphs/**/*.tpdf parses byte-identically
//     (writeGraph output) through the legacy oracle, the new string
//     overload, and the istream overload at several window sizes
//     including the 16-byte minimum;
//  2. a seeded mutation-fuzz corpus must produce the *same outcome* in
//     every mode — same ParseError message/line/column, same ModelError
//     text, or the same successfully parsed graph;
//  3. targeted diagnostics keep their exact positions across modes.
//
// The oracle below is a verbatim copy of the retired whole-string lexer
// (kept in this test only), so parity is checked against real legacy
// code rather than against the rewrite itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "io/format.hpp"
#include "support/error.hpp"
#include "support/prng.hpp"

namespace tpdf::io {
namespace {

using graph::Graph;
using graph::PortKind;
using graph::RateSeq;

// ---- Legacy oracle: the pre-streaming whole-string reader ------------

namespace legacy {

struct Lexer {
  const std::string& text;
  std::size_t pos = 0;
  int line = 1;
  int column = 1;

  explicit Lexer(const std::string& t) : text(t) {}

  [[noreturn]] void fail(const std::string& message) const {
    throw support::ParseError(message, line, column);
  }

  void advance() {
    if (text[pos] == '\n') {
      ++line;
      column = 1;
    } else {
      ++column;
    }
    ++pos;
  }

  void skipSpaceAndComments() {
    while (pos < text.size()) {
      const char c = text[pos];
      if (std::isspace(static_cast<unsigned char>(c))) {
        advance();
      } else if (c == '#') {
        while (pos < text.size() && text[pos] != '\n') advance();
      } else {
        break;
      }
    }
  }

  bool atEnd() {
    skipSpaceAndComments();
    return pos >= text.size();
  }

  char peek() {
    skipSpaceAndComments();
    return pos < text.size() ? text[pos] : '\0';
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
    if (pos >= text.size() ||
        (!std::isalpha(static_cast<unsigned char>(text[pos])) &&
         text[pos] != '_')) {
      fail("expected identifier");
    }
    std::string out;
    while (pos < text.size() &&
           (std::isalnum(static_cast<unsigned char>(text[pos])) ||
            text[pos] == '_')) {
      out += text[pos];
      advance();
    }
    return out;
  }

  bool tryKeyword(const std::string& kw) {
    skipSpaceAndComments();
    const std::size_t savedPos = pos;
    const int savedLine = line;
    const int savedColumn = column;
    std::size_t i = 0;
    while (i < kw.size() && pos < text.size() && text[pos] == kw[i]) {
      advance();
      ++i;
    }
    const bool boundary =
        pos >= text.size() ||
        (!std::isalnum(static_cast<unsigned char>(text[pos])) &&
         text[pos] != '_');
    if (i == kw.size() && boundary) return true;
    pos = savedPos;
    line = savedLine;
    column = savedColumn;
    return false;
  }

  void expectKeyword(const std::string& kw) {
    if (!tryKeyword(kw)) fail("expected keyword '" + kw + "'");
  }

  std::int64_t integer() {
    skipSpaceAndComments();
    bool negative = false;
    if (pos < text.size() && text[pos] == '-') {
      negative = true;
      advance();
    }
    if (pos >= text.size() ||
        !std::isdigit(static_cast<unsigned char>(text[pos]))) {
      fail("expected integer");
    }
    std::int64_t value = 0;
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    while (pos < text.size() &&
           std::isdigit(static_cast<unsigned char>(text[pos]))) {
      const std::int64_t digit = text[pos] - '0';
      if (value > (kMax - digit) / 10) fail("integer literal overflows");
      value = value * 10 + digit;
      advance();
    }
    return negative ? -value : value;
  }

  double real() {
    skipSpaceAndComments();
    std::string buf;
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) ||
            text[pos] == '.' || text[pos] == '-' || text[pos] == 'e' ||
            text[pos] == 'E' || text[pos] == '+')) {
      buf += text[pos];
      advance();
    }
    if (buf.empty()) fail("expected number");
    try {
      return std::stod(buf);
    } catch (const std::exception&) {
      fail("malformed number '" + buf + "'");
    }
  }

  std::string rateSpec() {
    skipSpaceAndComments();
    std::string out;
    if (peek() == '[') {
      constexpr int kMaxBracketDepth = 16;
      int depth = 0;
      do {
        if (pos >= text.size()) fail("unterminated rate list");
        const char c = text[pos];
        if (c == '[' && ++depth > kMaxBracketDepth) {
          fail("rate list nested too deeply (limit " +
               std::to_string(kMaxBracketDepth) + ")");
        }
        if (c == ']') --depth;
        out += c;
        advance();
      } while (depth > 0);
      return out;
    }
    while (pos < text.size() && text[pos] != ';' && text[pos] != '\n') {
      if (std::isspace(static_cast<unsigned char>(text[pos])) &&
          text.compare(pos + 1, 8, "priority") == 0) {
        break;
      }
      out += text[pos];
      advance();
    }
    if (out.empty()) fail("expected rate specification");
    return out;
  }
};

void parsePortClause(Lexer& lex, Graph& g, graph::ActorId actor,
                     PortKind kind) {
  const std::string name = lex.identifier();
  lex.expectKeyword("rates");
  lex.skipSpaceAndComments();
  const int specLine = lex.line;
  const int specColumn = lex.column;
  const std::string rates = lex.rateSpec();
  graph::RateSeq seq;
  try {
    seq = RateSeq::parse(rates);
  } catch (const support::ParseError& e) {
    const int line = specLine + e.line() - 1;
    const int column = e.line() == 1 ? specColumn + e.column() - 1
                                     : e.column();
    throw support::ParseError(e.message(), line, column);
  }
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

Graph readGraph(const std::string& text) {
  Lexer lex(text);
  lex.expectKeyword("graph");
  Graph g(lex.identifier());
  lex.expect('{');

  while (!lex.tryConsume('}')) {
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

      const auto src = g.findPort(fromActor + "." + fromPort);
      const auto dst = g.findPort(toActor + "." + toPort);
      if (!src) lex.fail("unknown port '" + fromActor + "." + fromPort + "'");
      if (!dst) lex.fail("unknown port '" + toActor + "." + toPort + "'");
      g.addChannel(name, *src, *dst, initial);
    } else {
      lex.fail("expected 'param', 'kernel', 'control', 'channel' or '}'");
    }
  }
  if (!lex.atEnd()) lex.fail("unexpected trailing input");

  g.validate();
  return g;
}

}  // namespace legacy

// ---- Harness ---------------------------------------------------------

/// Window sizes for the istream overload: the enforced 16-byte minimum,
/// a prime just above it (maximally misaligned refills), and the default.
constexpr std::size_t kWindows[] = {16, 17, 61, 65536};

std::vector<std::filesystem::path> corpusFiles() {
  const std::filesystem::path root =
      std::filesystem::path(TPDF_SOURCE_DIR) / "examples" / "graphs";
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(root)) {
    if (entry.is_regular_file() && entry.path().extension() == ".tpdf") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string slurp(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// The observable result of a parse attempt, in any mode: either the
/// canonical rendering of the graph, or the exact error.
struct Outcome {
  enum class Kind { Ok, Parse, Model, Other } kind = Kind::Ok;
  std::string rendered;  // writeGraph() when Ok
  std::string message;   // e.message() for Parse, what() otherwise
  int line = 0;
  int column = 0;

  bool operator==(const Outcome& o) const {
    return kind == o.kind && rendered == o.rendered && message == o.message &&
           line == o.line && column == o.column;
  }
};

std::ostream& operator<<(std::ostream& os, const Outcome& o) {
  switch (o.kind) {
    case Outcome::Kind::Ok:
      return os << "Ok(" << o.rendered.size() << " bytes)";
    case Outcome::Kind::Parse:
      return os << "ParseError(\"" << o.message << "\" @" << o.line << ":"
                << o.column << ")";
    case Outcome::Kind::Model:
      return os << "ModelError(\"" << o.message << "\")";
    case Outcome::Kind::Other:
      return os << "Error(\"" << o.message << "\")";
  }
  return os;
}

template <typename Parse>
Outcome runParse(Parse&& parse) {
  Outcome out;
  try {
    out.rendered = writeGraph(parse());
  } catch (const support::ParseError& e) {
    out.kind = Outcome::Kind::Parse;
    out.message = e.message();
    out.line = e.line();
    out.column = e.column();
  } catch (const support::ModelError& e) {
    out.kind = Outcome::Kind::Model;
    out.message = e.what();
  } catch (const support::Error& e) {
    out.kind = Outcome::Kind::Other;
    out.message = e.what();
  }
  return out;
}

Outcome legacyOutcome(const std::string& text) {
  return runParse([&] { return legacy::readGraph(text); });
}

Outcome stringOutcome(const std::string& text) {
  return runParse([&] { return readGraph(text); });
}

Outcome streamOutcome(const std::string& text, std::size_t window) {
  return runParse([&] {
    std::istringstream in(text);
    return readGraph(in, window);
  });
}

// ---- 1. Committed corpus round-trips byte-identically ----------------

TEST(StreamingReader, CorpusIsPresent) {
  // 4 top-level documents + 16 scenario documents; a shrinking corpus
  // would silently weaken every test below.
  EXPECT_GE(corpusFiles().size(), 20u);
}

TEST(StreamingReader, CorpusParityAcrossAllModesAndWindows) {
  for (const auto& path : corpusFiles()) {
    SCOPED_TRACE(path.filename().string());
    const std::string text = slurp(path);
    const Outcome oracle = legacyOutcome(text);
    ASSERT_EQ(oracle.kind, Outcome::Kind::Ok)
        << "committed example must parse: " << oracle;
    EXPECT_EQ(stringOutcome(text), oracle);
    for (const std::size_t window : kWindows) {
      EXPECT_EQ(streamOutcome(text, window), oracle) << "window " << window;
    }
    // readGraphFile streams straight from disk.
    const Graph fromFile = readGraphFile(path.string());
    EXPECT_EQ(writeGraph(fromFile), oracle.rendered);
  }
}

TEST(StreamingReader, WriterRoundTripSurvivesStreaming) {
  for (const auto& path : corpusFiles()) {
    SCOPED_TRACE(path.filename().string());
    const std::string text = slurp(path);
    std::istringstream in(text);
    const Graph g = readGraph(in, 16);
    const std::string rendered = writeGraph(g);
    std::istringstream again(rendered);
    EXPECT_EQ(writeGraph(readGraph(again, 16)), rendered);
  }
}

/// A generated multirate chain of `actors` stages in the shapes the
/// corpus only samples: comments between and inside clauses, CSDF lists
/// (some spread over lines), bare parametric rates with and without a
/// `priority` clause, priorities on bracketed lists, exec times, initial
/// tokens and CRLF line ends.
std::string generatedChain(int actors, std::uint64_t seed) {
  support::Prng rng(seed);
  std::string doc = "# generated multirate chain\ngraph chain {\n  param p;\n";
  const auto rates = [&](int phases) {
    std::string out = "[";
    for (int k = 0; k < phases; ++k) {
      out += (k ? (rng.chance(0.2) ? ",\n      " : ", ") : "") +
             std::to_string(rng.uniform(0, 4));
    }
    return out + "]";
  };
  for (int i = 0; i < actors; ++i) {
    const std::string k = std::to_string(i);
    const int phases = static_cast<int>(rng.uniform(1, 3));
    doc += "  kernel K" + k + " {  # stage " + k + "\n";
    if (i > 0) {
      doc += "    in i rates " + rates(phases);
      if (rng.chance(0.3)) {
        doc += " priority " + std::to_string(rng.uniform(0, 9));
      }
      doc += ";\n";
    }
    if (i + 1 < actors) {
      if (rng.chance(0.2)) {
        doc += "    out o rates " + std::to_string(rng.uniform(1, 3)) + "p" +
               (rng.chance(0.5) ? " priority 2" : "") + ";\n";
      } else {
        doc += "    out o rates # the producer side\n      " + rates(phases) +
               ";\n";
      }
    }
    if (rng.chance(0.1)) doc += "    exec 1.5 2;\n";
    doc += rng.chance(0.1) ? "  }\r\n" : "  }\n";
  }
  for (int i = 0; i + 1 < actors; ++i) {
    const std::string k = std::to_string(i);
    doc += "  channel e" + k + " from K" + k + ".o to K" +
           std::to_string(i + 1) + ".i";
    if (rng.chance(0.2)) doc += " init " + std::to_string(rng.uniform(1, 5));
    doc += rng.chance(0.1) ? ";  # edge\n" : ";\n";
  }
  return doc + "}\n";
}

TEST(StreamingReader, GeneratedMultirateChainParity) {
  const std::string text = generatedChain(10000, 0x7D0F);
  const Outcome oracle = legacyOutcome(text);
  ASSERT_EQ(oracle.kind, Outcome::Kind::Ok) << oracle;
  EXPECT_EQ(stringOutcome(text), oracle);
  EXPECT_EQ(streamOutcome(text, 16), oracle);
  EXPECT_EQ(streamOutcome(text, 65536), oracle);
}

TEST(StreamingReader, GeneratedChainMutationParity) {
  // Single-character damage to a small generated chain: every outcome,
  // diagnostics and their positions included, matches the legacy lexer.
  const std::string original = generatedChain(40, 0x51AB);
  support::Prng prng(0xA11CE);
  const std::string palette = "{}[];.,#\n\r\t apriorty0123456789_-*";
  for (int trial = 0; trial < 300; ++trial) {
    std::string text = original;
    const std::size_t at = static_cast<std::size_t>(
        prng.uniform(0, static_cast<std::int64_t>(text.size()) - 1));
    const char c = palette[static_cast<std::size_t>(
        prng.uniform(0, static_cast<std::int64_t>(palette.size()) - 1))];
    switch (prng.uniform(0, 2)) {
      case 0:
        text[at] = c;
        break;
      case 1:
        text.insert(text.begin() + static_cast<std::ptrdiff_t>(at), c);
        break;
      default:
        text.erase(at, 1);
        break;
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    const Outcome oracle = legacyOutcome(text);
    EXPECT_EQ(stringOutcome(text), oracle);
    EXPECT_EQ(streamOutcome(text, 16), oracle);
    EXPECT_EQ(streamOutcome(text, 61), oracle);
  }
}

// ---- 2. Mutation fuzz: identical diagnostics in every mode -----------

TEST(StreamingReader, MutationFuzzOutcomeParity) {
  const std::vector<std::filesystem::path> files = corpusFiles();
  support::Prng prng(0x5EEDF00D);
  // Characters that steer mutations toward grammar-relevant breakage.
  const std::string palette = "{}[];.#\n apriorty0123456789_-*";
  int checked = 0;
  for (const auto& path : files) {
    const std::string original = slurp(path);
    for (int trial = 0; trial < 24; ++trial) {
      std::string text = original;
      const std::int64_t op = prng.uniform(0, 3);
      const std::size_t at = static_cast<std::size_t>(
          prng.uniform(0, static_cast<std::int64_t>(text.size()) - 1));
      const char c = palette[static_cast<std::size_t>(
          prng.uniform(0, static_cast<std::int64_t>(palette.size()) - 1))];
      switch (op) {
        case 0:  // truncate
          text.resize(at);
          break;
        case 1:  // replace one character
          text[at] = c;
          break;
        case 2:  // insert one character
          text.insert(text.begin() + static_cast<std::ptrdiff_t>(at), c);
          break;
        default:  // delete one character
          text.erase(at, 1);
          break;
      }
      SCOPED_TRACE(path.filename().string() + " trial " +
                   std::to_string(trial));
      const Outcome oracle = legacyOutcome(text);
      EXPECT_EQ(stringOutcome(text), oracle);
      EXPECT_EQ(streamOutcome(text, 16), oracle);
      EXPECT_EQ(streamOutcome(text, 61), oracle);
      ++checked;
    }
  }
  EXPECT_GE(checked, 400);
}

// ---- 3. Targeted diagnostics keep exact positions --------------------

void expectSamePosition(const std::string& text) {
  const Outcome oracle = legacyOutcome(text);
  ASSERT_NE(oracle.kind, Outcome::Kind::Ok) << "fixture should not parse";
  EXPECT_EQ(stringOutcome(text), oracle);
  EXPECT_EQ(streamOutcome(text, 16), oracle);
}

TEST(StreamingReader, DiagnosticPositionsMatchAcrossModes) {
  // Error far from the start, on a later line.
  expectSamePosition(
      "graph g {\n"
      "  kernel A { out o rates [1]; }\n"
      "  kernel B { in i rates ; }\n"
      "}\n");
  // Unterminated rate list at EOF.
  expectSamePosition("graph g {\n  kernel A { out o rates [1, 2");
  // RateSeq::parse position remap inside a bracketed spec.
  expectSamePosition(
      "graph g {\n"
      "  kernel A { out o rates [1, ^]; }\n"
      "}\n");
  // Unknown port in a channel clause.
  expectSamePosition(
      "graph g {\n"
      "  kernel A { out o rates [1]; }\n"
      "  kernel B { in i rates [1]; }\n"
      "  channel e from A.nope to B.i;\n"
      "}\n");
  // Trailing garbage after the closing brace.
  expectSamePosition("graph g { }\nextra");
  // Integer overflow in init token count.
  expectSamePosition(
      "graph g {\n"
      "  kernel A { out o rates [1]; }\n"
      "  kernel B { in i rates [1]; }\n"
      "  channel e from A.o to B.i init 99999999999999999999;\n"
      "}\n");
}

TEST(StreamingReader, BarePriorityBoundaryNeedsMaxLookahead) {
  // The bare-rate "priority" boundary is the grammar's deepest lookahead
  // (9 characters); exercise it right at the 16-byte window minimum,
  // including the near-miss "priorityX" which must NOT terminate the
  // bare expression in either mode.
  const std::string doc =
      "graph g {\n"
      "  param p;\n"
      "  kernel A { out o rates 2*p priority 3; }\n"
      "  kernel B { in i rates 2*p; }\n"
      "  channel e from A.o to B.i;\n"
      "}\n";
  const Outcome oracle = legacyOutcome(doc);
  ASSERT_EQ(oracle.kind, Outcome::Kind::Ok) << oracle;
  EXPECT_EQ(streamOutcome(doc, 16), oracle);

  const std::string nearMiss =
      "graph g {\n"
      "  param priorityX;\n"
      "  kernel A { out o rates 2*priorityX; }\n"
      "  kernel B { in i rates 2*priorityX; }\n"
      "  channel e from A.o to B.i;\n"
      "}\n";
  const Outcome missOracle = legacyOutcome(nearMiss);
  EXPECT_EQ(streamOutcome(nearMiss, 16), missOracle);
}

TEST(StreamingReader, TruncationAtEveryPrefixMatchesLegacy) {
  // Exhaustive prefix sweep over one small document: every possible EOF
  // cut must produce the same outcome in string and stream mode.
  const std::string doc = slurp(corpusFiles().front());
  for (std::size_t cut = 0; cut <= doc.size(); ++cut) {
    const std::string text = doc.substr(0, cut);
    const Outcome oracle = legacyOutcome(text);
    ASSERT_EQ(stringOutcome(text), oracle) << "cut " << cut;
    ASSERT_EQ(streamOutcome(text, 16), oracle) << "cut " << cut;
  }
}

}  // namespace
}  // namespace tpdf::io
