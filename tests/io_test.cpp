#include "io/format.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "apps/edgegraph.hpp"
#include "apps/ofdm.hpp"
#include "apps/papergraphs.hpp"
#include "apps/randomgraphs.hpp"
#include "apps/scenarios.hpp"
#include "csdf/repetition.hpp"
#include "support/error.hpp"
#include "support/prng.hpp"

namespace tpdf::io {
namespace {

using graph::Graph;
using support::ParseError;

void expectGraphsEquivalent(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.actorCount(), b.actorCount());
  ASSERT_EQ(a.channelCount(), b.channelCount());
  ASSERT_EQ(a.params(), b.params());
  for (std::size_t i = 0; i < a.actorCount(); ++i) {
    const graph::ActorId id(static_cast<std::uint32_t>(i));
    EXPECT_EQ(a.actor(id).name, b.actor(id).name);
    EXPECT_EQ(a.actor(id).kind, b.actor(id).kind);
    EXPECT_EQ(a.actor(id).execTime, b.actor(id).execTime);
    ASSERT_EQ(a.actor(id).ports.size(), b.actor(id).ports.size());
    for (std::size_t k = 0; k < a.actor(id).ports.size(); ++k) {
      const graph::Port& pa = a.port(a.actor(id).ports[k]);
      const graph::Port& pb = b.port(b.actor(id).ports[k]);
      EXPECT_EQ(pa.name, pb.name);
      EXPECT_EQ(pa.kind, pb.kind);
      EXPECT_EQ(pa.rates(), pb.rates());
      EXPECT_EQ(pa.priority, pb.priority);
    }
  }
  for (std::size_t i = 0; i < a.channelCount(); ++i) {
    const graph::ChannelId id(static_cast<std::uint32_t>(i));
    EXPECT_EQ(a.channel(id).name, b.channel(id).name);
    EXPECT_EQ(a.channel(id).initialTokens, b.channel(id).initialTokens);
  }
}

TEST(IoRoundTrip, Figure1) {
  const Graph g = apps::fig1Csdf();
  const Graph parsed = readGraph(writeGraph(g));
  expectGraphsEquivalent(g, parsed);
}

TEST(IoRoundTrip, Figure2WithParameters) {
  const Graph g = apps::fig2Tpdf();
  const Graph parsed = readGraph(writeGraph(g));
  expectGraphsEquivalent(g, parsed);
  // Analyses agree on the round-tripped graph.
  EXPECT_EQ(csdf::computeRepetitionVector(parsed).toString(),
            "[2, 2p, p, p, 2p, 2p]");
}

TEST(IoRoundTrip, OfdmGraphs) {
  for (const Graph& g :
       {apps::ofdmCsdfGraph(), apps::ofdmTpdfGraph().graph(),
        apps::ofdmTpdfEffective(apps::Constellation::Qam16)}) {
    expectGraphsEquivalent(g, readGraph(writeGraph(g)));
  }
}

TEST(IoRead, MinimalDocument) {
  const Graph g = readGraph(R"(
    graph mini {
      kernel A { out o rates [2]; }
      kernel B { in i rates [1]; }
      channel e from A.o to B.i init 3;
    }
  )");
  EXPECT_EQ(g.name(), "mini");
  EXPECT_EQ(g.actorCount(), 2u);
  EXPECT_EQ(g.channel(*g.findChannel("e")).initialTokens, 3);
}

TEST(IoRead, CommentsAndWhitespace) {
  const Graph g = readGraph(
      "graph c { # a comment\n"
      "  kernel A { out o rates [1]; } # trailing\n"
      "  kernel B { in i rates [1]; }\n"
      "# full-line comment\n"
      "  channel e from A.o to B.i;\n"
      "}\n");
  EXPECT_EQ(g.actorCount(), 2u);
}

TEST(IoRead, BareRateExpressionWithPriority) {
  const Graph g = readGraph(R"(
    graph bare {
      param p;
      kernel A { out o rates 2p priority 3; }
      kernel B { in i rates [2p]; }
      channel e from A.o to B.i;
    }
  )");
  const graph::Port& port = g.port(*g.findPort("A.o"));
  EXPECT_EQ(port.priority, 3);
  EXPECT_EQ(port.rates().toString(), "[2p]");
}

TEST(IoRead, ExecTimes) {
  const Graph g = readGraph(R"(
    graph t {
      kernel A { out o rates [1,1]; exec 2.5 4; }
      kernel B { in i rates [1]; }
      channel e from A.o to B.i;
    }
  )");
  const auto& et = g.actor(*g.findActor("A")).execTime;
  EXPECT_EQ(std::vector<double>(et.begin(), et.end()),
            (std::vector<double>{2.5, 4.0}));
}

/// A one-kernel-plus-sink document whose kernel A declares `exec`.
std::string withExec(const std::string& exec) {
  return "graph t {\n"
         "  kernel A { out o rates [1]; exec " + exec + "; }\n"
         "  kernel B { in i rates [1]; }\n"
         "  channel e from A.o to B.i;\n"
         "}\n";
}

TEST(IoRead, MalformedExecTimeIsAPositionedParseError) {
  // std::stod would read "1-2" as 1 and "3e5e7" as 300000; the whole
  // token must be one number.
  for (const std::string bad : {"1-2", "3e5e7", "2.5.1", "e4", "-"}) {
    try {
      readGraph(withExec("0.5 " + bad));
      FAIL() << "expected ParseError for exec " << bad;
    } catch (const ParseError& e) {
      EXPECT_EQ(std::string(e.message()), "malformed number '" + bad + "'");
      EXPECT_EQ(e.line(), 2) << bad;
      EXPECT_EQ(e.column(), 40) << bad;  // where the token starts
    }
  }
}

TEST(IoRead, NegativeExecTimeIsAModelError) {
  EXPECT_THROW(readGraph(withExec("-4")), support::ModelError);
  EXPECT_THROW(readGraph(withExec("1 -0.5")), support::ModelError);
  EXPECT_THROW(readGraph(withExec("1e999")), ParseError);  // overflows
  const Graph g = readGraph(withExec("0 1.5e1"));
  const auto& et = g.actor(*g.findActor("A")).execTime;
  EXPECT_EQ(std::vector<double>(et.begin(), et.end()),
            (std::vector<double>{0.0, 15.0}));
}

TEST(IoRead, ControlActorsAndPorts) {
  const Graph g = readGraph(R"(
    graph ctl {
      control C { in i rates [1]; ctl_out o rates [1]; }
      kernel S { out d rates [1]; out t rates [1]; }
      kernel K { in i rates [1]; ctl_in c rates [1]; }
      channel data from S.d to K.i;
      channel trig from S.t to C.i;
      channel cc from C.o to K.c;
    }
  )");
  EXPECT_EQ(g.actor(*g.findActor("C")).kind, graph::ActorKind::Control);
  EXPECT_TRUE(g.isControlChannel(*g.findChannel("cc")));
}

TEST(IoRead, SyntaxErrorsCarryPosition) {
  try {
    readGraph("graph x {\n  kernel A missing_brace\n}");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2);
  }
}

TEST(IoRead, RateExpressionErrorsCarryFilePosition) {
  // A bad rate expression mid-file must point at the real file location,
  // not "line 1, column <offset-in-expression>" (the expression parser's
  // local coordinates).
  const std::string text =
      "graph bad {\n"                        // line 1
      "  param p;\n"                         // line 2
      "  kernel A { out o rates [p]; }\n"    // line 3
      "  kernel B { in i rates [2+*3]; }\n"  // line 4: '*' at column 28
      "  channel e1 from A.o to B.i;\n"
      "}\n";
  try {
    readGraph(text);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 4);
    EXPECT_EQ(e.column(), 28);
    EXPECT_NE(std::string(e.what()).find("unexpected character '*'"),
              std::string::npos);
  }
}

TEST(IoRead, RateErrorInMultiLineListCarriesFilePosition) {
  // Bracketed rate lists may span lines; the position must follow.
  const std::string text =
      "graph bad {\n"                 // line 1
      "  kernel A { out o rates [1,\n"  // line 2
      "    2+*3]; }\n"                // line 3: '*' at column 7
      "  kernel B { in i rates [1]; }\n"
      "  channel e1 from A.o to B.i;\n"
      "}\n";
  try {
    readGraph(text);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3);
    EXPECT_EQ(e.column(), 7);
  }
}

TEST(IoRead, SecondEntryErrorPointsPastTheComma) {
  // Same line, second list entry: the column is spec-relative, shifted
  // by the spec's start column.
  const std::string text =
      "graph bad {\n"
      "  kernel A { out o rates [1, )2]; }\n"  // line 2: ')' at column 30
      "  kernel B { in i rates [1]; }\n"
      "  channel e1 from A.o to B.i;\n"
      "}\n";
  try {
    readGraph(text);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_EQ(e.column(), 30);
  }
}

TEST(IoRead, UnknownPortInChannelRejected) {
  EXPECT_THROW(readGraph(R"(
    graph bad {
      kernel A { out o rates [1]; }
      kernel B { in i rates [1]; }
      channel e from A.nope to B.i;
    }
  )"),
               ParseError);
}

TEST(IoRead, MalformedGraphFailsValidation) {
  // Dangling port: parses fine, fails validate().
  EXPECT_THROW(readGraph(R"(
    graph dangling {
      kernel A { out o rates [1]; }
    }
  )"),
               support::ModelError);
}

/// The ModelError reading `text` throws, from the whole-string reader;
/// the streaming reader must throw the same one.
std::optional<support::ModelError> readModelError(const std::string& text) {
  std::optional<support::ModelError> fromString;
  std::optional<support::ModelError> fromStream;
  try {
    readGraph(text);
  } catch (const support::ModelError& e) {
    fromString = e;
  }
  try {
    std::istringstream in(text);
    readGraph(in, 16);
  } catch (const support::ModelError& e) {
    fromStream = e;
  }
  EXPECT_EQ(fromString.has_value(), fromStream.has_value());
  if (fromString && fromStream) {
    EXPECT_EQ(std::string(fromString->what()), fromStream->what());
    EXPECT_EQ(fromString->line(), fromStream->line());
    EXPECT_EQ(fromString->column(), fromStream->column());
  }
  return fromString;
}

// A model error raised while reading names the first token of the
// declaration or clause whose Graph call threw; the message is the one
// the Graph call raised, with no position in it.
TEST(IoRead, ModelErrorsCarryTheDeclarationPosition) {
  const std::string head =
      "graph g {\n"
      "  param p;\n"
      "  kernel A { out o rates [1]; }\n"
      "  kernel B { in i rates [1]; }\n"
      "  channel e from A.o to B.i;\n";
  struct Case {
    std::string tail;
    std::string message;
    int line;
    int column;
  };
  const std::vector<Case> cases = {
      {"  kernel A { }\n}\n", "duplicate actor name 'A'", 6, 3},
      {"\n  control B { }\n}\n", "duplicate actor name 'B'", 7, 3},
      {"  kernel p { }\n}\n",
       "actor 'p' collides with a parameter of the same name", 6, 3},
      {"    param A;\n}\n",
       "parameter 'A' collides with an actor of the same name", 6, 5},
      {"param p;\n}\n", "duplicate parameter name 'p'", 6, 1},
      {"  channel e from A.o to B.i;\n}\n", "duplicate channel name 'e'", 6,
       3},
      {"  kernel C { out x rates [1];\n     out x rates [2]; }\n}\n",
       "duplicate port name 'x' on actor 'C'", 7, 6},
      {"  kernel C { in i rates [1]; ctl_in i rates [1]; }\n}\n",
       "duplicate port name 'i' on actor 'C'", 6, 30},
      {"  kernel C { exec 1 -2; }\n}\n",
       "actor 'C' has execution time -2; times must be finite and "
       "non-negative",
       6, 14},
      {"  kernel C { out o rates [1]; }\n  kernel D { in i rates [1]; }\n"
       "  channel f from C.o to D.i init -1;\n}\n",
       "channel 'f' has negative initial tokens", 8, 3},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.message);
    const auto e = readModelError(head + c.tail);
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(std::string(e->what()), c.message);
    EXPECT_EQ(e->line(), c.line);
    EXPECT_EQ(e->column(), c.column);
  }
}

TEST(IoRead, ValidationErrorsStayUnpositioned) {
  // Dangling port: every declaration reads fine, validate() rejects the
  // whole graph, so there is no one declaration to point at.
  const auto e = readModelError(
      "graph dangling {\n  kernel A { out o rates [1]; }\n}\n");
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->line(), -1);
  EXPECT_EQ(e->column(), -1);
}

TEST(IoRead, TrailingGarbageRejected) {
  EXPECT_THROW(readGraph(R"(
    graph g {
      kernel A { out o rates [1]; }
      kernel B { in i rates [1]; }
      channel e from A.o to B.i;
    }
    leftover
  )"),
               ParseError);
}

// The name pool holds every actor and channel name and each distinct
// port name once (tpdfd's cache charges an entry by it).  The committed
// corpus pins the figure per file.  It equals a whole-pool dedupe except
// where a channel shares a port's name: the video_pipe graphs' channel
// `fb` and port `fb` are stored once each, 2 bytes more than when one
// copy served both.
TEST(IoFiles, NamePoolBytesOnCorpus) {
  const std::map<std::string, std::size_t> expected = {
      {"fig1.tpdf", 14},
      {"fig2.tpdf", 33},
      {"fig4a.tpdf", 15},
      {"ofdm.tpdf", 64},
      {"quickstart.tpdf", 33},
      {"adv_disconnected.tpdf", 18},
      {"adv_inconsistent.tpdf", 12},
      {"adv_near_overflow.tpdf", 5},
      {"adv_nested_cycles.tpdf", 56},
      {"adv_nested_deep.tpdf", 84},
      {"adv_starved_cycle.tpdf", 36},
      {"adv_zero_phase.tpdf", 12},
      {"lte_frame.tpdf", 32},
      {"lte_huge_q.tpdf", 24},
      {"lte_prb.tpdf", 20},
      {"param_gated_phase.tpdf", 9},
      {"param_regime_p.tpdf", 21},
      {"param_regime_pq.tpdf", 12},
      {"video_pipe_deep.tpdf", 32},
      {"video_pipe_phased.tpdf", 24},
      {"video_pipe_small.tpdf", 20},
  };
  std::size_t seen = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(
           std::filesystem::path(TPDF_SOURCE_DIR) / "examples" / "graphs")) {
    if (entry.path().extension() != ".tpdf") continue;
    const std::string file = entry.path().filename().string();
    SCOPED_TRACE(file);
    const Graph g = readGraphFile(entry.path().string());
    std::size_t bytes = 0;
    std::set<std::string> portNames;
    for (const graph::Actor& a : g.actors()) bytes += a.name.size();
    for (const graph::Channel& c : g.channels()) bytes += c.name.size();
    for (const graph::Port& p : g.ports()) portNames.insert(p.name);
    for (const std::string& name : portNames) bytes += name.size();
    EXPECT_EQ(g.namePoolBytes(), bytes);
    EXPECT_EQ(Graph(g).namePoolBytes(), bytes);
    ASSERT_EQ(expected.count(file), 1u) << "new corpus file: pin its figure";
    EXPECT_EQ(g.namePoolBytes(), expected.at(file));
    ++seen;
  }
  EXPECT_EQ(seen, expected.size());
}

TEST(IoFiles, WriteAndReadBack) {
  const Graph g = apps::fig2Tpdf();
  const std::string path = ::testing::TempDir() + "/fig2.tpdf";
  writeGraphFile(g, path);
  const Graph parsed = readGraphFile(path);
  expectGraphsEquivalent(g, parsed);
}

TEST(IoFiles, MissingFileThrows) {
  EXPECT_THROW(readGraphFile("/nonexistent/path.tpdf"), support::Error);
}

/// Random consistent chain (the shared bench/golden-test generator).
Graph randomChain(int n, std::uint64_t seed) {
  return apps::randomConsistentChain(n, seed);
}

/// Property: writing is a fixpoint of one read — write(read(write(g)))
/// == write(g) byte for byte, over the paper corpus, every scenario
/// family (multi-phase rate lists, parametric rate expressions,
/// fractional execution times) and random chains.
TEST(IoRoundTrip, WriteReadWriteIsAFixpointOnCorpus) {
  std::vector<Graph> corpus;
  corpus.push_back(apps::fig1Csdf());
  corpus.push_back(apps::fig2Tpdf());
  corpus.push_back(apps::fig4aCycle());
  corpus.push_back(apps::fig4bCycle());
  corpus.push_back(apps::edgeDetectionGraph().graph());
  corpus.push_back(apps::ofdmTpdfEffective(apps::Constellation::Qam16));
  corpus.push_back(apps::ofdmCsdfGraph());
  for (apps::Scenario& s : apps::scenarioCorpus()) {
    corpus.push_back(std::move(s.graph));
  }
  support::Prng seeds(0xF1CF01D);
  for (int trial = 0; trial < 8; ++trial) {
    // Sequenced: argument evaluation order is unspecified across
    // compilers, and the corpus should be stable.
    const int n = static_cast<int>(seeds.uniform(2, 25));
    const std::uint64_t seed = seeds.next();
    corpus.push_back(randomChain(n, seed));
  }
  for (const Graph& g : corpus) {
    const std::string once = writeGraph(g);
    const Graph parsed = readGraph(once);
    const std::string twice = writeGraph(parsed);
    EXPECT_EQ(once, twice) << g.name();
  }
}

}  // namespace
}  // namespace tpdf::io
