#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "graph/builder.hpp"
#include "support/error.hpp"
#include "support/prng.hpp"

namespace tpdf::graph {
namespace {

using support::ModelError;

Graph simpleChain() {
  return GraphBuilder("chain")
      .kernel("A").out("o", "[2]")
      .kernel("B").in("i", "[1]").out("o", "[1]")
      .kernel("C").in("i", "[2]")
      .channel("e1", "A.o", "B.i")
      .channel("e2", "B.o", "C.i", 1)
      .build();
}

TEST(RateSeq, ParseBracketedList) {
  const RateSeq r = RateSeq::parse("[1,0,1]");
  EXPECT_EQ(r.length(), 3u);
  EXPECT_EQ(r.toString(), "[1,0,1]");
}

TEST(RateSeq, ParseBareExpression) {
  const RateSeq r = RateSeq::parse("2p");
  EXPECT_EQ(r.length(), 1u);
  EXPECT_EQ(r.toString(), "[2p]");
}

TEST(RateSeq, CumulativeWrapsCyclically) {
  const RateSeq r = RateSeq::parse("[1,0,2]");
  EXPECT_EQ(r.cumulative(std::int64_t{0}).constant().toInteger(), 0);
  EXPECT_EQ(r.cumulative(std::int64_t{2}).constant().toInteger(), 1);
  EXPECT_EQ(r.cumulative(std::int64_t{3}).constant().toInteger(), 3);
  EXPECT_EQ(r.cumulative(std::int64_t{7}).constant().toInteger(), 7);  // 2 periods + 1
}

TEST(RateSeq, SymbolicCumulativeUniform) {
  const RateSeq r = RateSeq::parse("[p]");
  const symbolic::Expr n = symbolic::parseExpr("2q");
  EXPECT_EQ(r.cumulative(n).toString(), "2p*q");
}

TEST(RateSeq, SymbolicCumulativeWholePeriods) {
  const RateSeq r = RateSeq::parse("[1,3]");
  const symbolic::Expr n = symbolic::parseExpr("2p");
  EXPECT_EQ(r.cumulative(n).toString(), "4p");
}

TEST(RateSeq, SymbolicCumulativeUnresolvableThrows) {
  const RateSeq r = RateSeq::parse("[1,3]");
  EXPECT_THROW(r.cumulative(symbolic::parseExpr("p")), support::Error);
}

TEST(RateSeq, EmptySequenceRejected) {
  EXPECT_THROW(RateSeq(std::vector<symbolic::Expr>{}), ModelError);
}

TEST(Graph, BuilderProducesNavigableGraph) {
  const Graph g = simpleChain();
  EXPECT_EQ(g.actorCount(), 3u);
  EXPECT_EQ(g.channelCount(), 2u);

  const ActorId b = *g.findActor("B");
  EXPECT_EQ(g.actor(b).name, "B");
  EXPECT_EQ(g.inChannels(b).size(), 1u);
  EXPECT_EQ(g.outChannels(b).size(), 1u);

  const ChannelId e2 = *g.findChannel("e2");
  EXPECT_EQ(g.channel(e2).initialTokens, 1);
  EXPECT_EQ(g.actor(g.sourceActor(e2)).name, "B");
  EXPECT_EQ(g.actor(g.destActor(e2)).name, "C");
}

TEST(Graph, FindPortResolvesQualifiedNames) {
  const Graph g = simpleChain();
  ASSERT_TRUE(g.findPort("A.o").has_value());
  EXPECT_FALSE(g.findPort("A.missing").has_value());
  EXPECT_FALSE(g.findPort("Z.o").has_value());
  EXPECT_FALSE(g.findPort("no_dot").has_value());
}

TEST(Graph, PhasesIsLcmOfPortLengths) {
  Graph g("phases");
  const ActorId a = g.addActor("A");
  g.addPort(a, "p2", PortKind::DataOut, RateSeq::parse("[1,2]"));
  g.addPort(a, "p3", PortKind::DataIn, RateSeq::parse("[1,2,3]"));
  EXPECT_EQ(g.phases(a), 6);
}

TEST(Graph, EffectiveRatesExtendsCyclically) {
  Graph g("eff");
  const ActorId a = g.addActor("A");
  g.addPort(a, "short", PortKind::DataOut, RateSeq::parse("[1,2]"));
  const PortId longPort =
      g.addPort(a, "long", PortKind::DataIn, RateSeq::parse("[1,2,3,4]"));
  EXPECT_EQ(g.effectiveRates(PortId(0)).toString(), "[1,2,1,2]");
  EXPECT_EQ(g.effectiveRates(longPort).toString(), "[1,2,3,4]");
}

TEST(Graph, DuplicateActorNameRejected) {
  Graph g("dup");
  g.addActor("A");
  EXPECT_THROW(g.addActor("A"), ModelError);
}

TEST(Graph, DuplicatePortNameRejected) {
  Graph g("dup");
  const ActorId a = g.addActor("A");
  g.addPort(a, "o", PortKind::DataOut, RateSeq::constant(1));
  EXPECT_THROW(g.addPort(a, "o", PortKind::DataIn, RateSeq::constant(1)),
               ModelError);
}

TEST(Graph, NegativeInitialTokensRejected) {
  Graph g("neg");
  const ActorId a = g.addActor("A");
  const PortId o = g.addPort(a, "o", PortKind::DataOut, RateSeq::constant(1));
  const ActorId b = g.addActor("B");
  const PortId i = g.addPort(b, "i", PortKind::DataIn, RateSeq::constant(1));
  EXPECT_THROW(g.addChannel("e", o, i, -1), ModelError);
}

TEST(Validate, UndeclaredParameterRejected) {
  GraphBuilder b("undeclared");
  b.kernel("A").out("o", "[p]").kernel("B").in("i", "[1]")
      .channel("e", "A.o", "B.i");
  EXPECT_THROW(b.build(), ModelError);
}

TEST(Validate, ChannelFromInputPortRejected) {
  Graph g("bad");
  const ActorId a = g.addActor("A");
  const PortId i1 = g.addPort(a, "i", PortKind::DataIn, RateSeq::constant(1));
  const ActorId b = g.addActor("B");
  const PortId i2 = g.addPort(b, "i", PortKind::DataIn, RateSeq::constant(1));
  g.addChannel("e", i1, i2);
  EXPECT_THROW(g.validate(), ModelError);
}

TEST(Validate, MixedControlDataChannelRejected) {
  Graph g("mixed");
  const ActorId c = g.addActor("C", ActorKind::Control);
  const PortId o = g.addPort(c, "o", PortKind::ControlOut,
                             RateSeq::constant(1));
  const ActorId b = g.addActor("B");
  const PortId i = g.addPort(b, "i", PortKind::DataIn, RateSeq::constant(1));
  g.addChannel("e", o, i);
  EXPECT_THROW(g.validate(), ModelError);
}

TEST(Validate, ControlOutputOnKernelRejected) {
  Graph g("kctl");
  const ActorId a = g.addActor("A");  // kernel
  const PortId o =
      g.addPort(a, "o", PortKind::ControlOut, RateSeq::constant(1));
  const ActorId b = g.addActor("B");
  const PortId i =
      g.addPort(b, "c", PortKind::ControlIn, RateSeq::constant(1));
  g.addChannel("e", o, i);
  EXPECT_THROW(g.validate(), ModelError);
}

TEST(Validate, TwoControlPortsOnKernelRejected) {
  Graph g("twoctl");
  const ActorId c = g.addActor("C", ActorKind::Control);
  const PortId o1 =
      g.addPort(c, "o1", PortKind::ControlOut, RateSeq::constant(1));
  const PortId o2 =
      g.addPort(c, "o2", PortKind::ControlOut, RateSeq::constant(1));
  const ActorId b = g.addActor("B");
  const PortId c1 =
      g.addPort(b, "c1", PortKind::ControlIn, RateSeq::constant(1));
  const PortId c2 =
      g.addPort(b, "c2", PortKind::ControlIn, RateSeq::constant(1));
  g.addChannel("e1", o1, c1);
  g.addChannel("e2", o2, c2);
  EXPECT_THROW(g.validate(), ModelError);
}

TEST(Validate, ControlRateAboveOneRejected) {
  Graph g("ctlrate");
  const ActorId c = g.addActor("C", ActorKind::Control);
  const PortId o =
      g.addPort(c, "o", PortKind::ControlOut, RateSeq::constant(2));
  const ActorId b = g.addActor("B");
  const PortId ci =
      g.addPort(b, "c", PortKind::ControlIn, RateSeq::constant(2));
  g.addChannel("e", o, ci);
  EXPECT_THROW(g.validate(), ModelError);
}

TEST(Validate, DanglingPortRejected) {
  Graph g("dangling");
  const ActorId a = g.addActor("A");
  g.addPort(a, "o", PortKind::DataOut, RateSeq::constant(1));
  EXPECT_THROW(g.validate(), ModelError);
}

TEST(Validate, PortReuseAcrossChannelsRejected) {
  Graph g("reuse");
  const ActorId a = g.addActor("A");
  const PortId o = g.addPort(a, "o", PortKind::DataOut, RateSeq::constant(1));
  const ActorId b = g.addActor("B");
  const PortId i1 = g.addPort(b, "i1", PortKind::DataIn, RateSeq::constant(1));
  const PortId i2 = g.addPort(b, "i2", PortKind::DataIn, RateSeq::constant(1));
  g.addChannel("e1", o, i1);
  g.addChannel("e2", o, i2);
  EXPECT_THROW(g.validate(), ModelError);
}

TEST(Validate, PortOnTwoChannelsNamesTheSecondChannel) {
  Graph out("reuse-out");
  const ActorId a = out.addActor("A");
  const PortId o = out.addPort(a, "o", PortKind::DataOut, RateSeq::constant(1));
  const ActorId b = out.addActor("B");
  const PortId i1 = out.addPort(b, "i1", PortKind::DataIn, RateSeq::constant(1));
  const PortId i2 = out.addPort(b, "i2", PortKind::DataIn, RateSeq::constant(1));
  out.addChannel("e1", o, i1);
  out.addChannel("e2", o, i2);
  try {
    out.validate();
    FAIL() << "expected ModelError";
  } catch (const ModelError& e) {
    EXPECT_STREQ(e.what(),
                 "output port of channel 'e2' is attached to more than one "
                 "channel");
  }

  Graph in("reuse-in");
  const ActorId c = in.addActor("C");
  const PortId o1 = in.addPort(c, "o1", PortKind::DataOut, RateSeq::constant(1));
  const PortId o2 = in.addPort(c, "o2", PortKind::DataOut, RateSeq::constant(1));
  const ActorId d = in.addActor("D");
  const PortId i = in.addPort(d, "i", PortKind::DataIn, RateSeq::constant(1));
  in.addChannel("e1", o1, i);
  in.addChannel("e2", o2, i);
  try {
    in.validate();
    FAIL() << "expected ModelError";
  } catch (const ModelError& e) {
    EXPECT_STREQ(e.what(),
                 "input port of channel 'e2' is attached to more than one "
                 "channel");
  }
}

TEST(Graph, SetExecTimeRejectsNegativeAndNonFiniteTimes) {
  Graph g("exec");
  const ActorId a = g.addActor("A");
  const double bad[] = {-4.0, -1e-9, std::numeric_limits<double>::infinity(),
                        std::numeric_limits<double>::quiet_NaN()};
  for (const double t : bad) {
    const std::vector<double> times = {1.0, t};
    EXPECT_THROW(g.setExecTime(a, times), ModelError) << t;
  }
  const std::vector<double> zero = {0.0, 2.5};
  g.setExecTime(a, zero);
  EXPECT_EQ(std::vector<double>(g.actor(a).execTime.begin(),
                                g.actor(a).execTime.end()),
            zero);
  // A rejected call leaves the previous times in place.
  const std::vector<double> negative = {-1.0};
  EXPECT_THROW(g.setExecTime(a, negative), ModelError);
  EXPECT_EQ(g.actor(a).execTime.size(), 2u);

  GraphBuilder b("builder");
  b.kernel("K");
  EXPECT_THROW(b.execTime({-4.0}), ModelError);
}

TEST(Graph, AddParamRejectsEmptyName) {
  Graph g("g");
  EXPECT_THROW(g.addParam(""), ModelError);
}

TEST(Graph, AddParamRejectsDuplicateParameter) {
  Graph g("g");
  g.addParam("p");
  EXPECT_THROW(g.addParam("p"), ModelError);
  EXPECT_EQ(g.params().size(), 1u);
}

TEST(Graph, AddParamRejectsActorNameCollision) {
  Graph g("g");
  g.addActor("A");
  EXPECT_THROW(g.addParam("A"), ModelError);
  EXPECT_TRUE(g.params().empty());
  // A non-colliding name still works.
  g.addParam("p");
  EXPECT_TRUE(g.hasParam("p"));
}

TEST(Graph, AddActorRejectsParameterNameCollision) {
  // The mirror of the check above, so the no-aliasing invariant holds
  // regardless of declaration order.
  Graph g("g");
  g.addParam("p");
  EXPECT_THROW(g.addActor("p"), ModelError);
  EXPECT_EQ(g.actorCount(), 0u);
}

TEST(Actor, ExecTimeOfPhaseWrapsCyclically) {
  Actor a;
  a.execTime = {1.0, 2.5, 4.0};
  EXPECT_DOUBLE_EQ(a.execTimeOfPhase(0), 1.0);
  EXPECT_DOUBLE_EQ(a.execTimeOfPhase(4), 2.5);
}

TEST(Actor, ExecTimeOfPhaseRejectsNegativeIndex) {
  Actor a;
  a.name = Name("A");
  a.execTime = {1.0, 2.0};
  // A negative index used to wrap through size_t into a huge modulus.
  EXPECT_THROW(a.execTimeOfPhase(-1), support::Error);
  EXPECT_THROW(a.execTimeOfPhase(std::numeric_limits<std::int64_t>::min()),
               support::Error);
}

// ---- Name indices against a std::map oracle ---------------------------

/// A random graph plus an independent record of every name it holds.
struct NamedGraph {
  Graph g;
  std::map<std::string, ActorId> actors;
  std::map<std::string, ChannelId> channels;
  std::map<std::pair<std::string, std::string>, PortId> ports;
};

/// The message of the ModelError `fn` throws ("" when it throws none).
template <typename Fn>
std::string modelErrorOf(Fn&& fn) {
  try {
    fn();
  } catch (const ModelError& e) {
    return e.what();
  }
  return "";
}

/// Every name a random graph draws from: one letter of "KeA" and a
/// number below 3000, so actor, channel and port names overlap across
/// kinds and are prefixes of one another (K1, K10, K100, K1000).
std::string drawName(support::Prng& prng) {
  return std::string(1, "KeA"[prng.uniform(0, 2)]) +
         std::to_string(prng.uniform(0, 2999));
}

NamedGraph randomNamedGraph(std::uint64_t seed) {
  support::Prng prng(seed);
  NamedGraph out{Graph("names" + std::to_string(seed)), {}, {}, {}};
  std::vector<PortId> allPorts;
  for (int i = 0; i < 3000; ++i) {
    const std::string name = drawName(prng);
    if (out.actors.count(name) != 0) {
      EXPECT_EQ(modelErrorOf([&] { out.g.addActor(name); }),
                "duplicate actor name '" + name + "'");
      continue;
    }
    const ActorId a = out.g.addActor(name);
    out.actors.emplace(name, a);
    const int ports = static_cast<int>(prng.uniform(1, 3));
    for (int k = 0; k < ports; ++k) {
      const std::string port = prng.chance(0.5) ? drawName(prng)
                               : k == 0        ? "i"
                                               : "o";
      if (out.ports.count({name, port}) != 0) {
        EXPECT_EQ(modelErrorOf([&] {
                    out.g.addPort(a, port, PortKind::DataOut,
                                  RateSeq::constant(1));
                  }),
                  "duplicate port name '" + port + "' on actor '" + name +
                      "'");
        continue;
      }
      const PortId p =
          out.g.addPort(a, port, PortKind::DataOut, RateSeq::constant(1));
      out.ports.emplace(std::make_pair(name, port), p);
      allPorts.push_back(p);
    }
  }
  for (int i = 0; i < 3000; ++i) {
    const std::string name = drawName(prng);
    const PortId src = allPorts[static_cast<std::size_t>(prng.uniform(
        0, static_cast<std::int64_t>(allPorts.size()) - 1))];
    const PortId dst = allPorts[static_cast<std::size_t>(prng.uniform(
        0, static_cast<std::int64_t>(allPorts.size()) - 1))];
    if (out.channels.count(name) != 0) {
      EXPECT_EQ(modelErrorOf([&] { out.g.addChannel(name, src, dst); }),
                "duplicate channel name '" + name + "'");
      continue;
    }
    out.channels.emplace(name, out.g.addChannel(name, src, dst));
  }
  return out;
}

/// findActor/findChannel/findPort agree with the oracle on every name
/// the generator can draw (hits and misses alike) and on a few that it
/// cannot.
void expectIndexMatches(const Graph& g, const NamedGraph& oracle) {
  EXPECT_EQ(g.actorCount(), oracle.actors.size());
  EXPECT_EQ(g.channelCount(), oracle.channels.size());
  EXPECT_EQ(g.portCount(), oracle.ports.size());
  std::vector<std::string> probes = {"", "K", "e", "A", "K01", "k1", "K1x",
                                     "i", "o", "K3000", "e-1"};
  for (const char letter : std::string("KeA")) {
    for (int n = 0; n < 3000; ++n) {
      probes.push_back(std::string(1, letter) + std::to_string(n));
    }
  }
  for (const std::string& name : probes) {
    const auto a = oracle.actors.find(name);
    const auto c = oracle.channels.find(name);
    EXPECT_EQ(g.findActor(name),
              a == oracle.actors.end() ? std::nullopt
                                       : std::optional<ActorId>(a->second))
        << name;
    EXPECT_EQ(g.findChannel(name),
              c == oracle.channels.end()
                  ? std::nullopt
                  : std::optional<ChannelId>(c->second))
        << name;
    if (a == oracle.actors.end()) {
      EXPECT_EQ(g.findPort(name + ".i"), std::nullopt) << name;
    }
  }
  for (const auto& [key, id] : oracle.ports) {
    EXPECT_EQ(g.findPort(key.first, key.second), id);
    EXPECT_EQ(g.findPort(key.first + "." + key.second), id);
    EXPECT_EQ(g.port(id).name, key.second);
    EXPECT_EQ(g.actor(g.port(id).actor).name, key.first);
    // A port name that is a prefix or an extension of a real one misses.
    if (oracle.ports.count({key.first, key.second + "0"}) == 0) {
      EXPECT_EQ(g.findPort(key.first, key.second + "0"), std::nullopt);
    }
  }
  for (const auto& [name, id] : oracle.actors) {
    EXPECT_EQ(g.actor(id).name, name);
  }
  for (const auto& [name, id] : oracle.channels) {
    EXPECT_EQ(g.channel(id).name, name);
  }
}

TEST(NameIndex, AgreesWithMapOracleOnRandomGraphs) {
  for (const std::uint64_t seed : {1u, 2u, 0xC0FFEEu}) {
    SCOPED_TRACE(seed);
    const NamedGraph oracle = randomNamedGraph(seed);
    EXPECT_GT(oracle.actors.size(), 2000u);
    EXPECT_GT(oracle.channels.size(), 2000u);
    expectIndexMatches(oracle.g, oracle);
  }
}

TEST(NameIndex, CollisionsThrowTheExactMessages) {
  NamedGraph oracle = randomNamedGraph(7);
  Graph& g = oracle.g;
  const std::string actor = oracle.actors.begin()->first;
  g.addParam("p");
  EXPECT_EQ(modelErrorOf([&] { g.addParam(actor); }),
            "parameter '" + actor +
                "' collides with an actor of the same name");
  EXPECT_EQ(modelErrorOf([&] { g.addActor("p"); }),
            "actor 'p' collides with a parameter of the same name");
  EXPECT_EQ(modelErrorOf([&] { g.addActor(actor); }),
            "duplicate actor name '" + actor + "'");
  const std::string channel = oracle.channels.rbegin()->first;
  const PortId port = oracle.ports.begin()->second;
  EXPECT_EQ(modelErrorOf([&] { g.addChannel(channel, port, port); }),
            "duplicate channel name '" + channel + "'");
  // A rejected channel leaves no trace in the index.
  EXPECT_EQ(modelErrorOf([&] { g.addChannel("fresh", port, port, -1); }),
            "channel 'fresh' has negative initial tokens");
  EXPECT_EQ(g.findChannel("fresh"), std::nullopt);
  EXPECT_EQ(modelErrorOf([&] { g.addChannel("fresh", port, PortId{}); }),
            "channel 'fresh' uses an unknown port");
  EXPECT_EQ(g.findChannel("fresh"), std::nullopt);
  expectIndexMatches(g, oracle);
}

TEST(NameIndex, LookupsSurviveCopiesAndMoves) {
  NamedGraph oracle = randomNamedGraph(11);
  std::optional<Graph> source(oracle.g);
  Graph copy(*source);
  Graph assigned("other");
  assigned.addActor("gone");
  assigned = *source;
  source.reset();  // the copies own their names
  expectIndexMatches(copy, oracle);
  expectIndexMatches(assigned, oracle);
  EXPECT_EQ(assigned.findActor("gone"), std::nullopt);
  EXPECT_EQ(copy.namePoolBytes(), oracle.g.namePoolBytes());

  const Graph moved(std::move(copy));
  expectIndexMatches(moved, oracle);
  Graph moveAssigned("other");
  moveAssigned = std::move(assigned);
  expectIndexMatches(moveAssigned, oracle);

  // The copy still grows its own index.
  Graph grown(moved);
  const ActorId fresh = grown.addActor("fresh");
  EXPECT_EQ(grown.findActor("fresh"), fresh);
  EXPECT_EQ(moved.findActor("fresh"), std::nullopt);
}

TEST(Dot, RendersActorsAndChannels) {
  const std::string dot = simpleChain().toDot();
  EXPECT_NE(dot.find("digraph \"chain\""), std::string::npos);
  EXPECT_NE(dot.find("\"A\" -> \"B\""), std::string::npos);
  EXPECT_NE(dot.find("[2]->[1]"), std::string::npos);
  EXPECT_NE(dot.find("(1)"), std::string::npos);  // initial tokens on e2
}

}  // namespace
}  // namespace tpdf::graph
