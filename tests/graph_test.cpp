#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "graph/builder.hpp"
#include "support/error.hpp"

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

TEST(Dot, RendersActorsAndChannels) {
  const std::string dot = simpleChain().toDot();
  EXPECT_NE(dot.find("digraph \"chain\""), std::string::npos);
  EXPECT_NE(dot.find("\"A\" -> \"B\""), std::string::npos);
  EXPECT_NE(dot.find("[2]->[1]"), std::string::npos);
  EXPECT_NE(dot.find("(1)"), std::string::npos);  // initial tokens on e2
}

}  // namespace
}  // namespace tpdf::graph
