// Topology-matrix corners (Equation 3) and schedule rendering details
// not covered by the main csdf suites.
#include <gtest/gtest.h>

#include "apps/papergraphs.hpp"
#include "csdf/repetition.hpp"
#include "csdf/schedule.hpp"
#include "graph/builder.hpp"

namespace tpdf::csdf {
namespace {

using graph::Graph;
using graph::GraphBuilder;
using symbolic::Expr;

TEST(TopologyMatrix, Figure1EntriesMatchEquation3) {
  const Graph g = apps::fig1Csdf();
  const auto gamma = topologyMatrix(g);
  ASSERT_EQ(gamma.size(), 3u);      // one row per channel
  ASSERT_EQ(gamma[0].size(), 3u);   // one column per actor

  const auto a1 = g.findActor("a1")->index();
  const auto a2 = g.findActor("a2")->index();
  const auto a3 = g.findActor("a3")->index();
  const auto e1 = g.findChannel("e1")->index();
  const auto e2 = g.findChannel("e2")->index();
  const auto e3 = g.findChannel("e3")->index();

  // e1: a1 produces [1,0,1] => +2; a2 consumes [1,1] => -2.
  EXPECT_EQ(gamma[e1][a1], Expr(2));
  EXPECT_EQ(gamma[e1][a2], Expr(-2));
  EXPECT_EQ(gamma[e1][a3], Expr(0));
  // e2: a2 produces [0,2] => +2; a3 consumes [1,1] => -2.
  EXPECT_EQ(gamma[e2][a2], Expr(2));
  EXPECT_EQ(gamma[e2][a3], Expr(-2));
  // e3: a3 produces [1,1] => +2; a1 consumes [2,0,0] => -2.
  EXPECT_EQ(gamma[e3][a3], Expr(2));
  EXPECT_EQ(gamma[e3][a1], Expr(-2));
}

TEST(TopologyMatrix, ParametricEntries) {
  const Graph g = apps::fig2Tpdf();
  const auto gamma = topologyMatrix(g);
  const auto a = g.findActor("A")->index();
  const auto e1 = g.findChannel("e1")->index();
  EXPECT_EQ(gamma[e1][a], Expr::param("p"));
}

TEST(TopologyMatrix, SelfLoopNetsToZero) {
  // A self-loop with equal rates contributes +r - r = 0 in its row.
  const Graph g = GraphBuilder("selfloop")
      .kernel("A").in("i", "[1]").out("o", "[1]").out("x", "[1]")
      .kernel("B").in("i", "[1]")
      .channel("self", "A.o", "A.i", 1)
      .channel("e", "A.x", "B.i")
      .build();
  const auto gamma = topologyMatrix(g);
  const auto self = g.findChannel("self")->index();
  EXPECT_TRUE(gamma[self][g.findActor("A")->index()].isZero());
}

TEST(RepetitionVector, SelfLoopGraphStaysConsistent) {
  const Graph g = GraphBuilder("selfloop")
      .kernel("A").in("i", "[2]").out("o", "[2]").out("x", "[3]")
      .kernel("B").in("i", "[1]")
      .channel("self", "A.o", "A.i", 2)
      .channel("e", "A.x", "B.i")
      .build();
  const RepetitionVector rv = computeRepetitionVector(g);
  ASSERT_TRUE(rv.consistent) << rv.diagnostic;
  EXPECT_EQ(rv.toString(), "[1, 3]");
}

TEST(RepetitionVector, UnequalSelfLoopIsInconsistent) {
  const Graph g = GraphBuilder("badloop")
      .kernel("A").in("i", "[1]").out("o", "[2]").out("x", "[1]")
      .kernel("B").in("i", "[1]")
      .channel("self", "A.o", "A.i", 1)
      .channel("e", "A.x", "B.i")
      .build();
  const RepetitionVector rv = computeRepetitionVector(g);
  EXPECT_FALSE(rv.consistent);
}

TEST(RepetitionVector, MultiPhaseUnevenSequences) {
  // Ports of different sequence lengths on one actor: tau = lcm(2,3) = 6.
  const Graph g = GraphBuilder("phases")
      .kernel("A").out("o2", "[1,2]").out("o3", "[1,1,2]")
      .kernel("B").in("i", "[3]")
      .kernel("C").in("i", "[2]")
      .channel("e1", "A.o2", "B.i")
      .channel("e2", "A.o3", "C.i")
      .build();
  const RepetitionVector rv = computeRepetitionVector(g);
  ASSERT_TRUE(rv.consistent) << rv.diagnostic;
  // tau_A = 6: per full period A sends 9 on e1 (3 periods of 1+2) and
  // 8 on e2 (2 periods of 1+1+2); q must balance both.
  EXPECT_EQ(rv.qOf(*g.findActor("A")), Expr(6));
  EXPECT_EQ(rv.qOf(*g.findActor("B")), Expr(3));
  EXPECT_EQ(rv.qOf(*g.findActor("C")), Expr(4));
}

TEST(Schedule, EmptyScheduleRendersEmpty) {
  const Graph g = apps::fig1Csdf();
  EXPECT_EQ(Schedule{}.toString(g), "");
  EXPECT_EQ(Schedule{}.countOf(*g.findActor("a1")), 0);
}

TEST(Schedule, ValidateRejectsForeignEnvironment) {
  // Validating a parametric schedule without bindings throws through
  // evaluateInt -> support::Error.
  const Graph g = apps::fig2Tpdf();
  Schedule s;
  s.push(*g.findActor("A"), 0);
  EXPECT_THROW(validateSchedule(g, s), support::Error);
}

TEST(Schedule, PhaseDependentValidation) {
  // a1's phases consume [2,0,0]: firing 1 needs nothing even when the
  // channel is empty.
  const Graph g = apps::fig1Csdf();
  Schedule s;
  for (const char* name : {"a3", "a1"}) {
    s.push(*g.findActor(name), 0);
    s.push(*g.findActor(name), 1);
  }
  const ScheduleCheck check = validateSchedule(g, s);
  EXPECT_TRUE(check.ok) << check.diagnostic;
}

}  // namespace
}  // namespace tpdf::csdf
