#include "sched/canonical.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "apps/papergraphs.hpp"
#include "graph/builder.hpp"
#include "support/error.hpp"

namespace tpdf::sched {
namespace {

using graph::Graph;
using graph::GraphBuilder;
using symbolic::Environment;

// ---- Figure 5: canonical period of Figure 2 at p = 1 -------------------

class Figure5 : public ::testing::Test {
 protected:
  Figure5()
      : g_(apps::fig2Tpdf()),
        cp_(core::AnalysisContext(g_), Environment{{"p", 1}}) {}

  std::size_t node(const std::string& actor, std::int64_t k) const {
    return cp_.indexOf(*g_.findActor(actor), k);
  }

  Graph g_;
  CanonicalPeriod cp_;
};

TEST_F(Figure5, OccurrenceCountsMatchRepetitionVector) {
  // q(p=1) = [2, 2, 1, 1, 2, 2]: A1 A2 B1 B2 C1 D1 E1 E2 F1 F2.
  EXPECT_EQ(cp_.size(), 10u);
  EXPECT_EQ(cp_.repetitions(*g_.findActor("A")), 2);
  EXPECT_EQ(cp_.repetitions(*g_.findActor("B")), 2);
  EXPECT_EQ(cp_.repetitions(*g_.findActor("C")), 1);
  EXPECT_EQ(cp_.repetitions(*g_.findActor("D")), 1);
  EXPECT_EQ(cp_.repetitions(*g_.findActor("E")), 2);
  EXPECT_EQ(cp_.repetitions(*g_.findActor("F")), 2);
}

TEST_F(Figure5, NamesUseOneBasedOccurrences) {
  EXPECT_EQ(cp_.nodeName(node("A", 0)), "A1");
  EXPECT_EQ(cp_.nodeName(node("F", 1)), "F2");
}

TEST_F(Figure5, SequentialSelfDependencies) {
  EXPECT_TRUE(cp_.dependsOn(node("A", 1), node("A", 0)));
  EXPECT_TRUE(cp_.dependsOn(node("B", 1), node("B", 0)));
  EXPECT_FALSE(cp_.dependsOn(node("A", 0), node("A", 1)));
}

TEST_F(Figure5, TokenDependenciesMatchFigure) {
  // B1 consumes the first token A1 produced (A produces p = 1 per firing).
  EXPECT_TRUE(cp_.dependsOn(node("B", 0), node("A", 0)));
  EXPECT_TRUE(cp_.dependsOn(node("B", 1), node("A", 1)));
  // C1 needs two tokens from B: depends on B2.
  EXPECT_TRUE(cp_.dependsOn(node("C", 0), node("B", 1)));
  // D1 needs two tokens from B: depends on B2.
  EXPECT_TRUE(cp_.dependsOn(node("D", 0), node("B", 1)));
  // E1 fires after B1 (one token suffices) — the paper's narrative
  // "only E can fire" after B's first firing.
  EXPECT_TRUE(cp_.dependsOn(node("E", 0), node("B", 0)));
  EXPECT_FALSE(cp_.dependsOn(node("E", 0), node("B", 1)));
  // F1 and F2 receive C1's control tokens.
  EXPECT_TRUE(cp_.dependsOn(node("F", 0), node("C", 0)));
  EXPECT_TRUE(cp_.dependsOn(node("F", 1), node("C", 0)));
  // F consumes [0,2] from D: only F2 depends on D1.
  EXPECT_FALSE(cp_.dependsOn(node("F", 0), node("D", 0)));
  EXPECT_TRUE(cp_.dependsOn(node("F", 1), node("D", 0)));
  // F consumes [1,1] from E.
  EXPECT_TRUE(cp_.dependsOn(node("F", 0), node("E", 0)));
  EXPECT_TRUE(cp_.dependsOn(node("F", 1), node("E", 1)));
}

TEST_F(Figure5, TopologicalOrderRespectsAllEdges) {
  const std::vector<std::size_t> order = cp_.topologicalOrder();
  ASSERT_EQ(order.size(), cp_.size());
  std::vector<std::size_t> position(cp_.size());
  for (std::size_t i = 0; i < order.size(); ++i) position[order[i]] = i;
  for (std::size_t v = 0; v < cp_.size(); ++v) {
    for (std::size_t s : cp_.successors(v)) {
      EXPECT_LT(position[v], position[s]);
    }
  }
}

TEST(CanonicalPeriod, ScalesWithParameter) {
  const Graph g = apps::fig2Tpdf();
  const CanonicalPeriod cp(core::AnalysisContext(g), Environment{{"p", 4}});
  EXPECT_EQ(cp.size(), 2u + 8u + 4u + 4u + 8u + 8u);
}

TEST(CanonicalPeriod, InitialTokensRemoveDependencies) {
  // With enough initial tokens the consumer's first firings depend only
  // on the sequential order, not on the producer.
  const Graph g = GraphBuilder("buffered")
      .kernel("A").out("o", "[1]")
      .kernel("B").in("i", "[1]")
      .channel("e", "A.o", "B.i", 1)
      .build();
  const CanonicalPeriod cp(core::AnalysisContext(g), Environment{});
  EXPECT_TRUE(cp.predecessors(cp.indexOf(*g.findActor("B"), 0)).empty());
}

TEST(CanonicalPeriod, Figure1Structure) {
  const Graph g = apps::fig1Csdf();
  const CanonicalPeriod cp(core::AnalysisContext(g), Environment{});
  EXPECT_EQ(cp.size(), 7u);  // 3 + 2 + 2
  // a1's first firing consumes 2 tokens from e3, produced by a3's two
  // firings: depends on a3#2.
  EXPECT_TRUE(cp.dependsOn(cp.indexOf(*g.findActor("a1"), 0),
                           cp.indexOf(*g.findActor("a3"), 1)));
  // a3's two firings are covered by the two initial tokens on e2.
  EXPECT_TRUE(cp.predecessors(cp.indexOf(*g.findActor("a3"), 0)).empty());
}

/// Edges of the period, counted from both adjacency directions.
std::size_t edgeCount(const CanonicalPeriod& cp) {
  std::size_t out = 0;
  std::size_t in = 0;
  for (std::size_t i = 0; i < cp.size(); ++i) {
    out += cp.successors(i).size();
    in += cp.predecessors(i).size();
  }
  EXPECT_EQ(out, in);
  return out;
}

TEST(CanonicalPeriod, HighFanOutFiringBuildsInLinearTime) {
  // One firing of A feeds all 65,536 firings of B (the near-overflow
  // scenario at a sixteenth of its rate): 65,535 sequential edges plus
  // one token edge per B firing.  A quadratic duplicate check on A1's
  // successor list made this take seconds.
  const Graph g = GraphBuilder("fanout")
      .kernel("A").out("o", "[65536]")
      .kernel("B").in("i", "[1]")
      .channel("e", "A.o", "B.i")
      .build();
  const CanonicalPeriod cp(core::AnalysisContext(g), Environment{});
  ASSERT_EQ(cp.size(), 1u + 65536u);
  EXPECT_EQ(edgeCount(cp), 65535u + 65536u);
  EXPECT_EQ(cp.successors(cp.indexOf(*g.findActor("A"), 0)).size(), 65536u);
}

TEST(CanonicalPeriod, ParallelChannelsAddEachEdgeOnce) {
  // e1 and e2 join the same actor pair and imply the same dependencies;
  // e3's initial token covers B1, and its A1 -> B2 is e1's too.  Each
  // edge is listed once.
  const Graph g = GraphBuilder("parallel")
      .kernel("A").out("o1", "[2]").out("o2", "[2]").out("o3", "[2]")
      .kernel("B").in("i1", "[1]").in("i2", "[1]").in("i3", "[1]")
      .channel("e1", "A.o1", "B.i1")
      .channel("e2", "A.o2", "B.i2")
      .channel("e3", "A.o3", "B.i3", 1)
      .build();
  const CanonicalPeriod cp(core::AnalysisContext(g), Environment{});
  const std::size_t a1 = cp.indexOf(*g.findActor("A"), 0);
  const std::size_t b1 = cp.indexOf(*g.findActor("B"), 0);
  const std::size_t b2 = cp.indexOf(*g.findActor("B"), 1);
  // q = [1, 2]: B1 -> B2 sequentially, A1 -> B1 and A1 -> B2 by tokens,
  // in first-insertion order.
  EXPECT_EQ(cp.successors(a1), (std::vector<std::size_t>{b1, b2}));
  EXPECT_EQ(cp.predecessors(b2), (std::vector<std::size_t>{b1, a1}));
  EXPECT_EQ(edgeCount(cp), 3u);
}

TEST(CanonicalPeriod, InconsistentGraphRejected) {
  const Graph g = GraphBuilder("bad")
      .kernel("A").out("o", "[2]").in("i", "[1]")
      .kernel("B").in("i", "[1]").out("o", "[1]")
      .channel("e1", "A.o", "B.i")
      .channel("e2", "B.o", "A.i", 1)
      .build();
  EXPECT_THROW(CanonicalPeriod(core::AnalysisContext(g), Environment{}),
               support::Error);
}

TEST(CanonicalPeriod, ExecTimesFollowPhases) {
  Graph g = GraphBuilder("phased")
      .kernel("A").out("o", "[1,1]").execTime({2.0, 5.0})
      .kernel("B").in("i", "[1]")
      .channel("e", "A.o", "B.i")
      .build();
  const CanonicalPeriod cp(core::AnalysisContext(g), Environment{});
  EXPECT_EQ(cp.execTime(cp.indexOf(*g.findActor("A"), 0)), 2.0);
  EXPECT_EQ(cp.execTime(cp.indexOf(*g.findActor("A"), 1)), 5.0);
}

}  // namespace
}  // namespace tpdf::sched
