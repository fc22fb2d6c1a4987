#include "sched/canonical.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "apps/papergraphs.hpp"
#include "csdf/repetition.hpp"
#include "graph/builder.hpp"
#include "graph/rates.hpp"
#include "support/error.hpp"
#include "support/prng.hpp"
#include "random_dag.hpp"

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
  EXPECT_TRUE(std::ranges::equal(cp.successors(a1),
                                 std::vector<std::size_t>{b1, b2}));
  EXPECT_TRUE(std::ranges::equal(cp.predecessors(b2),
                                 std::vector<std::size_t>{b1, a1}));
  EXPECT_EQ(edgeCount(cp), 3u);
}

/// A -> B over `channels` parallel channels; q = [1, 256].
Graph parallelFan(int channels) {
  GraphBuilder b("fan");
  b.kernel("A");
  for (int c = 0; c < channels; ++c) b.out("o" + std::to_string(c), "[256]");
  b.kernel("B");
  for (int c = 0; c < channels; ++c) b.in("i" + std::to_string(c), "[1]");
  for (int c = 0; c < channels; ++c) {
    const std::string id = std::to_string(c);
    b.channel("e" + id, "A.o" + id, "B.i" + id);
  }
  return b.build();
}

TEST(CanonicalPeriod, ManyParallelChannelsKeepOneEdgeEach) {
  // 32 channels offer every token edge 32 times; each is kept once, and
  // each predecessor row lists the sequential edge before the token one.
  const Graph g = parallelFan(32);
  const CanonicalPeriod cp(core::AnalysisContext(g), Environment{});
  const std::size_t a1 = cp.indexOf(*g.findActor("A"), 0);
  ASSERT_EQ(cp.size(), 257u);
  EXPECT_EQ(edgeCount(cp), 255u + 256u);
  EXPECT_TRUE(std::ranges::equal(
      cp.predecessors(cp.indexOf(*g.findActor("B"), 0)),
      std::vector<std::size_t>{a1}));
  for (std::int64_t k = 1; k < 256; ++k) {
    const std::size_t bk = cp.indexOf(*g.findActor("B"), k);
    ASSERT_TRUE(std::ranges::equal(cp.predecessors(bk),
                                   std::vector<std::size_t>{bk - 1, a1}))
        << k;
  }
}

TEST(CanonicalPeriod, ParallelChannelsAreChargedAndStoppedByTheBudget) {
  // One work unit per node and per consumer firing of each channel, the
  // duplicates included; a capped or cancelled budget stops the build.
  const Graph g = parallelFan(32);
  const core::AnalysisContext ctx(g);
  support::Budget counted;
  const CanonicalPeriod cp(ctx, Environment{}, &counted);
  EXPECT_EQ(counted.work(), 257u + 32u * 256u);

  support::Budget capped;
  capped.setMaxWork(257 + 31 * 256);
  try {
    const CanonicalPeriod stopped(ctx, Environment{}, &capped);
    FAIL() << "expected the work cap to stop the build";
  } catch (const support::BudgetExceeded& e) {
    EXPECT_EQ(e.kind(), support::BudgetExceeded::Kind::Work);
  }

  support::Budget cancelled;
  cancelled.cancel();
  try {
    const CanonicalPeriod stopped(ctx, Environment{}, &cancelled);
    FAIL() << "expected cancellation to stop the build";
  } catch (const support::BudgetExceeded& e) {
    EXPECT_EQ(e.kind(), support::BudgetExceeded::Kind::Cancelled);
  }
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

// ---- The flat layout against a per-node reference ------------------------

/// The period's adjacency built the straightforward way: one successor
/// and one predecessor vector per node, an edge added unless its target
/// already lists its source.  Nodes are numbered as in CanonicalPeriod
/// (actor by actor, occurrences in order).
struct ReferencePeriod {
  std::vector<std::vector<std::size_t>> succ;
  std::vector<std::vector<std::size_t>> pred;
  std::size_t duplicates = 0;  // edges found again and not added
};

ReferencePeriod referencePeriod(const Graph& g, const Environment& env) {
  const csdf::RepetitionVector rv = csdf::computeRepetitionVector(g);
  const graph::EvaluatedRates rates(g, env);
  std::vector<std::int64_t> q(g.actorCount());
  std::vector<std::size_t> first(g.actorCount());
  std::size_t n = 0;
  for (std::size_t i = 0; i < g.actorCount(); ++i) {
    q[i] = rv.q[i].evaluateInt(env);
    first[i] = n;
    n += static_cast<std::size_t>(q[i]);
  }
  ReferencePeriod ref{std::vector<std::vector<std::size_t>>(n),
                      std::vector<std::vector<std::size_t>>(n)};
  auto addEdge = [&](std::size_t from, std::size_t to) {
    std::vector<std::size_t>& preds = ref.pred[to];
    if (std::find(preds.begin(), preds.end(), from) != preds.end()) {
      ++ref.duplicates;
      return;
    }
    ref.succ[from].push_back(to);
    preds.push_back(from);
  };
  for (std::size_t i = 0; i < g.actorCount(); ++i) {
    for (std::int64_t k = 0; k + 1 < q[i]; ++k) {
      addEdge(first[i] + static_cast<std::size_t>(k),
              first[i] + static_cast<std::size_t>(k) + 1);
    }
  }
  for (const graph::Channel& c : g.channels()) {
    const std::size_t src = g.sourceActor(c.id).index();
    const std::size_t dst = g.destActor(c.id).index();
    if (src == dst) continue;
    std::int64_t produced = 0;
    std::int64_t m = 0;
    std::int64_t covered = c.initialTokens;
    for (std::int64_t k = 0; k < q[dst]; ++k) {
      covered -= rates.at(c.dst, k);
      if (covered >= 0) continue;
      while (produced < -covered) produced += rates.at(c.src, m++);
      addEdge(first[src] + static_cast<std::size_t>(m - 1),
              first[dst] + static_cast<std::size_t>(k));
    }
  }
  return ref;
}

/// Kahn's algorithm over the reference with a separate FIFO; empty when
/// the period has a cycle.
std::vector<std::size_t> referenceOrder(const ReferencePeriod& ref) {
  std::vector<std::size_t> inDegree(ref.pred.size());
  std::deque<std::size_t> ready;
  for (std::size_t i = 0; i < ref.pred.size(); ++i) {
    inDegree[i] = ref.pred[i].size();
    if (inDegree[i] == 0) ready.push_back(i);
  }
  std::vector<std::size_t> order;
  while (!ready.empty()) {
    const std::size_t i = ready.front();
    ready.pop_front();
    order.push_back(i);
    for (const std::size_t s : ref.succ[i]) {
      if (--inDegree[s] == 0) ready.push_back(s);
    }
  }
  if (order.size() != ref.pred.size()) order.clear();
  return order;
}

void expectMatchesReference(const Graph& g, const Environment& env) {
  const CanonicalPeriod cp(core::AnalysisContext(g), env);
  const ReferencePeriod ref = referencePeriod(g, env);
  ASSERT_EQ(cp.size(), ref.succ.size()) << g.name();
  for (std::size_t i = 0; i < cp.size(); ++i) {
    EXPECT_TRUE(std::ranges::equal(cp.successors(i), ref.succ[i]))
        << g.name() << " successors of " << cp.nodeName(i);
    EXPECT_TRUE(std::ranges::equal(cp.predecessors(i), ref.pred[i]))
        << g.name() << " predecessors of " << cp.nodeName(i);
    for (std::size_t j = 0; j < cp.size(); ++j) {
      const bool expected = std::find(ref.pred[i].begin(), ref.pred[i].end(),
                                      j) != ref.pred[i].end();
      EXPECT_EQ(cp.dependsOn(i, j), expected)
          << g.name() << " " << cp.nodeName(i) << " <- " << cp.nodeName(j);
    }
  }
  const std::vector<std::size_t> order = referenceOrder(ref);
  if (order.empty()) {
    EXPECT_THROW(cp.topologicalOrder(), support::Error) << g.name();
  } else {
    EXPECT_EQ(cp.topologicalOrder(), order) << g.name();
  }
}

/// A random consistent graph with cycles: a chain of 2..5 kernels plus
/// 1..5 extra channels between random actors (backward edges, parallel
/// edges and self-loops included), each carrying random initial tokens.
/// Rates are derived from a chosen repetition vector, so every channel
/// balances.  Some draws deadlock; their periods are cyclic.
Graph randomCyclicGraph(std::uint64_t seed) {
  support::Prng rng(seed);
  const auto n = static_cast<std::size_t>(rng.uniform(2, 5));
  std::vector<std::int64_t> q(n);
  for (std::int64_t& x : q) x = rng.uniform(1, 4);
  struct Edge {
    std::size_t from;
    std::size_t to;
    std::int64_t tokens;
  };
  std::vector<Edge> edges;
  for (std::size_t i = 0; i + 1 < n; ++i) edges.push_back({i, i + 1, 0});
  const std::int64_t extra = rng.uniform(1, 5);
  for (std::int64_t e = 0; e < extra; ++e) {
    const auto from = static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(n) - 1));
    const auto to = static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(n) - 1));
    edges.push_back({from, to, rng.uniform(0, 8)});
  }
  GraphBuilder b("cyclic" + std::to_string(seed));
  for (std::size_t a = 0; a < n; ++a) {
    b.kernel("K" + std::to_string(a));
    for (std::size_t e = 0; e < edges.size(); ++e) {
      const std::int64_t common = std::gcd(q[edges[e].from], q[edges[e].to]);
      if (edges[e].from == a) {
        b.out("o" + std::to_string(e),
              "[" + std::to_string(q[edges[e].to] / common) + "]");
      }
      if (edges[e].to == a) {
        b.in("i" + std::to_string(e),
             "[" + std::to_string(q[edges[e].from] / common) + "]");
      }
    }
  }
  for (std::size_t e = 0; e < edges.size(); ++e) {
    b.channel("c" + std::to_string(e),
              "K" + std::to_string(edges[e].from) + ".o" + std::to_string(e),
              "K" + std::to_string(edges[e].to) + ".i" + std::to_string(e),
              edges[e].tokens);
  }
  return b.build();
}

class FlatLayout : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlatLayout, LayeredDagMatchesReference) {
  expectMatchesReference(testutil::randomLayeredDag(GetParam()),
                         Environment{});
}

TEST_P(FlatLayout, CyclicGraphMatchesReference) {
  expectMatchesReference(randomCyclicGraph(GetParam()), Environment{});
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatLayout,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST(FlatLayout, CyclicSeedsCoverCyclesAndDuplicates) {
  // The seeds above must exercise what the flat layout handles
  // specially: duplicate edges dropped, and periods with a cycle.
  std::size_t cyclic = 0;
  std::size_t withDuplicates = 0;
  for (std::uint64_t seed = 1; seed < 21; ++seed) {
    const ReferencePeriod ref =
        referencePeriod(randomCyclicGraph(seed), Environment{});
    if (referenceOrder(ref).empty()) ++cyclic;
    if (ref.duplicates != 0) ++withDuplicates;
  }
  EXPECT_GT(cyclic, 0u);
  EXPECT_GT(withDuplicates, 0u);
}

TEST(FlatLayout, PaperGraphsMatchReference) {
  expectMatchesReference(apps::fig1Csdf(), Environment{});
  for (const std::int64_t p : {1, 2, 3}) {
    expectMatchesReference(apps::fig2Tpdf(), Environment{{"p", p}});
  }
}

}  // namespace
}  // namespace tpdf::sched
