#include "csdf/repetition.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "apps/papergraphs.hpp"
#include "graph/builder.hpp"
#include "support/error.hpp"
#include "support/prng.hpp"

namespace tpdf::csdf {
namespace {

using graph::Graph;
using graph::GraphBuilder;
using graph::PortKind;
using graph::RateSeq;
using symbolic::Environment;
using symbolic::Expr;

// ---- The paper's Figure 1 -------------------------------------------

TEST(RepetitionVector, Figure1CsdfIsConsistent) {
  const Graph g = apps::fig1Csdf();
  const RepetitionVector rv = computeRepetitionVector(g);
  ASSERT_TRUE(rv.consistent) << rv.diagnostic;
  EXPECT_EQ(rv.qOf(*g.findActor("a1")), Expr(3));
  EXPECT_EQ(rv.qOf(*g.findActor("a2")), Expr(2));
  EXPECT_EQ(rv.qOf(*g.findActor("a3")), Expr(2));
  EXPECT_EQ(rv.toString(), "[3, 2, 2]");
}

TEST(RepetitionVector, Figure1TopologyMatrixBalances) {
  const Graph g = apps::fig1Csdf();
  const auto gamma = topologyMatrix(g);
  const RepetitionVector rv = computeRepetitionVector(g);
  ASSERT_TRUE(rv.consistent);
  // Gamma * r = 0 (Equation 2).
  for (std::size_t row = 0; row < gamma.size(); ++row) {
    Expr sum;
    for (std::size_t col = 0; col < gamma[row].size(); ++col) {
      sum += gamma[row][col] * rv.r[col];
    }
    EXPECT_TRUE(sum.isZero()) << "row " << row << ": " << sum.toString();
  }
}

// ---- The paper's Figure 2 (Example 2) --------------------------------

TEST(RepetitionVector, Figure2TpdfSolution) {
  const Graph g = apps::fig2Tpdf();
  const RepetitionVector rv = computeRepetitionVector(g);
  ASSERT_TRUE(rv.consistent) << rv.diagnostic;

  const Expr p = Expr::param("p");
  // r = [2, 2p, p, p, 2p, p] (Equation 5, after normalization by 2).
  EXPECT_EQ(rv.rOf(*g.findActor("A")), Expr(2));
  EXPECT_EQ(rv.rOf(*g.findActor("B")), Expr(2) * p);
  EXPECT_EQ(rv.rOf(*g.findActor("C")), p);
  EXPECT_EQ(rv.rOf(*g.findActor("D")), p);
  EXPECT_EQ(rv.rOf(*g.findActor("E")), Expr(2) * p);
  EXPECT_EQ(rv.rOf(*g.findActor("F")), p);

  // q = [2, 2p, p, p, 2p, 2p]: F has tau = 2.
  EXPECT_EQ(rv.qOf(*g.findActor("F")), Expr(2) * p);
  EXPECT_EQ(rv.toString(), "[2, 2p, p, p, 2p, 2p]");
}

TEST(RepetitionVector, Figure2InstantiatesForConcreteP) {
  const Graph g = apps::fig2Tpdf();
  const RepetitionVector rv = computeRepetitionVector(g);
  ASSERT_TRUE(rv.consistent);
  const Environment env{{"p", 5}};
  EXPECT_EQ(rv.qOf(*g.findActor("B")).evaluateInt(env), 10);
  EXPECT_EQ(rv.qOf(*g.findActor("F")).evaluateInt(env), 10);
  EXPECT_EQ(rv.qOf(*g.findActor("A")).evaluateInt(env), 2);
}

// ---- Classic SDF cases ------------------------------------------------

TEST(RepetitionVector, SdfChain) {
  const Graph g = GraphBuilder("chain")
      .kernel("A").out("o", "[2]")
      .kernel("B").in("i", "[3]").out("o", "[1]")
      .kernel("C").in("i", "[2]")
      .channel("e1", "A.o", "B.i")
      .channel("e2", "B.o", "C.i")
      .build();
  const RepetitionVector rv = computeRepetitionVector(g);
  ASSERT_TRUE(rv.consistent);
  EXPECT_EQ(rv.toString(), "[3, 2, 1]");
}

TEST(RepetitionVector, InconsistentSdfDetected) {
  // A produces 2 per firing into a cycle that returns only 1.
  const Graph g = GraphBuilder("inconsistent")
      .kernel("A").out("o", "[2]").in("i", "[1]")
      .kernel("B").in("i", "[1]").out("o", "[1]")
      .channel("e1", "A.o", "B.i")
      .channel("e2", "B.o", "A.i", 1)
      .build();
  const RepetitionVector rv = computeRepetitionVector(g);
  EXPECT_FALSE(rv.consistent);
  EXPECT_NE(rv.diagnostic.find("balance violated"), std::string::npos);
}

TEST(RepetitionVector, ParametricInconsistencyDetected) {
  // Rates p vs p+1 admit no polynomial ratio.
  const Graph g = GraphBuilder("param_inconsistent")
      .param("p")
      .kernel("A").out("o", "[p]").in("i", "[p]")
      .kernel("B").in("i", "[p+1]").out("o", "[p]")
      .channel("e1", "A.o", "B.i")
      .channel("e2", "B.o", "A.i")
      .build();
  const RepetitionVector rv = computeRepetitionVector(g);
  EXPECT_FALSE(rv.consistent);
}

TEST(RepetitionVector, ZeroRateEdgeWithNonzeroPeerInconsistent) {
  const Graph g = GraphBuilder("zero_edge")
      .kernel("A").out("o", "[0]").in("i", "[1]")
      .kernel("B").in("i", "[1]").out("o", "[1]")
      .channel("e1", "A.o", "B.i")
      .channel("e2", "B.o", "A.i")
      .build();
  const RepetitionVector rv = computeRepetitionVector(g);
  EXPECT_FALSE(rv.consistent);
}

TEST(RepetitionVector, DisconnectedComponentsSolvedIndependently) {
  const Graph g = GraphBuilder("two_islands")
      .kernel("A").out("o", "[1]")
      .kernel("B").in("i", "[2]")
      .kernel("X").out("o", "[3]")
      .kernel("Y").in("i", "[1]")
      .channel("e1", "A.o", "B.i")
      .channel("e2", "X.o", "Y.i")
      .build();
  const RepetitionVector rv = computeRepetitionVector(g);
  ASSERT_TRUE(rv.consistent);
  EXPECT_EQ(rv.toString(), "[2, 1, 1, 3]");
}

TEST(RepetitionVector, MultiParameterGraph) {
  const Graph g = GraphBuilder("two_params")
      .param("p").param("q")
      .kernel("A").out("o", "[p]")
      .kernel("B").in("i", "[1]").out("o", "[q]")
      .kernel("C").in("i", "[1]")
      .channel("e1", "A.o", "B.i")
      .channel("e2", "B.o", "C.i")
      .build();
  const RepetitionVector rv = computeRepetitionVector(g);
  ASSERT_TRUE(rv.consistent);
  EXPECT_EQ(rv.qOf(*g.findActor("A")), Expr(1));
  EXPECT_EQ(rv.qOf(*g.findActor("B")), Expr::param("p"));
  EXPECT_EQ(rv.qOf(*g.findActor("C")),
            Expr::param("p") * Expr::param("q"));
}

// ---- Property sweep: random consistent chains ------------------------

class RandomChainProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomChainProperty, BalanceHoldsOnRandomChains) {
  support::Prng rng(GetParam());
  const int n = static_cast<int>(rng.uniform(2, 8));
  GraphBuilder b("random_chain");
  for (int i = 0; i < n; ++i) {
    const std::string name = "K" + std::to_string(i);
    b.kernel(name);
    if (i > 0) {
      b.in("i", "[" + std::to_string(rng.uniform(1, 6)) + "]");
    }
    if (i + 1 < n) {
      b.out("o", "[" + std::to_string(rng.uniform(1, 6)) + "]");
    }
  }
  for (int i = 0; i + 1 < n; ++i) {
    b.channel("e" + std::to_string(i), "K" + std::to_string(i) + ".o",
              "K" + std::to_string(i + 1) + ".i");
  }
  const Graph g = b.build();
  const RepetitionVector rv = computeRepetitionVector(g);
  ASSERT_TRUE(rv.consistent) << rv.diagnostic;

  // Every channel is balanced and every repetition count is a positive
  // integer.
  for (const graph::Channel& c : g.channels()) {
    const Expr produced = rv.rOf(g.sourceActor(c.id)) *
                          g.effectiveRates(c.src).periodSum();
    const Expr consumed = rv.rOf(g.destActor(c.id)) *
                          g.effectiveRates(c.dst).periodSum();
    EXPECT_EQ(produced, consumed);
  }
  for (const Expr& q : rv.q) {
    EXPECT_TRUE(q.constant().isInteger());
    EXPECT_GT(q.constant().toInteger(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomChainProperty,
                         ::testing::Range<std::uint64_t>(1, 25));

// ---- Many components -------------------------------------------------

TEST(RepetitionVector, TwentyThousandComponentsEachNormalizedAlone) {
  // 20,000 disconnected A -[2:1]-> B pairs: each component has its own
  // scale factor, and grouping members must not rescan every actor per
  // component (that was 3.4 s here).
  constexpr int kPairs = 20000;
  Graph g("pairs");
  for (int i = 0; i < kPairs; ++i) {
    const std::string k = std::to_string(i);
    const graph::ActorId a = g.addActor("A" + k);
    const graph::ActorId b = g.addActor("B" + k);
    g.addChannel("e" + k,
                 g.addPort(a, "o", PortKind::DataOut, RateSeq::constant(2)),
                 g.addPort(b, "i", PortKind::DataIn, RateSeq::constant(1)));
  }
  const RepetitionVector rv = computeRepetitionVector(g);
  ASSERT_TRUE(rv.consistent) << rv.diagnostic;
  ASSERT_EQ(rv.q.size(), 2u * kPairs);
  for (int i = 0; i < kPairs; ++i) {
    ASSERT_EQ(rv.q[2 * i], Expr(1)) << "pair " << i;
    ASSERT_EQ(rv.q[2 * i + 1], Expr(2)) << "pair " << i;
  }
}

// ---- The constant-rate solve against the symbolic one ------------------

/// What a solve produced: the vectors and diagnostic, or what it threw.
struct Outcome {
  bool consistent = false;
  std::string diagnostic;
  std::vector<Expr> r;
  std::vector<Expr> q;
  std::string thrown;

  bool operator==(const Outcome&) const = default;
};

template <typename Solve>
Outcome outcomeOf(Solve&& solve) {
  Outcome out;
  try {
    RepetitionVector rv = solve();
    out.consistent = rv.consistent;
    out.diagnostic = rv.diagnostic;
    out.r = std::move(rv.r);
    out.q = std::move(rv.q);
  } catch (const support::Error& e) {
    out.thrown = e.what();
  }
  return out;
}

std::string describe(const Outcome& o) {
  if (!o.thrown.empty()) return "threw: " + o.thrown;
  if (!o.consistent) return "inconsistent: " + o.diagnostic;
  std::string s = "r =";
  for (const Expr& e : o.r) s += " " + e.toString();
  return s;
}

/// A rate list of `phases` entries summing to `total`, zeros allowed.
std::string rateList(support::Prng& rng, std::int64_t total, int phases) {
  std::vector<std::int64_t> parts(static_cast<std::size_t>(phases), 0);
  for (std::int64_t left = total; left > 0;) {
    const std::int64_t take = rng.uniform(1, left);
    parts[static_cast<std::size_t>(rng.uniform(0, phases - 1))] += take;
    left -= take;
  }
  std::string out = "[";
  for (std::size_t i = 0; i < parts.size(); ++i) {
    out += (i ? "," : "") + std::to_string(parts[i]);
  }
  return out + "]";
}

/// A random constant-rate graph: several interleaved components, each a
/// random spanning tree plus chords (parallel channels and self-loops
/// included), rates derived from a hidden solution so that most graphs
/// are consistent, then perturbed: a rate off by one, a zero-rate port,
/// a port with fewer phases than its actor, or a huge rate.
Graph randomConstantGraph(support::Prng& rng, int index) {
  const auto pick = [&](const std::vector<std::size_t>& from) {
    return from[static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(from.size()) - 1))];
  };
  const auto components = static_cast<std::size_t>(rng.uniform(1, 4));
  const auto actors = static_cast<std::size_t>(
      rng.uniform(static_cast<std::int64_t>(components), 12));
  // Component of each actor, shuffled so components interleave in id
  // order; every component has at least one actor.
  std::vector<std::size_t> comp(actors);
  for (std::size_t i = 0; i < actors; ++i) {
    comp[i] = i < components
                  ? i
                  : static_cast<std::size_t>(rng.uniform(
                        0, static_cast<std::int64_t>(components) - 1));
  }
  for (std::size_t i = actors - 1; i > 0; --i) {
    std::swap(comp[i], comp[static_cast<std::size_t>(
                           rng.uniform(0, static_cast<std::int64_t>(i)))]);
  }
  std::vector<std::int64_t> hidden(actors);
  std::vector<int> phases(actors);
  for (std::size_t i = 0; i < actors; ++i) {
    hidden[i] = rng.uniform(1, 6);
    phases[i] = static_cast<int>(rng.uniform(1, 3));
  }
  const auto sameComponent = [&](std::size_t a, bool before) {
    std::vector<std::size_t> out;
    for (std::size_t j = 0; j < (before ? a : actors); ++j) {
      if (comp[j] == comp[a]) out.push_back(j);
    }
    return out;
  };

  std::vector<std::pair<std::size_t, std::size_t>> edges;  // (src, dst)
  for (std::size_t i = 0; i < actors; ++i) {
    const std::vector<std::size_t> earlier = sameComponent(i, true);
    if (earlier.empty()) continue;
    const std::size_t peer = pick(earlier);
    edges.push_back(rng.chance(0.5) ? std::pair{peer, i} : std::pair{i, peer});
  }
  for (std::int64_t chords = rng.uniform(0, 4); chords > 0; --chords) {
    const auto a = static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(actors) - 1));
    edges.emplace_back(a, pick(sameComponent(a, false)));
  }

  Graph g("random" + std::to_string(index));
  for (std::size_t i = 0; i < actors; ++i) {
    g.addActor("K" + std::to_string(i));
  }
  const int flavour = static_cast<int>(rng.uniform(0, 5));
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const auto [src, dst] = edges[e];
    const std::int64_t m = rng.uniform(1, 3);
    const std::int64_t gcd = std::gcd(hidden[src], hidden[dst]);
    std::int64_t prod = hidden[dst] / gcd * m;
    std::int64_t cons = hidden[src] / gcd * m;
    int consPhases = phases[dst];
    if (rng.chance(0.25)) {
      switch (flavour) {
        case 1:  // inconsistent
          ++prod;
          break;
        case 2:  // zero-rate ports
          prod = 0;
          break;
        case 3:
          cons = 0;
          break;
        case 4:  // a port shorter than its actor's phase count
          consPhases = 1;
          break;
        case 5:  // overflow paths
          prod *= std::int64_t{1} << 40;
          consPhases = 1;
          break;
        default:
          break;
      }
    }
    const std::string k = std::to_string(e);
    const graph::PortId out = g.addPort(
        graph::ActorId(static_cast<std::uint32_t>(src)), "o" + k,
        PortKind::DataOut, RateSeq::parse(rateList(rng, prod, phases[src])));
    const graph::PortId in = g.addPort(
        graph::ActorId(static_cast<std::uint32_t>(dst)), "i" + k,
        PortKind::DataIn, RateSeq::parse(rateList(rng, cons, consPhases)));
    g.addChannel("e" + k, out, in, rng.uniform(0, 2));
  }
  return g;
}

TEST(RepetitionVector, ConstantSolveMatchesSymbolicOnRandomGraphs) {
  support::Prng rng(0xC0457A47);
  int consistent = 0;
  int inconsistent = 0;
  int thrown = 0;
  for (int index = 0; index < 600; ++index) {
    const Graph g = randomConstantGraph(rng, index);
    const Outcome fast = outcomeOf([&] { return computeRepetitionVector(g); });
    const Outcome reference =
        outcomeOf([&] { return computeRepetitionVectorSymbolic(g); });
    ASSERT_EQ(fast, reference) << "graph " << index << "\n  constant: "
                               << describe(fast) << "\n  symbolic: "
                               << describe(reference);
    if (!fast.thrown.empty()) {
      ++thrown;
    } else if (fast.consistent) {
      ++consistent;
    } else {
      ++inconsistent;
    }
  }
  // Every branch of the comparison was exercised.
  EXPECT_GE(consistent, 150);
  EXPECT_GE(inconsistent, 100);
  EXPECT_GE(thrown, 5);
}

TEST(RepetitionVector, ConstantSolveOverflowFallsBackToSymbolic) {
  // q_C = 2^80 overflows int64: both solves must raise the same error.
  const Graph huge = GraphBuilder("huge")
                         .kernel("A").out("o", "[1099511627776]")
                         .kernel("B").in("i", "[1]").out("o", "[1099511627776]")
                         .kernel("C").in("i", "[1]")
                         .channel("e1", "A.o", "B.i")
                         .channel("e2", "B.o", "C.i")
                         .build();
  const Outcome fast = outcomeOf([&] { return computeRepetitionVector(huge); });
  EXPECT_FALSE(fast.thrown.empty()) << describe(fast);
  EXPECT_EQ(fast, outcomeOf([&] {
              return computeRepetitionVectorSymbolic(huge);
            }));
}

}  // namespace
}  // namespace tpdf::csdf
