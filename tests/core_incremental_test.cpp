// Incremental re-analysis: AnalysisContext must stay byte-equal to
// fresh computation across graph edits while recomputing only the
// touched components (verified through its stats counters), and the
// masked repetition/liveness primitives it builds on must agree with
// their full-graph counterparts component-wise.
#include "core/context.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "csdf/liveness.hpp"
#include "csdf/repetition.hpp"
#include "graph/builder.hpp"
#include "graph/graph.hpp"
#include "support/error.hpp"

#include "schedule_firings.hpp"

namespace tpdf::core {
namespace {

using graph::ActorId;
using graph::Graph;
using graph::GraphBuilder;
using graph::PortKind;
using graph::RateSeq;
using symbolic::Environment;

/// Two independent chains: component 0 = {A, B}, component 1 = {C, D}.
Graph twoChains() {
  return GraphBuilder("twochains")
      .kernel("A").out("o", "[2]")
      .kernel("B").in("i", "[1]")
      .kernel("C").out("o", "[1]")
      .kernel("D").in("i", "[1]")
      .channel("e1", "A.o", "B.i")
      .channel("e2", "C.o", "D.i")
      .build();
}

/// Extends the {C, D} component with a new consumer E fed from D.
void extendSecondChain(Graph& g) {
  const ActorId d = *g.findActor("D");
  const ActorId e = g.addActor("E", graph::ActorKind::Kernel);
  g.addPort(d, "o", PortKind::DataOut, RateSeq::parse("[1]"));
  g.addPort(e, "i", PortKind::DataIn, RateSeq::parse("[1]"));
  g.addChannel("e3", *g.findPort("D.o"), *g.findPort("E.i"));
}

void expectRepetitionMatchesFresh(const AnalysisContext& ctx,
                                  const Graph& g) {
  const csdf::RepetitionVector fresh = csdf::computeRepetitionVector(g);
  const csdf::RepetitionVector& memo = ctx.repetition();
  ASSERT_EQ(memo.consistent, fresh.consistent);
  EXPECT_EQ(memo.toString(), fresh.toString());
  EXPECT_EQ(memo.r, fresh.r);
  EXPECT_EQ(memo.q, fresh.q);
}

TEST(IncrementalContext, EditRecomputesOnlyTouchedComponent) {
  Graph g = twoChains();
  AnalysisContext ctx(g);
  expectRepetitionMatchesFresh(ctx, g);
  ASSERT_EQ(ctx.componentCount(), 2u);

  extendSecondChain(g);
  expectRepetitionMatchesFresh(ctx, g);

  const AnalysisContext::Stats& s = ctx.stats();
  EXPECT_EQ(s.syncs, 1u);
  EXPECT_EQ(s.fullRebuilds, 0u);
  // {A, B} reused verbatim; {C, D, E} re-solved.
  EXPECT_EQ(s.repetitionActorsReused, 2u);
  EXPECT_EQ(s.repetitionActorsResolved, 3u);
  EXPECT_EQ(ctx.componentCount(), 2u);
  EXPECT_EQ(ctx.componentOf(*g.findActor("A")),
            ctx.componentOf(*g.findActor("B")));
  EXPECT_EQ(ctx.componentOf(*g.findActor("D")),
            ctx.componentOf(*g.findActor("E")));
  EXPECT_NE(ctx.componentOf(*g.findActor("A")),
            ctx.componentOf(*g.findActor("E")));
}

TEST(IncrementalContext, LivenessVerdictSurvivesEditsToOtherComponents) {
  Graph g = twoChains();
  AnalysisContext ctx(g);
  std::string diag;
  ASSERT_TRUE(ctx.live({}, csdf::SchedulePolicy::Eager, &diag)) << diag;
  ASSERT_EQ(ctx.stats().livenessComponentsComputed, 2u);

  extendSecondChain(g);
  EXPECT_TRUE(ctx.live({}));
  // Component {A, B} untouched: its verdict is served from cache; only
  // the extended component is re-simulated.
  EXPECT_EQ(ctx.stats().livenessComponentsReused, 1u);
  EXPECT_EQ(ctx.stats().livenessComponentsComputed, 3u);
  EXPECT_EQ(ctx.live({}),
            csdf::findSchedule(g, csdf::computeRepetitionVector(g)).live);
}

TEST(IncrementalContext, DeadlockedComponentVerdictIsCachedAndReported) {
  // Component 0 = {A, B} live chain; component 1 = {X, Y} token-free
  // cycle (deadlocked but consistent).
  Graph g = GraphBuilder("withcycle")
                .kernel("A").out("o", "[1]")
                .kernel("B").in("i", "[1]")
                .kernel("X").in("i", "[1]").out("o", "[1]")
                .kernel("Y").in("i", "[1]").out("o", "[1]")
                .channel("e1", "A.o", "B.i")
                .channel("c1", "X.o", "Y.i")
                .channel("c2", "Y.o", "X.i")
                .build();
  AnalysisContext ctx(g);
  std::string diag;
  EXPECT_FALSE(ctx.live({}, csdf::SchedulePolicy::Eager, &diag));
  EXPECT_NE(diag.find("deadlock"), std::string::npos) << diag;
  EXPECT_EQ(ctx.live({}),
            csdf::findSchedule(g, csdf::computeRepetitionVector(g)).live);

  // Editing the live chain must not re-simulate the dead cycle.
  const ActorId b = *g.findActor("B");
  const ActorId f = g.addActor("F", graph::ActorKind::Kernel);
  g.addPort(b, "o", PortKind::DataOut, RateSeq::parse("[1]"));
  g.addPort(f, "i", PortKind::DataIn, RateSeq::parse("[1]"));
  g.addChannel("e2", *g.findPort("B.o"), *g.findPort("F.i"));
  const std::uint64_t computedBefore =
      ctx.stats().livenessComponentsComputed;
  EXPECT_FALSE(ctx.live({}));
  EXPECT_EQ(ctx.stats().livenessComponentsComputed, computedBefore + 1);
}

TEST(IncrementalContext, ExecTimeEditsKeepRateTablesAndRepetition) {
  Graph g = twoChains();
  AnalysisContext ctx(g);
  const graph::EvaluatedRates& before = ctx.rates({});
  ctx.repetition();

  g.setExecTime(*g.findActor("A"), std::vector<double>{2.0, 3.0});
  EXPECT_EQ(&ctx.rates({}), &before);  // same cached table
  expectRepetitionMatchesFresh(ctx, g);
  const AnalysisContext::Stats& s = ctx.stats();
  EXPECT_EQ(s.rateTablesKept, 1u);
  EXPECT_EQ(s.rateTablesDropped, 0u);
  // Exec times touch no balance equation: nothing was re-solved.
  EXPECT_EQ(s.repetitionActorsResolved, 0u);
}

TEST(IncrementalContext, ShapeEditsDropRateTables) {
  Graph g = twoChains();
  AnalysisContext ctx(g);
  ctx.rates({});
  extendSecondChain(g);  // addPort changes the rate-table layout
  const graph::EvaluatedRates& after = ctx.rates({});
  EXPECT_EQ(ctx.stats().rateTablesDropped, 1u);
  // The new table covers the new port.
  EXPECT_EQ(after.of(*g.findPort("E.i")).size(), 1u);
}

TEST(IncrementalContext, ComponentMergeInvalidatesBothSides) {
  Graph g = twoChains();
  AnalysisContext ctx(g);
  ctx.repetition();
  ASSERT_TRUE(ctx.live({}));
  ASSERT_EQ(ctx.componentCount(), 2u);

  // Bridge B -> C: the two components merge into one.
  g.addPort(*g.findActor("B"), "o", PortKind::DataOut, RateSeq::parse("[1]"));
  g.addPort(*g.findActor("C"), "i", PortKind::DataIn, RateSeq::parse("[2]"));
  g.addChannel("bridge", *g.findPort("B.o"), *g.findPort("C.i"));

  EXPECT_EQ(ctx.componentCount(), 1u);
  expectRepetitionMatchesFresh(ctx, g);
  EXPECT_EQ(ctx.live({}),
            csdf::findSchedule(g, csdf::computeRepetitionVector(g)).live);
  // The merged component has a new signature: no stale verdict reuse.
  EXPECT_EQ(ctx.stats().livenessComponentsReused, 0u);
}

TEST(IncrementalContext, TruncatedTouchLogFallsBackToFullRebuild) {
  Graph g = twoChains();
  AnalysisContext ctx(g);
  ctx.repetition();
  ctx.rates({});
  // Far more edits than the graph's touch log retains in one sync gap.
  const ActorId a = *g.findActor("A");
  for (int i = 0; i < 1100; ++i) {
    g.setExecTime(a, std::vector<double>{static_cast<double>(i + 1)});
  }
  expectRepetitionMatchesFresh(ctx, g);
  EXPECT_GE(ctx.stats().fullRebuilds, 1u);
  EXPECT_TRUE(ctx.live({}));
}

TEST(IncrementalContext, ManySmallEditsStayIncremental) {
  // Grow one chain actor-by-actor, syncing after every edit batch: every
  // sync must be incremental (no full rebuilds) and every answer equal
  // to fresh computation.
  Graph g = twoChains();
  AnalysisContext ctx(g);
  ctx.repetition();
  std::string prev = "D";
  for (int i = 0; i < 8; ++i) {
    const std::string next = "N" + std::to_string(i);
    const ActorId p = *g.findActor(prev);
    const ActorId q = g.addActor(next, graph::ActorKind::Kernel);
    g.addPort(p, "o" + std::to_string(i), PortKind::DataOut,
              RateSeq::parse("[2]"));
    g.addPort(q, "i", PortKind::DataIn, RateSeq::parse("[1]"));
    g.addChannel("g" + std::to_string(i),
                 *g.findPort(prev + ".o" + std::to_string(i)),
                 *g.findPort(next + ".i"));
    expectRepetitionMatchesFresh(ctx, g);
    prev = next;
  }
  const AnalysisContext::Stats& s = ctx.stats();
  EXPECT_EQ(s.fullRebuilds, 0u);
  EXPECT_EQ(s.syncs, 8u);
  // {A, B} was reused on every one of the 8 syncs.
  EXPECT_EQ(s.repetitionActorsReused, 16u);
}

// ---- Masked primitives agree with their full-graph counterparts ------

TEST(MaskedRepetition, ComponentEntriesMatchFullSolve) {
  const Graph g = twoChains();
  const csdf::RepetitionVector full = csdf::computeRepetitionVector(g);
  ASSERT_TRUE(full.consistent);

  std::vector<char> mask(g.actorCount(), 0);
  mask[g.findActor("C")->index()] = 1;
  mask[g.findActor("D")->index()] = 1;
  const csdf::RepetitionVector partial =
      csdf::computeRepetitionVector(g, mask);
  ASSERT_TRUE(partial.consistent);
  for (std::size_t i = 0; i < g.actorCount(); ++i) {
    if (mask[i]) {
      EXPECT_EQ(partial.r[i], full.r[i]) << "actor " << i;
      EXPECT_EQ(partial.q[i], full.q[i]) << "actor " << i;
    }
  }
}

TEST(MaskedRepetition, SplittingAComponentThrows) {
  const Graph g = twoChains();
  std::vector<char> mask(g.actorCount(), 0);
  mask[g.findActor("A")->index()] = 1;  // B left out: e1 is cut
  EXPECT_THROW(csdf::computeRepetitionVector(g, mask), support::Error);
}

TEST(MaskedRepetition, MaskOneEntryShortIsRejected) {
  const Graph g = twoChains();
  const std::vector<char> mask(g.actorCount() - 1, 1);
  EXPECT_THROW(csdf::computeRepetitionVector(g, mask), support::Error);
}

TEST(MaskedLiveness, ComponentScheduleMatchesStandaloneGraph) {
  const Graph g = twoChains();
  const csdf::RepetitionVector rv = csdf::computeRepetitionVector(g);
  std::vector<char> mask(g.actorCount(), 0);
  mask[g.findActor("A")->index()] = 1;
  mask[g.findActor("B")->index()] = 1;
  const csdf::LivenessResult masked = csdf::findSchedule(
      g, rv, {}, csdf::SchedulePolicy::Eager, nullptr, nullptr, mask);
  ASSERT_TRUE(masked.live);

  // Same component as its own graph.
  const Graph alone = GraphBuilder("alone")
                          .kernel("A").out("o", "[2]")
                          .kernel("B").in("i", "[1]")
                          .channel("e1", "A.o", "B.i")
                          .build();
  const csdf::LivenessResult standalone =
      csdf::findSchedule(alone, csdf::computeRepetitionVector(alone));
  ASSERT_TRUE(standalone.live);
  const std::vector<csdf::Firing> maskedOrder =
      csdf::expandFirings(masked.schedule);
  const std::vector<csdf::Firing> standaloneOrder =
      csdf::expandFirings(standalone.schedule);
  ASSERT_EQ(maskedOrder.size(), standaloneOrder.size());
  for (std::size_t i = 0; i < standaloneOrder.size(); ++i) {
    EXPECT_TRUE(maskedOrder[i] == standaloneOrder[i])
        << "firing " << i;
  }
  // Excluded actors never fire and carry q = 0.
  EXPECT_EQ(masked.q[g.findActor("C")->index()], 0);
  EXPECT_EQ(masked.q[g.findActor("D")->index()], 0);
}

TEST(MaskedLiveness, MaskOneEntryShortIsRejected) {
  const Graph g = twoChains();
  const csdf::RepetitionVector rv = csdf::computeRepetitionVector(g);
  const std::vector<char> mask(g.actorCount() - 1, 1);
  EXPECT_THROW(csdf::findSchedule(g, rv, {}, csdf::SchedulePolicy::Eager,
                                  nullptr, nullptr, mask),
               support::Error);
}

}  // namespace
}  // namespace tpdf::core
