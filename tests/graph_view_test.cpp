// GraphView / AnalysisContext equivalence suite: every precomputed fact
// of the view (CSR adjacency, phase counts, effective-rate tables,
// channel endpoint maps, evaluated integer rates) must be element-wise
// identical to the legacy Graph queries, and every analysis routed
// through a shared context must produce byte-identical answers, on the
// paper graphs and on randomized chains.
#include "graph/view.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/edgegraph.hpp"
#include "apps/ofdm.hpp"
#include "apps/papergraphs.hpp"
#include "apps/randomgraphs.hpp"
#include "core/analysis.hpp"
#include "core/context.hpp"
#include "csdf/buffer.hpp"
#include "csdf/liveness.hpp"
#include "graph/builder.hpp"
#include "sched/canonical.hpp"
#include "sim/simulator.hpp"
#include "support/error.hpp"
#include "support/prng.hpp"

#include "schedule_firings.hpp"

namespace tpdf::graph {
namespace {

using symbolic::Environment;

/// The corpus: every paper graph plus the case studies.  Environments
/// bind each graph's parameters for the concrete-rate checks.
struct CorpusEntry {
  Graph g;
  Environment env;
};

std::vector<CorpusEntry> corpus() {
  std::vector<CorpusEntry> out;
  out.push_back({apps::fig1Csdf(), {}});
  out.push_back({apps::fig2Tpdf(), Environment{{"p", 3}}});
  out.push_back({apps::fig4aCycle(), Environment{{"p", 2}}});
  out.push_back({apps::fig4bCycle(), Environment{{"p", 2}}});
  out.push_back({apps::edgeDetectionGraph().graph(), {}});
  out.push_back({apps::ofdmTpdfEffective(apps::Constellation::Qam16),
                 Environment{{"b", 2}, {"N", 16}, {"L", 4}}});
  out.push_back({apps::ofdmCsdfGraph(),
                 Environment{{"b", 3}, {"N", 8}, {"L", 2}}});
  return out;
}

/// The shared bench/test generator: random consistent chain with
/// repetition counts steered back into [1, 1024].
Graph randomChain(int n, std::uint64_t seed) {
  return apps::randomConsistentChain(n, seed);
}

void expectViewMatchesGraph(const Graph& g, const Environment& env) {
  const GraphView view(g);
  ASSERT_EQ(view.actorCount(), g.actorCount()) << g.name();
  ASSERT_EQ(view.channelCount(), g.channelCount()) << g.name();
  ASSERT_EQ(view.portCount(), g.portCount()) << g.name();

  for (const Actor& a : g.actors()) {
    // CSR adjacency: the view serves the same Graph-owned block the
    // direct queries do, element-wise.
    const auto gOut = g.outChannels(a.id);
    const std::vector<ChannelId> out(gOut.begin(), gOut.end());
    const auto gIn = g.inChannels(a.id);
    const std::vector<ChannelId> in(gIn.begin(), gIn.end());
    const auto outSpan = view.outChannels(a.id);
    const auto inSpan = view.inChannels(a.id);
    ASSERT_EQ(std::vector<ChannelId>(outSpan.begin(), outSpan.end()), out)
        << g.name() << " actor " << a.name;
    ASSERT_EQ(std::vector<ChannelId>(inSpan.begin(), inSpan.end()), in)
        << g.name() << " actor " << a.name;
    EXPECT_EQ(view.phases(a.id), g.phases(a.id))
        << g.name() << " actor " << a.name;
  }

  for (const Channel& c : g.channels()) {
    EXPECT_EQ(view.sourceActor(c.id), g.sourceActor(c.id)) << g.name();
    EXPECT_EQ(view.destActor(c.id), g.destActor(c.id)) << g.name();
  }

  const EvaluatedRates er(view, env);
  for (const Port& p : g.ports()) {
    const RateSeq legacy = g.effectiveRates(p.id);
    EXPECT_EQ(view.effectiveRates(p.id), legacy)
        << g.name() << " port " << p.name;
    EXPECT_EQ(view.periodSum(p.id), legacy.periodSum())
        << g.name() << " port " << p.name;
    // Evaluated table vs per-entry symbolic evaluation, past one period
    // to cover the cyclic wrap.
    const std::int64_t tau = view.phases(p.actor);
    for (std::int64_t k = 0; k < 2 * tau; ++k) {
      EXPECT_EQ(er.at(p.id, k), legacy.at(k).evaluateInt(env))
          << g.name() << " port " << p.name << " firing " << k;
    }
  }
}

TEST(GraphView, MatchesLegacyQueriesOnCorpus) {
  for (const CorpusEntry& entry : corpus()) {
    expectViewMatchesGraph(entry.g, entry.env);
  }
}

TEST(GraphView, MatchesLegacyQueriesOnRandomChains) {
  support::Prng seeds(0xBADC0DE);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = static_cast<int>(seeds.uniform(2, 30));
    const std::uint64_t seed = seeds.next();
    expectViewMatchesGraph(randomChain(n, seed), {});
  }
}

TEST(GraphView, MultiPhasePortsExtendCyclically) {
  // Port lengths 2 and 3 force tau = 6 and a genuine cyclic extension.
  const Graph g = GraphBuilder("multiphase")
                      .kernel("A").out("o", "[2,1]")
                      .kernel("B").in("i", "[1,0,2]")
                      .channel("e", "A.o", "B.i")
                      .build();
  expectViewMatchesGraph(g, {});
  const GraphView view(g);
  EXPECT_EQ(view.phases(*g.findActor("A")), 2);
  EXPECT_EQ(view.phases(*g.findActor("B")), 3);
  EXPECT_EQ(view.effectiveRates(*g.findPort("A.o")).length(), 2u);
}

TEST(EvaluatedRates, NegativeRateRejected) {
  Graph g("neg");
  g.addParam("p");
  const ActorId a = g.addActor("A");
  g.addPort(a, "o", PortKind::DataOut, RateSeq::parse("p-5"));
  const ActorId b = g.addActor("B");
  const PortId i = g.addPort(b, "i", PortKind::DataIn, RateSeq::constant(1));
  g.addChannel("e", *g.findPort("A.o"), i);
  const GraphView view(g);
  EXPECT_THROW(EvaluatedRates(view, Environment{{"p", 2}}), support::Error);
}

// ---- AnalysisContext: memoized intermediates stay byte-identical ------

TEST(AnalysisContext, RepetitionVectorMatchesDirectComputation) {
  for (const CorpusEntry& entry : corpus()) {
    const core::AnalysisContext ctx(entry.g);
    const csdf::RepetitionVector direct =
        csdf::computeRepetitionVector(entry.g);
    const csdf::RepetitionVector& memo = ctx.repetition();
    EXPECT_EQ(memo.consistent, direct.consistent) << entry.g.name();
    EXPECT_EQ(memo.toString(), direct.toString()) << entry.g.name();
    EXPECT_EQ(memo.r, direct.r) << entry.g.name();
    // Second call returns the same object (memoized, not recomputed).
    EXPECT_EQ(&ctx.repetition(), &memo);
  }
}

TEST(AnalysisContext, RateTablesAreMemoizedPerEnvironment) {
  const Graph g = apps::fig2Tpdf();
  const core::AnalysisContext ctx(g);
  const EvaluatedRates& r2 = ctx.rates(Environment{{"p", 2}});
  const EvaluatedRates& r3 = ctx.rates(Environment{{"p", 3}});
  EXPECT_NE(&r2, &r3);
  EXPECT_EQ(&ctx.rates(Environment{{"p", 2}}), &r2);
  EXPECT_EQ(&ctx.rates(Environment{{"p", 3}}), &r3);
}

TEST(AnalysisContext, FullAnalysisReportsAreByteIdentical) {
  for (const CorpusEntry& entry : corpus()) {
    const core::AnalysisReport direct = core::analyze(entry.g, entry.env);
    const core::AnalysisContext ctx(entry.g);
    const core::AnalysisReport first = core::analyze(ctx, entry.env);
    const core::AnalysisReport second = core::analyze(ctx, entry.env);
    EXPECT_EQ(first.toString(entry.g), direct.toString(entry.g))
        << entry.g.name();
    EXPECT_EQ(second.toString(entry.g), direct.toString(entry.g))
        << entry.g.name();
  }
}

TEST(AnalysisContext, SchedulesThroughContextAreByteIdentical) {
  for (const CorpusEntry& entry : corpus()) {
    const core::AnalysisContext ctx(entry.g);
    if (!ctx.repetition().consistent) continue;
    for (const csdf::SchedulePolicy policy :
         {csdf::SchedulePolicy::Eager, csdf::SchedulePolicy::MinOccupancy}) {
      const csdf::LivenessResult direct =
          csdf::findSchedule(entry.g, entry.env, policy);
      const csdf::LivenessResult shared =
          csdf::findSchedule(ctx.view(), ctx.repetition(), entry.env, policy,
                             &ctx.rates(entry.env));
      ASSERT_EQ(shared.live, direct.live) << entry.g.name();
      ASSERT_EQ(shared.q, direct.q) << entry.g.name();
      const std::vector<csdf::Firing> sharedOrder =
          csdf::expandFirings(shared.schedule);
      const std::vector<csdf::Firing> directOrder =
          csdf::expandFirings(direct.schedule);
      ASSERT_EQ(sharedOrder.size(), directOrder.size());
      for (std::size_t i = 0; i < directOrder.size(); ++i) {
        EXPECT_TRUE(sharedOrder[i] == directOrder[i])
            << entry.g.name() << " firing " << i;
      }
    }
  }
}

TEST(AnalysisContext, MinimumBuffersThroughContextMatch) {
  const Graph g = apps::ofdmTpdfEffective(apps::Constellation::Qam16);
  const Environment env{{"b", 2}, {"N", 16}, {"L", 4}};
  const core::AnalysisContext ctx(g);
  const csdf::BufferReport direct = csdf::minimumBuffers(g, env);
  const csdf::BufferReport shared = csdf::minimumBuffers(
      ctx.view(), ctx.repetition(), env, csdf::SchedulePolicy::MinOccupancy,
      &ctx.rates(env));
  ASSERT_EQ(shared.ok, direct.ok);
  EXPECT_EQ(shared.perChannel, direct.perChannel);
}

TEST(AnalysisContext, CanonicalPeriodThroughContextMatches) {
  for (const CorpusEntry& entry : corpus()) {
    const core::AnalysisContext ctx(entry.g);
    if (!ctx.repetition().consistent) continue;
    const sched::CanonicalPeriod direct(entry.g, entry.env);
    const sched::CanonicalPeriod shared(ctx, entry.env);
    ASSERT_EQ(shared.size(), direct.size()) << entry.g.name();
    for (std::size_t i = 0; i < direct.size(); ++i) {
      EXPECT_TRUE(shared.node(i) == direct.node(i)) << entry.g.name();
      EXPECT_EQ(shared.successors(i), direct.successors(i))
          << entry.g.name() << " node " << i;
      EXPECT_EQ(shared.predecessors(i), direct.predecessors(i))
          << entry.g.name() << " node " << i;
    }
  }
}

TEST(AnalysisContext, SimulatorTraceThroughContextIsIdentical) {
  const core::TpdfGraph model = apps::fig2TpdfModel();
  const Environment env{{"p", 2}};
  sim::SimOptions options;
  options.recordTrace = true;

  sim::Simulator direct(model, env);
  const sim::SimResult directResult = direct.run(options);

  const core::AnalysisContext ctx(model.graph());
  sim::Simulator shared(model, env, &ctx);
  const sim::SimResult sharedResult = shared.run(options);

  ASSERT_EQ(sharedResult.ok, directResult.ok);
  EXPECT_EQ(sharedResult.renderTrace(model.graph()),
            directResult.renderTrace(model.graph()));
  EXPECT_EQ(sharedResult.totalFirings, directResult.totalFirings);
  EXPECT_EQ(sharedResult.returnedToInitialState,
            directResult.returnedToInitialState);
}

TEST(AnalysisContext, SimulatorRejectsForeignContext) {
  const core::TpdfGraph model = apps::fig2TpdfModel();
  const Graph other = apps::fig1Csdf();
  const core::AnalysisContext ctx(other);
  EXPECT_THROW(sim::Simulator(model, Environment{{"p", 2}}, &ctx),
               support::Error);
}

}  // namespace
}  // namespace tpdf::graph
