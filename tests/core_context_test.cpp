// The frozen Graph and the AnalysisContext built over it.
//
// Graph serves its derived facts (CSR adjacency, phase counts, cyclic
// rate extensions, channel endpoints, rate-table layout) from a block
// built once when it is sealed; these must match a direct walk of the
// actors, ports and channels.  Every analysis routed through a shared
// AnalysisContext must produce byte-identical answers to a fresh
// computation, on the paper graphs and on randomized chains.
#include "core/context.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "apps/edgegraph.hpp"
#include "apps/ofdm.hpp"
#include "apps/papergraphs.hpp"
#include "apps/randomgraphs.hpp"
#include "core/analysis.hpp"
#include "csdf/buffer.hpp"
#include "csdf/liveness.hpp"
#include "graph/builder.hpp"
#include "graph/rates.hpp"
#include "sched/canonical.hpp"
#include "sim/simulator.hpp"
#include "support/checked.hpp"
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

// ---- Reference walks over the unfrozen actors, ports and channels ------

std::int64_t referencePhases(const Graph& g, ActorId a) {
  std::int64_t tau = 1;
  for (PortId p : g.actor(a).ports) {
    tau = support::lcm64(tau,
                         static_cast<std::int64_t>(g.port(p).rates().length()));
  }
  return tau;
}

RateSeq referenceEffectiveRates(const Graph& g, PortId p) {
  const Port& pt = g.port(p);
  std::vector<symbolic::Expr> entries;
  for (std::int64_t i = 0; i < referencePhases(g, pt.actor); ++i) {
    entries.push_back(pt.rates().at(i));
  }
  return RateSeq(std::move(entries));
}

std::vector<ChannelId> referenceChannels(const Graph& g, ActorId a,
                                         bool inputs) {
  std::vector<ChannelId> out;
  for (PortId p : g.actor(a).ports) {
    const Port& pt = g.port(p);
    if (pt.channel.valid() && isInput(pt.kind) == inputs) {
      out.push_back(pt.channel);
    }
  }
  return out;
}

void expectFrozenMatchesReference(const Graph& g, const Environment& env) {
  for (const Actor& a : g.actors()) {
    const auto out = g.outChannels(a.id);
    const auto in = g.inChannels(a.id);
    EXPECT_EQ(std::vector<ChannelId>(out.begin(), out.end()),
              referenceChannels(g, a.id, /*inputs=*/false))
        << g.name() << " actor " << a.name;
    EXPECT_EQ(std::vector<ChannelId>(in.begin(), in.end()),
              referenceChannels(g, a.id, /*inputs=*/true))
        << g.name() << " actor " << a.name;
    EXPECT_EQ(g.phases(a.id), referencePhases(g, a.id))
        << g.name() << " actor " << a.name;
  }

  for (const Channel& c : g.channels()) {
    EXPECT_EQ(g.sourceActor(c.id), g.port(c.src).actor) << g.name();
    EXPECT_EQ(g.destActor(c.id), g.port(c.dst).actor) << g.name();
  }

  // Rate tables are laid out port by port, each port's slice one period
  // of its actor long.
  const EvaluatedRates er(g, env);
  std::size_t offset = 0;
  for (const Port& p : g.ports()) {
    const RateSeq reference = referenceEffectiveRates(g, p.id);
    EXPECT_EQ(g.effectiveRates(p.id), reference)
        << g.name() << " port " << p.name;
    EXPECT_EQ(g.rateOffset(p.id), offset) << g.name() << " port " << p.name;
    offset += reference.length();
    // Evaluated table vs per-entry symbolic evaluation, past one period
    // to cover the cyclic wrap.
    const std::int64_t tau = referencePhases(g, p.actor);
    EXPECT_EQ(er.of(p.id).size(), static_cast<std::size_t>(tau));
    for (std::int64_t k = 0; k < 2 * tau; ++k) {
      EXPECT_EQ(er.at(p.id, k), p.rates().at(k).evaluateInt(env))
          << g.name() << " port " << p.name << " firing " << k;
    }
  }
  EXPECT_EQ(g.rateTableSize(), offset) << g.name();
}

Graph multiphase() {
  // Port lengths 2 and 3 force tau = 6 on B and a genuine extension.
  return GraphBuilder("multiphase")
      .kernel("A").out("o", "[2,1]")
      .kernel("B").in("i", "[1,0,2]").out("o", "[1,1]")
      .kernel("C").in("i", "[3]")
      .channel("e", "A.o", "B.i")
      .channel("f", "B.o", "C.i")
      .build();
}

TEST(FrozenGraph, MatchesReferenceOnCorpus) {
  for (const CorpusEntry& entry : corpus()) {
    expectFrozenMatchesReference(entry.g, entry.env);
  }
}

TEST(FrozenGraph, MatchesReferenceOnRandomChains) {
  support::Prng seeds(0xBADC0DE);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = static_cast<int>(seeds.uniform(2, 30));
    const std::uint64_t seed = seeds.next();
    expectFrozenMatchesReference(apps::randomConsistentChain(n, seed), {});
  }
}

TEST(FrozenGraph, MultiPhasePortsExtendCyclically) {
  const Graph g = multiphase();
  expectFrozenMatchesReference(g, {});
  EXPECT_EQ(g.phases(*g.findActor("A")), 2);
  EXPECT_EQ(g.phases(*g.findActor("B")), 6);
  EXPECT_EQ(g.effectiveRates(*g.findPort("A.o")).length(), 2u);
  EXPECT_EQ(g.effectiveRates(*g.findPort("B.o")).toString(),
            "[1,1,1,1,1,1]");
}

TEST(EvaluatedRates, NegativeRateRejected) {
  Graph g("neg");
  g.addParam("p");
  const ActorId a = g.addActor("A");
  g.addPort(a, "o", PortKind::DataOut, RateSeq::parse("p-5"));
  const ActorId b = g.addActor("B");
  const PortId i = g.addPort(b, "i", PortKind::DataIn, RateSeq::constant(1));
  g.addChannel("e", *g.findPort("A.o"), i);
  EXPECT_THROW(EvaluatedRates(g, Environment{{"p", 2}}), support::Error);
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

bool sameTable(const Graph& g, const EvaluatedRates& a,
               const EvaluatedRates& b) {
  return std::ranges::all_of(g.ports(), [&](const Port& p) {
    return std::ranges::equal(a.of(p.id), b.of(p.id));
  });
}

TEST(AnalysisContext, RateMemoKeepsTheMostRecentlyUsedTables) {
  const Graph g = apps::fig2Tpdf();
  const core::AnalysisContext ctx(g);
  constexpr std::int64_t kValuations = core::AnalysisContext::kRateTables + 5;
  const EvaluatedRates* previous = nullptr;
  const EvaluatedRates* latest = nullptr;
  for (std::int64_t p = 1; p <= kValuations; ++p) {
    previous = latest;
    latest = &ctx.rates(Environment{{"p", p}});
    EXPECT_LE(ctx.rateTableCount(), core::AnalysisContext::kRateTables);
  }
  EXPECT_EQ(ctx.rateTableCount(), core::AnalysisContext::kRateTables);
  // The two most recently used tables are still the live ones.
  EXPECT_TRUE(sameTable(g, *previous,
                        EvaluatedRates(g, Environment{{"p", kValuations - 1}})));
  EXPECT_TRUE(sameTable(g, *latest,
                        EvaluatedRates(g, Environment{{"p", kValuations}})));
  EXPECT_EQ(&ctx.rates(Environment{{"p", kValuations - 1}}), previous);
  EXPECT_EQ(&ctx.rates(Environment{{"p", kValuations}}), latest);
}

TEST(AnalysisContext, HeldTableSurvivesTheOtherSlotsOfTheMemo) {
  // A caller may hold one table while asking for kRateTables - 1 others;
  // using it again makes it the most recently used.
  const Graph g = apps::fig2Tpdf();
  const core::AnalysisContext ctx(g);
  const EvaluatedRates& held = ctx.rates(Environment{{"p", 1}});
  for (std::int64_t round = 0; round < 3; ++round) {
    for (std::size_t k = 1; k < core::AnalysisContext::kRateTables; ++k) {
      ctx.rates(Environment{{"p", static_cast<std::int64_t>(k) + 1 +
                                      round * 100}});
    }
    EXPECT_EQ(&ctx.rates(Environment{{"p", 1}}), &held);
  }
  EXPECT_TRUE(sameTable(g, held, EvaluatedRates(g, Environment{{"p", 1}})));
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
      const csdf::LivenessResult direct = csdf::findSchedule(
          entry.g, csdf::computeRepetitionVector(entry.g), entry.env, policy);
      const csdf::LivenessResult shared =
          csdf::findSchedule(ctx.graph(), ctx.repetition(), entry.env, policy,
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
  const csdf::BufferReport direct =
      csdf::minimumBuffers(g, csdf::computeRepetitionVector(g), env);
  const csdf::BufferReport shared = csdf::minimumBuffers(
      ctx.graph(), ctx.repetition(), env, csdf::SchedulePolicy::MinOccupancy,
      &ctx.rates(env));
  ASSERT_EQ(shared.ok, direct.ok);
  EXPECT_EQ(shared.perChannel, direct.perChannel);
}

TEST(AnalysisContext, CanonicalPeriodThroughContextMatches) {
  for (const CorpusEntry& entry : corpus()) {
    const core::AnalysisContext ctx(entry.g);
    if (!ctx.repetition().consistent) continue;
    const sched::CanonicalPeriod direct(
        entry.g, csdf::computeRepetitionVector(entry.g),
        EvaluatedRates(entry.g, entry.env), entry.env);
    const sched::CanonicalPeriod shared(ctx, entry.env);
    ASSERT_EQ(shared.size(), direct.size()) << entry.g.name();
    for (std::size_t i = 0; i < direct.size(); ++i) {
      EXPECT_TRUE(shared.node(i) == direct.node(i)) << entry.g.name();
      EXPECT_TRUE(std::ranges::equal(shared.successors(i),
                                     direct.successors(i)))
          << entry.g.name() << " node " << i;
      EXPECT_TRUE(std::ranges::equal(shared.predecessors(i),
                                     direct.predecessors(i)))
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
