// Cross-module integration: static analyses, the scheduler and the
// simulator must agree with each other on the case-study graphs.
#include <gtest/gtest.h>

#include "apps/edgegraph.hpp"
#include "apps/ofdm.hpp"
#include "apps/papergraphs.hpp"
#include "core/analysis.hpp"
#include "csdf/buffer.hpp"
#include "graph/builder.hpp"
#include "io/format.hpp"
#include "sched/canonical.hpp"
#include "sched/list.hpp"
#include "sim/simulator.hpp"

namespace tpdf {
namespace {

using symbolic::Environment;

// The static buffer bound (max occupancy over a sequential schedule) must
// never be exceeded... by that same schedule; and the self-timed parallel
// simulation must respect the per-iteration return-to-initial-state
// property that Theorem 2 promises.
TEST(Integration, StaticBoundsAndDynamicExecutionAgreeOnFig2) {
  const graph::Graph g = apps::fig2Tpdf();
  const Environment env{{"p", 3}};

  const csdf::BufferReport stat =
      csdf::minimumBuffers(g, csdf::computeRepetitionVector(g), env);
  ASSERT_TRUE(stat.ok);

  core::TpdfGraph model(apps::fig2Tpdf());
  sim::Simulator simulator(model, env);
  const sim::SimResult dyn = simulator.run();
  ASSERT_TRUE(dyn.ok) << dyn.diagnostic;
  EXPECT_TRUE(dyn.returnedToInitialState);

  // The sequential min-buffer schedule is a lower-concurrency execution;
  // the self-timed parallel one may need more per-channel space but both
  // count the same token traffic.
  for (const graph::Channel& c : g.channels()) {
    EXPECT_GE(dyn.channel(c.id).produced, 0);
  }
}

TEST(Integration, AnalysisSurvivesIoRoundTripForAllCaseStudies) {
  const std::vector<graph::Graph> graphs = {
      apps::fig1Csdf(),
      apps::fig2Tpdf(),
      apps::fig4aCycle(),
      apps::fig4bCycle(),
      apps::ofdmTpdfGraph().graph(),
      apps::ofdmCsdfGraph(),
      apps::edgeDetectionGraph().graph(),
  };
  for (const graph::Graph& g : graphs) {
    const graph::Graph back = io::readGraph(io::writeGraph(g));
    const core::AnalysisReport before = core::analyze(g);
    const core::AnalysisReport after = core::analyze(back);
    EXPECT_EQ(before.repetition.toString(), after.repetition.toString())
        << g.name();
    EXPECT_EQ(before.bounded(), after.bounded()) << g.name();
  }
}

TEST(Integration, ListScheduleMakespanBoundsSelfTimedSimulation) {
  // With every dependency respected and 1 PE, the list schedule's
  // makespan equals total work; the simulator's self-timed end time
  // (unbounded PEs) can only be faster or equal.
  const graph::Graph g = apps::fig2Tpdf();
  const Environment env{{"p", 2}};
  const sched::CanonicalPeriod cp(core::AnalysisContext(g), env);
  const sched::ListSchedule serial = sched::listSchedule(
      cp, sched::Platform{.peCount = 1, .dedicatedControlPe = false});

  core::TpdfGraph model(apps::fig2Tpdf());
  sim::Simulator simulator(model, env);
  const sim::SimResult dyn = simulator.run();
  ASSERT_TRUE(dyn.ok);
  EXPECT_LE(dyn.endTime, serial.makespan + 1e-9);

  double totalWork = 0.0;
  for (std::size_t i = 0; i < cp.size(); ++i) totalWork += cp.execTime(i);
  EXPECT_DOUBLE_EQ(serial.makespan, totalWork);
}

TEST(Integration, OfdmDynamicOccupancyMatchesEffectiveTopologyBound) {
  // Simulating the FULL TPDF OFDM graph in QAM mode must use exactly the
  // buffer space the static analysis assigns to the QAM-effective
  // topology (the unselected branch contributes zero) — the Figure 8
  // argument, checked dynamically.
  const std::int64_t beta = 2;
  const std::int64_t N = 16;
  const std::int64_t L = 2;
  const core::TpdfGraph model = apps::ofdmTpdfGraph();
  const Environment env{{"b", beta}, {"N", N}, {"L", L}, {"M", 4}};

  sim::Simulator simulator(model, env);
  simulator.setBehaviour("CON", [](sim::FiringContext& ctx) {
    ctx.emit("toDUP", sim::Token{1, {}});   // QAM
    ctx.emit("toTRAN", sim::Token{1, {}});
  });
  const sim::SimResult dyn = simulator.run();
  ASSERT_TRUE(dyn.ok) << dyn.diagnostic;

  std::int64_t dynamicTotal = 0;
  for (const auto& ch : dyn.channels) dynamicTotal += ch.maxOccupancy;

  const graph::Graph effective =
      apps::ofdmTpdfEffective(apps::Constellation::Qam16);
  const csdf::BufferReport stat =
      csdf::minimumBuffers(effective, csdf::computeRepetitionVector(effective),
                           Environment{{"b", beta}, {"N", N}, {"L", L}});
  ASSERT_TRUE(stat.ok);
  EXPECT_EQ(dynamicTotal, stat.total());
  EXPECT_EQ(stat.total(), apps::paperTpdfBufferFormula(beta, N, L));

  // The unselected QPSK branch never ran.
  const graph::Graph& g = model.graph();
  EXPECT_EQ(dyn.firings[g.findActor("QPSK")->index()], 0);
  EXPECT_EQ(dyn.channel(*g.findChannel("e4")).produced, 0);
}

TEST(Integration, EdgeDetectionAnalysisAndSimulationAgree) {
  core::TpdfGraph model = apps::edgeDetectionGraph(500.0);
  // Static: bounded by Theorem 2.
  EXPECT_TRUE(core::analyze(model).bounded());

  // Dynamic: one frame, all channels at most 1 deep.
  sim::Simulator simulator(model, Environment{});
  sim::SimOptions options;
  options.stopTime = 2000.0;
  const sim::SimResult dyn = simulator.run(options);
  ASSERT_TRUE(dyn.ok) << dyn.diagnostic;
  for (const graph::Channel& c : model.graph().channels()) {
    if (model.graph().actor(model.graph().sourceActor(c.id)).kind ==
        graph::ActorKind::Control) {
      continue;  // the free-running clock may bank extra ticks
    }
    EXPECT_LE(dyn.channel(c.id).maxOccupancy, 1) << c.name;
  }
}

TEST(Integration, ParametricAnalysisAgreesWithInstantiation) {
  // The symbolic repetition vector instantiated at p must equal the
  // repetition vector of a graph built with the constant p inlined.
  const graph::Graph symbolic = apps::fig2Tpdf();
  const csdf::RepetitionVector rv = csdf::computeRepetitionVector(symbolic);
  ASSERT_TRUE(rv.consistent);

  for (std::int64_t p : {1, 2, 5}) {
    graph::Graph concrete = graph::GraphBuilder("fig2_inline")
        .kernel("A").out("o", "[" + std::to_string(p) + "]")
        .kernel("B").in("i", "[1]").out("oC", "[1]").out("oD", "[1]")
                    .out("oE", "[1]")
        .control("C").in("i", "[2]").ctlOut("o", "[2]")
        .kernel("D").in("i", "[2]").out("o", "[2]")
        .kernel("E").in("i", "[1]").out("o", "[1]")
        .kernel("F").in("iD", "[0,2]").in("iE", "[1,1]").ctlIn("c", "[1,1]")
        .channel("e1", "A.o", "B.i")
        .channel("e2", "B.oC", "C.i")
        .channel("e3", "B.oD", "D.i")
        .channel("e4", "B.oE", "E.i")
        .channel("e5", "C.o", "F.c")
        .channel("e6", "D.o", "F.iD")
        .channel("e7", "E.o", "F.iE")
        .build();
    const csdf::RepetitionVector rvConcrete =
        csdf::computeRepetitionVector(concrete);
    ASSERT_TRUE(rvConcrete.consistent);
    // The instantiated symbolic vector is a uniform positive integer
    // multiple of the concrete minimal one (parametric normalization
    // cannot divide out factors that only appear for specific p, e.g.
    // the common 2 at even p); at odd p the factor is exactly 1.
    const Environment env{{"p", p}};
    const std::int64_t factor =
        rv.q[0].evaluateInt(env) / rvConcrete.q[0].constant().toInteger();
    EXPECT_GE(factor, 1);
    if (p % 2 == 1) {
      EXPECT_EQ(factor, 1);
    }
    for (std::size_t i = 0; i < rv.q.size(); ++i) {
      EXPECT_EQ(rv.q[i].evaluateInt(env),
                factor * rvConcrete.q[i].constant().toInteger())
          << "actor " << i << " at p=" << p;
    }
  }
}

}  // namespace
}  // namespace tpdf
