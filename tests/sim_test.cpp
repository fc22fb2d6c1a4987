#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <filesystem>

#include "apps/edgegraph.hpp"
#include "apps/papergraphs.hpp"
#include "apps/randomgraphs.hpp"
#include "graph/builder.hpp"
#include "graph/rates.hpp"
#include "io/format.hpp"
#include "platform/spec.hpp"
#include "support/json.hpp"

namespace tpdf::sim {
namespace {

using graph::Graph;
using graph::GraphBuilder;
using symbolic::Environment;

TEST(Simulator, Figure1OneIterationReturnsToInitialState) {
  core::TpdfGraph model(apps::fig1Csdf());
  Simulator sim(model, Environment{});
  const SimResult result = sim.run();
  ASSERT_TRUE(result.ok) << result.diagnostic;
  EXPECT_EQ(result.firings, (std::vector<std::int64_t>{3, 2, 2}));
  EXPECT_TRUE(result.returnedToInitialState);
}

TEST(Simulator, MultipleIterations) {
  core::TpdfGraph model(apps::fig1Csdf());
  Simulator sim(model, Environment{});
  SimOptions options;
  options.iterations = 5;
  const SimResult result = sim.run(options);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.firings, (std::vector<std::int64_t>{15, 10, 10}));
  EXPECT_TRUE(result.returnedToInitialState);
}

TEST(Simulator, Figure2ParametricExecution) {
  core::TpdfGraph model = apps::fig2TpdfModel();
  Simulator sim(model, Environment{{"p", 3}});
  const SimResult result = sim.run();
  ASSERT_TRUE(result.ok) << result.diagnostic;
  const Graph& g = model.graph();
  EXPECT_EQ(result.firings[g.findActor("B")->index()], 6);
  EXPECT_EQ(result.firings[g.findActor("F")->index()], 6);
  EXPECT_TRUE(result.returnedToInitialState);
}

TEST(Simulator, SelfTimedParallelismBeatsSequentialTime) {
  // Two independent unit-time actors connected to a sink fire in
  // parallel: end time is below the firing count.
  const Graph g = GraphBuilder("par")
      .kernel("A").out("o", "[1]")
      .kernel("B").out("o", "[1]")
      .kernel("S").in("a", "[1]").in("b", "[1]")
      .channel("ea", "A.o", "S.a")
      .channel("eb", "B.o", "S.b")
      .build();
  core::TpdfGraph model(g);
  Simulator sim(model, Environment{});
  const SimResult result = sim.run();
  ASSERT_TRUE(result.ok);
  EXPECT_DOUBLE_EQ(result.endTime, 2.0);  // A||B then S
}

TEST(Simulator, BehavioursCarryPayloads) {
  const Graph g = GraphBuilder("payload")
      .kernel("SRC").out("o", "[1]")
      .kernel("DBL").in("i", "[1]").out("o", "[1]")
      .kernel("SNK").in("i", "[1]")
      .channel("e1", "SRC.o", "DBL.i")
      .channel("e2", "DBL.o", "SNK.i")
      .build();
  core::TpdfGraph model(g);
  Simulator sim(model, Environment{});

  std::int64_t observed = -1;
  sim.setBehaviour("SRC", [](FiringContext& ctx) {
    ctx.emit("o", Token{21, {}});
  });
  sim.setBehaviour("DBL", [](FiringContext& ctx) {
    const Token& in = ctx.inputs("i").at(0);
    ctx.emit("o", Token{in.tag * 2, {}});
  });
  sim.setBehaviour("SNK", [&](FiringContext& ctx) {
    observed = ctx.inputs("i").at(0).tag;
  });

  const SimResult result = sim.run();
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(observed, 42);
}

TEST(Simulator, BehaviourOverridesDuration) {
  const Graph g = GraphBuilder("slow")
      .kernel("A").out("o", "[1]")
      .kernel("B").in("i", "[1]")
      .channel("e", "A.o", "B.i")
      .build();
  core::TpdfGraph model(g);
  Simulator sim(model, Environment{});
  sim.setBehaviour("A", [](FiringContext& ctx) { ctx.setDuration(7.5); });
  const SimResult result = sim.run();
  ASSERT_TRUE(result.ok);
  EXPECT_DOUBLE_EQ(result.endTime, 8.5);  // 7.5 + B's default 1.0
}

TEST(Simulator, OveremittingBehaviourRejected) {
  const Graph g = GraphBuilder("over")
      .kernel("A").out("o", "[1]")
      .kernel("B").in("i", "[1]")
      .channel("e", "A.o", "B.i")
      .build();
  core::TpdfGraph model(g);
  Simulator sim(model, Environment{});
  sim.setBehaviour("A", [](FiringContext& ctx) {
    ctx.emit("o", Token{});
    ctx.emit("o", Token{});
  });
  EXPECT_THROW(sim.run(), support::Error);
}

TEST(Simulator, MaxOccupancyTracked) {
  const Graph g = GraphBuilder("burst")
      .kernel("A").out("o", "[4]")
      .kernel("B").in("i", "[1]")
      .channel("e", "A.o", "B.i")
      .build();
  core::TpdfGraph model(g);
  Simulator sim(model, Environment{});
  const SimResult result = sim.run();
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.channel(*g.findChannel("e")).maxOccupancy, 4);
  EXPECT_EQ(result.channel(*g.findChannel("e")).produced, 4);
  EXPECT_EQ(result.channel(*g.findChannel("e")).consumed, 4);
}

// ---- Mode selection -----------------------------------------------------

TEST(Simulator, ControlTokenSelectsMode) {
  // CTL steers the Select-duplicate B: tag 0 -> D, tag 1 -> E.
  core::TpdfGraph model = apps::fig3SelectDuplicate();
  const Graph& g = model.graph();

  for (std::int64_t chosen : {0, 1}) {
    Simulator sim(model, Environment{});
    sim.setBehaviour("CTL", [chosen](FiringContext& ctx) {
      ctx.emit("toB", Token{chosen, {}});
      ctx.emit("toF", Token{chosen, {}});
    });
    const SimResult result = sim.run();
    ASSERT_TRUE(result.ok) << result.diagnostic;

    // The selected branch carried a token; the other was starved or its
    // output discarded.  In either mode both D and E fire at most q
    // times, but only the selected branch's tokens reach F.
    const auto& e2 = result.channel(*g.findChannel("e2"));  // B -> D
    const auto& e3 = result.channel(*g.findChannel("e3"));  // B -> E
    if (chosen == 0) {
      EXPECT_EQ(e2.produced, 1);
      EXPECT_EQ(e3.produced, 0);
    } else {
      EXPECT_EQ(e2.produced, 0);
      EXPECT_EQ(e3.produced, 1);
    }
  }
}

TEST(Simulator, RejectedInputTokensAreDiscarded) {
  // F receives on both inputs but its mode selects only one; the other
  // side's token must be discarded so the state stays clean.
  const Graph g = GraphBuilder("discard")
      .kernel("P1").out("o", "[1]")
      .kernel("P2").out("o", "[1]")
      .kernel("S").out("sig", "[1]")
      .control("CTL").in("i", "[1]").ctlOut("o", "[1]")
      .kernel("F").in("a", "[1]", 1).in("b", "[1]", 2).ctlIn("c", "[1]")
      .channel("ea", "P1.o", "F.a")
      .channel("eb", "P2.o", "F.b")
      .channel("sig", "S.sig", "CTL.i")
      .channel("ctl", "CTL.o", "F.c")
      .build();
  core::TpdfGraph model(g);
  model.setModes(*g.findActor("F"),
                 {core::ModeSpec{"take_a", core::Mode::SelectOne,
                                 {*g.findPort("F.a")}, {}}});
  Simulator sim(model, Environment{});
  const SimResult result = sim.run();
  ASSERT_TRUE(result.ok) << result.diagnostic;
  EXPECT_EQ(result.channel(*g.findChannel("ea")).consumed, 1);
  EXPECT_EQ(result.channel(*g.findChannel("eb")).discarded, 1);
  EXPECT_TRUE(result.returnedToInitialState);
}

// ---- Clock actors and deadline-driven Transaction ------------------------

TEST(Simulator, ClockRequiresFiniteStopTime) {
  core::TpdfGraph model = apps::edgeDetectionGraph();
  Simulator sim(model, Environment{});
  const SimResult result = sim.run(SimOptions{});  // infinite stopTime
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.diagnostic.find("stopTime"), std::string::npos);
}

TEST(Simulator, DeadlinePicksBestAvailableDetector) {
  // Paper timings: at the 500 ms deadline QuickMask (200) and Sobel (473)
  // are done; Sobel has the higher priority of the two -> selected.
  core::TpdfGraph model = apps::edgeDetectionGraph(500.0);
  const Graph& g = model.graph();
  Simulator sim(model, Environment{});

  std::string winner;
  sim.setBehaviour("QMask", [](FiringContext& ctx) {
    ctx.emit("o", Token{1, {}});
  });
  sim.setBehaviour("Sobel", [](FiringContext& ctx) {
    ctx.emit("o", Token{2, {}});
  });
  sim.setBehaviour("Prewitt", [](FiringContext& ctx) {
    ctx.emit("o", Token{3, {}});
  });
  sim.setBehaviour("Canny", [](FiringContext& ctx) {
    ctx.emit("o", Token{4, {}});
  });
  sim.setBehaviour("Trans", [&](FiringContext& ctx) {
    for (const std::string& name : apps::edgeDetectorNames()) {
      const auto& tokens = ctx.inputs("i" + name);
      if (!tokens.empty()) winner = name;
    }
  });

  SimOptions options;
  options.stopTime = 1100.0;  // let Canny finish so its token is discarded
  const SimResult result = sim.run(options);
  ASSERT_TRUE(result.ok) << result.diagnostic;
  EXPECT_EQ(winner, "Sobel");

  // The three losers' results are discarded (two of them after arrival).
  EXPECT_EQ(result.channel(*g.findChannel("r1")).discarded, 1);  // QMask
  EXPECT_EQ(result.channel(*g.findChannel("r2")).consumed, 1);   // Sobel
  EXPECT_EQ(result.channel(*g.findChannel("r3")).discarded, 1);  // Prewitt
  EXPECT_EQ(result.channel(*g.findChannel("r4")).discarded, 1);  // Canny
  EXPECT_TRUE(result.returnedToInitialState);
}

TEST(Simulator, LongerDeadlineSelectsCanny) {
  core::TpdfGraph model = apps::edgeDetectionGraph(1100.0);
  Simulator sim(model, Environment{});
  std::string winner;
  sim.setBehaviour("Trans", [&](FiringContext& ctx) {
    for (const std::string& name : apps::edgeDetectorNames()) {
      if (!ctx.inputs("i" + name).empty()) winner = name;
    }
  });
  SimOptions options;
  options.stopTime = 1200.0;
  const SimResult result = sim.run(options);
  ASSERT_TRUE(result.ok) << result.diagnostic;
  EXPECT_EQ(winner, "Canny");
}

TEST(Simulator, TightDeadlineSelectsQuickMask) {
  core::TpdfGraph model = apps::edgeDetectionGraph(250.0);
  Simulator sim(model, Environment{});
  std::string winner;
  sim.setBehaviour("Trans", [&](FiringContext& ctx) {
    for (const std::string& name : apps::edgeDetectorNames()) {
      if (!ctx.inputs("i" + name).empty()) winner = name;
    }
  });
  SimOptions options;
  options.stopTime = 1100.0;
  const SimResult result = sim.run(options);
  ASSERT_TRUE(result.ok) << result.diagnostic;
  EXPECT_EQ(winner, "QMask");
}

// ---- Edge cases around iteration and firing limits ----------------------

TEST(SimulatorEdge, ZeroIterationsCompleteImmediately) {
  core::TpdfGraph model(apps::fig1Csdf());
  Simulator sim(model, Environment{});
  SimOptions options;
  options.iterations = 0;
  const SimResult result = sim.run(options);
  ASSERT_TRUE(result.ok) << result.diagnostic;
  EXPECT_EQ(result.totalFirings, 0);
  EXPECT_EQ(result.endTime, 0.0);
  EXPECT_TRUE(result.returnedToInitialState);
}

TEST(SimulatorEdge, SingleSelfLoopActor) {
  // One actor recycling its own token: q = [1], every firing consumes
  // and reproduces the loop token.
  const Graph g = GraphBuilder("loop")
      .kernel("A").in("i", "[1]").out("o", "[1]").execTime({2.0})
      .channel("self", "A.o", "A.i", 1)
      .build();
  core::TpdfGraph model(g);
  Simulator sim(model, Environment{});
  SimOptions options;
  options.iterations = 4;
  const SimResult result = sim.run(options);
  ASSERT_TRUE(result.ok) << result.diagnostic;
  EXPECT_EQ(result.firings, (std::vector<std::int64_t>{4}));
  // The single loop token serializes the firings.
  EXPECT_EQ(result.endTime, 8.0);
  EXPECT_TRUE(result.returnedToInitialState);
  EXPECT_EQ(result.channel(*g.findChannel("self")).maxOccupancy, 1);
}

TEST(SimulatorEdge, InitialTokensExceedingOnePeriodsConsumption) {
  // The channel starts with far more tokens than one iteration consumes;
  // completion must still mean "back to 7", not "drained".
  const Graph g = GraphBuilder("primed")
      .kernel("A").out("o", "[2]")
      .kernel("B").in("i", "[1,1]")
      .channel("e", "A.o", "B.i", 7)
      .build();
  core::TpdfGraph model(g);
  Simulator sim(model, Environment{});
  const SimResult result = sim.run();
  ASSERT_TRUE(result.ok) << result.diagnostic;
  // One firing of A, two phase-firings of B: 2 of the 9 tokens move.
  EXPECT_EQ(result.firings, (std::vector<std::int64_t>{1, 2}));
  EXPECT_TRUE(result.returnedToInitialState);
}

TEST(SimulatorEdge, ExactFiringCapStillReportsSteadyState) {
  // fig1 needs 7 firings per iteration; a cap of exactly 7*k must both
  // finish the k-th iteration and deliver the in-flight completions, so
  // the run still observes the return to the initial state.
  core::TpdfGraph model(apps::fig1Csdf());
  Simulator sim(model, Environment{});
  SimOptions options;
  options.iterations = 5;
  options.maxFirings = 35;
  const SimResult result = sim.run(options);
  ASSERT_TRUE(result.ok) << result.diagnostic;
  EXPECT_EQ(result.totalFirings, 35);
  EXPECT_TRUE(result.returnedToInitialState);
}

TEST(SimulatorEdge, CapOneBelowRequirementStopsShort) {
  core::TpdfGraph model(apps::fig1Csdf());
  Simulator sim(model, Environment{});
  SimOptions options;
  options.iterations = 5;
  options.maxFirings = 34;
  const SimResult result = sim.run(options);
  ASSERT_TRUE(result.ok) << result.diagnostic;
  EXPECT_EQ(result.totalFirings, 34);
  EXPECT_FALSE(result.returnedToInitialState);
}

TEST(SimulatorEdge, DefaultCapBoundaryAtExactlyOneMillionFirings) {
  // 500k iterations of a two-actor chain hit the default 1e6 cap on the
  // nose; the boundary must count as completion, not truncation.
  const Graph g = GraphBuilder("pair")
      .kernel("A").out("o", "[1]").execTime({0.0})
      .kernel("B").in("i", "[1]").execTime({0.0})
      .channel("e", "A.o", "B.i")
      .build();
  core::TpdfGraph model(g);
  Simulator sim(model, Environment{});
  SimOptions options;
  options.iterations = 500'000;
  const SimResult result = sim.run(options);
  ASSERT_TRUE(result.ok) << result.diagnostic;
  EXPECT_EQ(result.totalFirings, 1'000'000);
  EXPECT_TRUE(result.returnedToInitialState);
}

// ---- The behaviour contract ---------------------------------------------

std::string errorOf(Simulator& sim, const SimOptions& options = {}) {
  try {
    sim.run(options);
  } catch (const support::Error& e) {
    return e.what();
  }
  return "";
}

TEST(SimulatorContract, OveremitErrorNamesActorPortCountAndRate) {
  const Graph g = GraphBuilder("over")
      .kernel("A").out("o", "[1, 2]")
      .kernel("B").in("i", "[3]")
      .channel("e", "A.o", "B.i")
      .build();
  core::TpdfGraph model(g);
  Simulator sim(model, Environment{});
  sim.setBehaviour("A", [](FiringContext& ctx) {
    for (int i = 0; i < 3; ++i) ctx.emit("o", Token{});
  });
  EXPECT_EQ(errorOf(sim),
            "behaviour of 'A' emitted 3 tokens on port 'o' whose phase "
            "rate is 1");
}

TEST(SimulatorContract, NegativeDurationIsRejected) {
  const Graph g = GraphBuilder("neg")
      .kernel("A").out("o", "[1]")
      .kernel("B").in("i", "[1]")
      .channel("e", "A.o", "B.i")
      .build();
  core::TpdfGraph model(g);
  Simulator sim(model, Environment{});
  sim.setBehaviour("B", [](FiringContext& ctx) { ctx.setDuration(-0.5); });
  EXPECT_EQ(errorOf(sim), "negative firing duration");
}

TEST(SimulatorContract, RejectedAndUnknownPortsGiveEmptyInputs) {
  // F's mode takes `a` only: `b`'s token is discarded, never shown.
  const Graph g = GraphBuilder("rejected")
      .kernel("P1").out("o", "[1]")
      .kernel("P2").out("o", "[1]")
      .kernel("S").out("sig", "[1]")
      .control("CTL").in("i", "[1]").ctlOut("o", "[1]")
      .kernel("F").in("a", "[1]", 1).in("b", "[1]", 2).ctlIn("c", "[1]")
      .out("y", "[1]")
      .kernel("SNK").in("i", "[1]")
      .channel("ea", "P1.o", "F.a")
      .channel("eb", "P2.o", "F.b")
      .channel("sig", "S.sig", "CTL.i")
      .channel("ctl", "CTL.o", "F.c")
      .channel("out", "F.y", "SNK.i")
      .build();
  core::TpdfGraph model(g);
  model.setModes(*g.findActor("F"),
                 {core::ModeSpec{"take_a", core::Mode::SelectOne,
                                 {*g.findPort("F.a")}, {}}});
  Simulator sim(model, Environment{});
  sim.setBehaviour("P1",
                   [](FiringContext& ctx) { ctx.emit("o", Token{7, {}}); });
  sim.setBehaviour("P2",
                   [](FiringContext& ctx) { ctx.emit("o", Token{9, {}}); });
  std::vector<std::size_t> sizes;
  std::int64_t taken = -1;
  sim.setBehaviour("F", [&](FiringContext& ctx) {
    sizes = {ctx.inputs("a").size(), ctx.inputs("b").size(),
             ctx.inputs("c").size(), ctx.inputs("y").size(),
             ctx.inputs("nope").size()};
    taken = ctx.inputs("a").at(0).tag;
    ctx.emit("nope", Token{});  // not an output: dropped
    ctx.emit("a", Token{});     // an input: dropped
  });
  const SimResult result = sim.run();
  ASSERT_TRUE(result.ok) << result.diagnostic;
  EXPECT_EQ(sizes, (std::vector<std::size_t>{1, 0, 1, 0, 0}));
  EXPECT_EQ(taken, 7);
  EXPECT_EQ(result.channel(*g.findChannel("eb")).discarded, 1);
  EXPECT_EQ(result.channel(*g.findChannel("out")).produced, 1);
  EXPECT_TRUE(result.returnedToInitialState);
}

TEST(SimulatorContract, HighestPriorityLosersGiveEmptyInputs) {
  core::TpdfGraph model = apps::edgeDetectionGraph(500.0);
  Simulator sim(model, Environment{});
  std::vector<std::size_t> sizes;
  sim.setBehaviour("Trans", [&](FiringContext& ctx) {
    for (const std::string& name : apps::edgeDetectorNames()) {
      sizes.push_back(ctx.inputs("i" + name).size());
    }
  });
  SimOptions options;
  options.stopTime = 1100.0;
  ASSERT_TRUE(sim.run(options).ok);
  EXPECT_EQ(sizes, (std::vector<std::size_t>{0, 1, 0, 0}));  // Sobel wins
}

/// Round-robin placement over `fabric`, as `tpdfc sim --platform` does.
SimOptions spreadOver(const platform::Topology& fabric, std::size_t actors) {
  SimOptions options;
  options.fabric = &fabric;
  options.actorPe.resize(actors);
  for (std::size_t i = 0; i < actors; ++i) {
    options.actorPe[i] = i % fabric.peCount();
  }
  return options;
}

TEST(SimulatorContract, ClockTokensAreNotRoutedOnAFabric) {
  // Clock (actor 6, PE 2) and Trans (actor 7, PE 3) sit on different PEs
  // of the mesh; the deadline token still reaches Trans at the tick.
  core::TpdfGraph model = apps::edgeDetectionGraph(500.0);
  const Graph& g = model.graph();
  const platform::Topology mesh =
      platform::parsePlatformSpec("mesh:2x2,bw=4").spec.build(4);
  Simulator sim(model, Environment{});
  SimOptions options = spreadOver(mesh, g.actorCount());
  options.stopTime = 1600.0;
  options.recordTrace = true;
  const SimResult result = sim.run(options);
  ASSERT_TRUE(result.ok) << result.diagnostic;
  ASSERT_NE(options.actorPe[g.findActor("Clock")->index()],
            options.actorPe[g.findActor("Trans")->index()]);

  std::vector<double> clockTicks;
  std::vector<double> transStarts;
  for (const TraceEvent& e : result.trace) {
    if (e.actor == *g.findActor("Clock")) clockTicks.push_back(e.start);
    if (e.actor == *g.findActor("Trans")) transStarts.push_back(e.start);
  }
  EXPECT_EQ(clockTicks, (std::vector<double>{500.0, 1000.0, 1500.0}));
  ASSERT_FALSE(transStarts.empty());
  EXPECT_EQ(transStarts[0], 500.0);
  EXPECT_EQ(result.channel(*g.findChannel("deadline")).produced, 3);
  std::int64_t transfers = 0;
  for (const LinkStats& l : result.links) transfers += l.transfers;
  EXPECT_GT(transfers, 0);  // data tokens do cross the mesh
}

std::string resultJson(const SimResult& result, const Graph& g) {
  support::json::Writer w(support::json::Layout::Compact);
  result.write(w, g);
  return w.finish();
}

TEST(SimulatorContract, NoOpBehaviourMatchesNoBehaviour) {
  const platform::Topology bus =
      platform::parsePlatformSpec("bus:4,bw=1,lat=1").spec.build(4);
  std::vector<core::TpdfGraph> models;
  models.push_back(apps::fig3SelectDuplicate());
  models.push_back(apps::edgeDetectionGraph(500.0));
  models.push_back(apps::fig2TpdfModel());
  const std::filesystem::path dir =
      std::filesystem::path(TPDF_SOURCE_DIR) / "examples" / "graphs";
  for (const char* name : {"ofdm.tpdf", "fig4a.tpdf", "quickstart.tpdf"}) {
    models.emplace_back(io::readGraphFile((dir / name).string()));
  }
  for (const core::TpdfGraph& model : models) {
    const Graph& g = model.graph();
    for (const bool onFabric : {false, true}) {
      SimOptions options;
      if (onFabric) options = spreadOver(bus, g.actorCount());
      options.iterations = 3;
      options.stopTime = 2000.0;
      options.recordTrace = true;
      const Environment env{{"p", 2}, {"b", 2}, {"N", 8}, {"L", 2}, {"M", 2}};
      Simulator plain(model, env);
      Simulator noOp(model, env);
      for (const graph::Actor& a : g.actors()) {
        noOp.setBehaviour(a.id, [](FiringContext&) {});
      }
      const SimResult expected = plain.run(options);
      ASSERT_TRUE(expected.ok) << g.name() << ": " << expected.diagnostic;
      EXPECT_GT(expected.totalFirings, 0) << g.name();
      EXPECT_EQ(resultJson(expected, g), resultJson(noOp.run(options), g))
          << g.name() << (onFabric ? " on the bus" : "");
    }
  }
}

TEST(SimulatorContract, FabricTransfersOfAChannelArriveInIssueOrder) {
  // Every producer stamps each token with its position in its output
  // stream and every consumer checks it reads 0, 1, 2, ...: the FIFO
  // order of each channel survives store-and-forward routing, varying
  // firing durations and link contention.
  const platform::Topology mesh =
      platform::parsePlatformSpec("mesh:2x2,bw=4").spec.build(4);
  const platform::Topology bus =
      platform::parsePlatformSpec("bus:4,bw=1,lat=1").spec.build(4);
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const core::TpdfGraph model(apps::randomConsistentChain(10, seed));
    const Graph& g = model.graph();
    const graph::EvaluatedRates rates(g, Environment{});
    for (const platform::Topology* fabric : {&mesh, &bus}) {
      Simulator sim(model, Environment{});
      std::vector<std::int64_t> sent(g.actorCount(), 0);
      std::vector<std::int64_t> expected(g.actorCount(), 0);
      std::int64_t outOfOrder = 0;
      std::int64_t received = 0;
      for (const graph::Actor& a : g.actors()) {
        const std::size_t i = a.id.index();
        const std::optional<graph::PortId> out = g.findPort(a.name.view(), "o");
        sim.setBehaviour(a.id, [&, i, out](FiringContext& ctx) {
          for (const Token& t : ctx.inputs("i")) {
            if (t.tag != expected[i]++) ++outOfOrder;
            ++received;
          }
          if (out) {
            const std::int64_t n = rates.at(*out, ctx.firingIndex());
            for (std::int64_t k = 0; k < n; ++k) {
              ctx.emit("o", Token{sent[i]++, {}});
            }
          }
          ctx.setDuration(0.25 + 0.5 * static_cast<double>(
                                     (ctx.firingIndex() * 7 + i) % 5));
        });
      }
      SimOptions options = spreadOver(*fabric, g.actorCount());
      options.iterations = 3;
      const SimResult result = sim.run(options);
      ASSERT_TRUE(result.ok) << result.diagnostic;
      EXPECT_TRUE(result.returnedToInitialState) << "seed " << seed;
      EXPECT_EQ(outOfOrder, 0) << "seed " << seed;
      std::int64_t consumed = 0;
      for (const ChannelStats& c : result.channels) consumed += c.consumed;
      EXPECT_EQ(received, consumed) << "seed " << seed;
      EXPECT_GT(received, 0);
    }
  }
}

}  // namespace
}  // namespace tpdf::sim
