// Quickstart: build a TPDF graph, run the full static-analysis chain,
// export it, and execute one iteration in the simulator.
//
// Models the paper's Figure 2: kernels A, B, D, E, F, control actor C,
// integer parameter p.
#include <cstdio>

#include "core/analysis.hpp"
#include "csdf/buffer.hpp"
#include "graph/builder.hpp"
#include "io/format.hpp"
#include "sim/simulator.hpp"

using namespace tpdf;

int main() {
  // 1. Describe the graph.  Rates are cyclo-static sequences of symbolic
  //    expressions; ctlOut/ctlIn ports carry control tokens.
  graph::Graph g = graph::GraphBuilder("quickstart")
      .param("p")
      .kernel("A").out("o", "[p]")
      .kernel("B").in("i", "[1]").out("oC", "[1]").out("oD", "[1]")
                  .out("oE", "[1]")
      .control("C").in("i", "[2]").ctlOut("o", "[2]")
      .kernel("D").in("i", "[2]").out("o", "[2]")
      .kernel("E").in("i", "[1]").out("o", "[1]")
      .kernel("F").in("iD", "[0,2]", /*priority=*/1)
                  .in("iE", "[1,1]", /*priority=*/2)
                  .ctlIn("c", "[1,1]")
      .channel("e1", "A.o", "B.i")
      .channel("e2", "B.oC", "C.i")
      .channel("e3", "B.oD", "D.i")
      .channel("e4", "B.oE", "E.i")
      .channel("e5", "C.o", "F.c")
      .channel("e6", "D.o", "F.iD")
      .channel("e7", "E.o", "F.iE")
      .build();

  // 2. Static analyses: consistency, rate safety, liveness, boundedness.
  const core::AnalysisReport report = core::analyze(g);
  std::printf("%s\n", report.toString(g).c_str());

  // 3. Buffer sizing for a concrete parameter value.
  const symbolic::Environment env{{"p", 4}};
  const csdf::BufferReport buffers =
      csdf::minimumBuffers(g, report.repetition, env);
  if (buffers.ok) {
    std::printf("minimum buffers at p=4: total %lld tokens (%lld data, "
                "%lld control)\n\n",
                static_cast<long long>(buffers.total()),
                static_cast<long long>(buffers.dataTotal(g)),
                static_cast<long long>(buffers.controlTotal(g)));
  }

  // 4. Interchange formats.
  std::printf("--- .tpdf rendering ---\n%s\n", io::writeGraph(g).c_str());
  std::printf("--- Graphviz (pipe into dot -Tpng) ---\n%s\n",
              g.toDot().c_str());

  // 5. Execute one iteration in the discrete-event simulator.  F's mode
  //    table lets its control token choose between taking two tokens
  //    from D (mode 0) or one from E per phase (mode 1).
  core::TpdfGraph model(std::move(g));
  const graph::Graph& gg = model.graph();
  model.setModes(*gg.findActor("F"),
                 {core::ModeSpec{"take_D", core::Mode::SelectOne,
                                 {*gg.findPort("F.iD")}, {}},
                  core::ModeSpec{"take_E", core::Mode::SelectOne,
                                 {*gg.findPort("F.iE")}, {}}});

  sim::Simulator simulator(model, env);
  simulator.setBehaviour("C", [](sim::FiringContext& ctx) {
    ctx.emit("o", sim::Token{0, {}});  // select F's take_D mode
    ctx.emit("o", sim::Token{0, {}});
  });
  const sim::SimResult result = simulator.run();
  std::printf("simulated one iteration: %lld firings, end time %.1f, "
              "returned to initial state: %s\n",
              static_cast<long long>(result.totalFirings), result.endTime,
              result.returnedToInitialState ? "yes" : "no");
  return 0;
}
