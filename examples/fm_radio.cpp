// FM-radio chain (the StreamIt-style workload of Section V): analysis of
// the TPDF and CSDF variants, then real signal processing with a
// context-dependent number of equalizer bands.
//
// The TPDF model lets a control actor enable only the bands the current
// profile needs; the CSDF baseline always computes all of them.  The
// example quantifies both the dataflow saving (firings and buffer
// tokens) and runs the actual FIR/discriminator DSP.
//
// Usage: fm_radio [active_bands]   (1..6, default 2)
#include <cstdio>
#include <cstdlib>

#include "apps/fmradio.hpp"
#include "core/analysis.hpp"
#include "csdf/buffer.hpp"
#include "sim/simulator.hpp"
#include "support/table.hpp"

using namespace tpdf;

int main(int argc, char** argv) {
  int active = argc > 1 ? std::atoi(argv[1]) : 2;
  if (active < 1) active = 1;
  if (active > apps::kFmBands) active = apps::kFmBands;

  // ---- Static analyses on both variants. ----
  const core::TpdfGraph tpdfModel = apps::fmRadioTpdfGraph();
  const graph::Graph csdfGraph = apps::fmRadioCsdfGraph();
  std::printf("TPDF variant:\n%s\n",
              core::analyze(tpdfModel).toString(tpdfModel.graph()).c_str());
  std::printf("CSDF variant:\n%s\n",
              core::analyze(csdfGraph).toString(csdfGraph).c_str());

  // ---- Run the real DSP once (front end + active bands). ----
  const double fs = 48000.0;
  const auto rf = apps::fmTestSignal(1 << 14, fs, 7);
  const auto lp = apps::lowPassTaps(63, 0.12);
  const auto baseband = apps::firFilter(rf, lp, 4);
  const auto audio = apps::fmDemodulate(baseband, fs / 4.0, 1500.0);
  double power = 0.0;
  std::vector<double> equalized(audio.size(), 0.0);
  for (int bandIdx = 0; bandIdx < active; ++bandIdx) {
    const double lo = 0.02 + 0.06 * bandIdx;
    const auto bp = apps::bandPassTaps(63, lo, lo + 0.06);
    const auto band = apps::firFilter(audio, bp);
    for (std::size_t i = 0; i < equalized.size(); ++i) {
      equalized[i] += band[i];
    }
  }
  for (double v : equalized) power += v * v;
  std::printf("processed %zu RF samples through %d equalizer band(s); "
              "output power %.3f\n\n",
              rf.size(), active, power / equalized.size());

  // ---- Dataflow saving: simulate the TPDF graph with `active` bands. ----
  sim::Simulator simulator(tpdfModel, symbolic::Environment{});
  simulator.setBehaviour("CON", [&](sim::FiringContext& ctx) {
    ctx.emit("toDUP", sim::Token{active - 1, {}});
    ctx.emit("toTRAN", sim::Token{active - 1, {}});
  });
  const sim::SimResult result = simulator.run();
  if (!result.ok) {
    std::printf("simulation failed: %s\n", result.diagnostic.c_str());
    return 1;
  }

  const graph::Graph& g = tpdfModel.graph();
  support::Table table({"band", "TPDF firings", "CSDF firings"});
  int savedFirings = 0;
  for (int i = 0; i < apps::kFmBands; ++i) {
    const auto id = *g.findActor("Band" + std::to_string(i));
    const std::int64_t fired = result.firings[id.index()];
    if (fired == 0) ++savedFirings;
    table.addRow({"Band" + std::to_string(i), std::to_string(fired), "1"});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("TPDF executed %d of %d bands; CSDF always executes all %d\n"
              "(\"redundant calculations that are not needed with models\n"
              "allowing dynamic topology changes\", Section V).\n",
              active, apps::kFmBands, apps::kFmBands);

  const csdf::BufferReport csdfBuffers = csdf::minimumBuffers(
      csdfGraph, csdf::computeRepetitionVector(csdfGraph));
  if (csdfBuffers.ok) {
    std::printf("CSDF per-iteration buffer total: %lld tokens; TPDF saves "
                "the %d unused band paths (32 tokens each).\n",
                static_cast<long long>(csdfBuffers.total()), savedFirings);
  }
  return 0;
}
