// Platform-subsystem benchmarks.
//
// BM_SimContendedMesh measures what the link-reservation path costs the
// simulator, in three configurations:
//   /0  no fabric at all (the legacy code path);
//   /1  a 4x4 mesh with every actor placed on one PE — the fabric is
//       armed but no transfer ever routes, so this run is required to
//       stay within ~10% of /0 (the contention model must be pay-as-
//       you-go);
//   /2  the same mesh with actors spread round-robin — transfers
//       serialize on shared links and contention emerges.
//
// BM_SimChain/<actors>/<fabric> times one run of a generated consistent
// chain (apps::randomConsistentChain), the `tpdfc sim` inner loop: with
// fabric 0 no platform, with fabric 1 on `mesh:2x2,bw=4` with actors
// placed round-robin, as `tpdfc sim --platform` places them.  The
// analysis context is shared, so only Simulator::run is timed.
//
// BM_MapTopologyOfdm measures the full map request (canonical period,
// hop-aware list schedule, contention report) on the OFDM case study
// over a 4x4 mesh.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "api/requests.hpp"
#include "api/session.hpp"
#include "apps/ofdm.hpp"
#include "apps/randomgraphs.hpp"
#include "core/context.hpp"
#include "core/model.hpp"
#include "platform/spec.hpp"
#include "platform/topology.hpp"
#include "sim/simulator.hpp"
#include "symbolic/env.hpp"

namespace {

using namespace tpdf;

void BM_SimContendedMesh(benchmark::State& state) {
  const core::TpdfGraph model(apps::randomConsistentChain(12, 7));
  const platform::Topology mesh = platform::Topology::mesh(4, 4, 8.0, 1.0);
  const std::size_t actors = model.graph().actorCount();
  const int config = static_cast<int>(state.range(0));

  sim::SimOptions options;
  options.iterations = 16;
  if (config >= 1) {
    options.fabric = &mesh;
    options.actorPe.assign(actors, 0);
    if (config == 2) {
      for (std::size_t i = 0; i < actors; ++i) {
        options.actorPe[i] = i % mesh.peCount();
      }
    }
  }
  for (auto _ : state) {
    sim::Simulator simulator(model, symbolic::Environment{});
    benchmark::DoNotOptimize(simulator.run(options));
  }
}
BENCHMARK(BM_SimContendedMesh)->Arg(0)->Arg(1)->Arg(2);

void BM_SimChain(benchmark::State& state) {
  const core::TpdfGraph model(
      apps::randomConsistentChain(static_cast<int>(state.range(0)), 1));
  const core::AnalysisContext ctx(model.graph());
  const platform::Topology mesh =
      platform::parsePlatformSpec("mesh:2x2,bw=4").spec.build(4);
  const std::size_t actors = model.graph().actorCount();

  sim::SimOptions options;
  if (state.range(1) != 0) {
    options.fabric = &mesh;
    options.actorPe.resize(actors);
    for (std::size_t i = 0; i < actors; ++i) {
      options.actorPe[i] = i % mesh.peCount();
    }
  }
  sim::Simulator simulator(model, symbolic::Environment{}, &ctx);
  std::int64_t firings = 0;
  for (auto _ : state) {
    const sim::SimResult result = simulator.run(options);
    firings = result.totalFirings;
    benchmark::DoNotOptimize(result);
  }
  state.counters["firings"] = static_cast<double>(firings);
}
BENCHMARK(BM_SimChain)
    ->Args({100, 0})
    ->Args({100, 1})
    ->Args({1000, 0})
    ->Args({1000, 1})
    ->Unit(benchmark::kMillisecond);

void BM_MapTopologyOfdm(benchmark::State& state) {
  api::Session session;
  session.adopt("ofdm",
                std::make_shared<core::TpdfGraph>(apps::ofdmTpdfGraph()));
  api::MapRequest request;
  request.graphId = "ofdm";
  request.bindings = {{"b", 2}, {"N", 16}, {"L", 2}, {"M", 4}};
  request.pes = 16;
  request.platform = "mesh:4x4,bw=8,lat=1";
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.map(request));
  }
}
BENCHMARK(BM_MapTopologyOfdm);

}  // namespace

BENCHMARK_MAIN();
