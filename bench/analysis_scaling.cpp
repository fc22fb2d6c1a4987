// Ablation: cost of the static analyses as the graph grows.
//
// The paper argues TPDF keeps CSDF-style decidability; this bench
// quantifies the price: repetition vectors, liveness and buffer sizing on
// synthetic chains/trees of 10..1000 actors, plus the real case-study
// graphs.
#include <benchmark/benchmark.h>

#include "api/session.hpp"
#include "apps/edgegraph.hpp"
#include "apps/fmradio.hpp"
#include "apps/ofdm.hpp"
#include "apps/randomgraphs.hpp"
#include "core/analysis.hpp"
#include "core/batch.hpp"
#include "core/context.hpp"
#include "core/sweep.hpp"
#include "csdf/buffer.hpp"
#include "csdf/liveness.hpp"
#include "graph/builder.hpp"
#include "io/format.hpp"
#include "support/budget.hpp"
#include "support/prng.hpp"

namespace {

using namespace tpdf;
using graph::Graph;
using graph::GraphBuilder;

/// Random consistent chain of `n` actors (shared generator, so the
/// bench corpus matches the golden/property test corpora exactly).
Graph randomChain(int n, std::uint64_t seed) {
  return apps::randomConsistentChain(n, seed);
}

/// Balanced binary out-tree of depth `d` (single-rate, so the repetition
/// vector is trivial but the graph is wide).
Graph tree(int depth) {
  GraphBuilder b("tree" + std::to_string(depth));
  const int nodes = (1 << (depth + 1)) - 1;
  for (int i = 0; i < nodes; ++i) {
    b.kernel("K" + std::to_string(i));
    if (i > 0) b.in("i", "[1]");
    if (2 * i + 2 < nodes) {
      b.out("l", "[1]").out("r", "[1]");
    }
  }
  for (int i = 0; 2 * i + 2 < nodes; ++i) {
    b.channel("l" + std::to_string(i), "K" + std::to_string(i) + ".l",
              "K" + std::to_string(2 * i + 1) + ".i");
    b.channel("r" + std::to_string(i), "K" + std::to_string(i) + ".r",
              "K" + std::to_string(2 * i + 2) + ".i");
  }
  return b.build();
}

void BM_RepetitionVectorOnChain(benchmark::State& state) {
  const Graph g = randomChain(static_cast<int>(state.range(0)), 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(csdf::computeRepetitionVector(g));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_RepetitionVectorOnChain)
    ->Arg(10)->Arg(100)->Arg(1000)->Complexity();

/// Chain whose edges alternate [p]->[1] and [1]->[p], so repetition
/// counts hit the parameter value: q = [1, p, 1, p, ...].  Exercises the
/// scheduler and the symbolic evaluator at large parameter valuations.
Graph paramChain(int n) {
  GraphBuilder b("pchain" + std::to_string(n));
  b.param("p");
  for (int i = 0; i < n; ++i) {
    b.kernel("K" + std::to_string(i));
    const bool expand = i % 2 == 0;  // K(2i) -[p,1]-> K(2i+1) -[1,p]->
    if (i > 0) b.in("i", expand ? "[p]" : "[1]");
    if (i + 1 < n) b.out("o", expand ? "[p]" : "[1]");
  }
  for (int i = 0; i + 1 < n; ++i) {
    b.channel("e" + std::to_string(i), "K" + std::to_string(i) + ".o",
              "K" + std::to_string(i + 1) + ".i");
  }
  return b.build();
}

void BM_LivenessOnChain(benchmark::State& state) {
  const Graph g = randomChain(static_cast<int>(state.range(0)), 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        csdf::findSchedule(g, csdf::computeRepetitionVector(g)));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LivenessOnChain)->Arg(10)->Arg(100)->Arg(1000)->Complexity();

/// Same search under a generous resource budget: quantifies the cost of
/// the per-firing Budget::checkpoint() (the acceptance bar for the
/// resource-governance layer is < 2% over BM_LivenessOnChain/1000).
void BM_LivenessOnChainBudgeted(benchmark::State& state) {
  const Graph g = randomChain(static_cast<int>(state.range(0)), 42);
  for (auto _ : state) {
    support::Budget budget(3'600'000, 1'000'000'000);
    benchmark::DoNotOptimize(
        csdf::findSchedule(g, csdf::computeRepetitionVector(g), {},
                           csdf::SchedulePolicy::Eager, nullptr, &budget));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LivenessOnChainBudgeted)
    ->Arg(10)
    ->Arg(100)
    ->Arg(1000)
    ->Complexity();

// ---- Million-actor scaling points ------------------------------------
//
// Single large args rather than extra Complexity() ranges: they pin the
// arena-backed flat storage (interned names, CSR freeze) at the "very
// large graph" end without disturbing the fitted-complexity baselines of
// the 10..1000 families above.  Graph construction happens outside the
// timed loop; Iterations(1) keeps bench_json wall time bounded.
void BM_RepetitionVectorOnChainHuge(benchmark::State& state) {
  const Graph g = randomChain(static_cast<int>(state.range(0)), 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(csdf::computeRepetitionVector(g));
  }
  state.counters["actors"] = static_cast<double>(g.actorCount());
  state.counters["namePoolBytes"] = static_cast<double>(g.namePoolBytes());
}
BENCHMARK(BM_RepetitionVectorOnChainHuge)
    ->Arg(1000000)->Iterations(1)->Unit(benchmark::kMillisecond);

/// N disconnected A -[2:1]-> B pairs: one component per pair, so the
/// cost of grouping each component's members for normalization shows
/// (it rescanned every actor per component: 3.4 s at 20,000 pairs).
void BM_RepetitionVectorManyComponents(benchmark::State& state) {
  const auto pairs = static_cast<int>(state.range(0));
  Graph g("pairs");
  for (int i = 0; i < pairs; ++i) {
    const std::string k = std::to_string(i);
    const graph::ActorId a = g.addActor("A" + k);
    const graph::ActorId b = g.addActor("B" + k);
    g.addChannel("e" + k,
                 g.addPort(a, "o", graph::PortKind::DataOut,
                           graph::RateSeq::constant(2)),
                 g.addPort(b, "i", graph::PortKind::DataIn,
                           graph::RateSeq::constant(1)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(csdf::computeRepetitionVector(g));
  }
  state.counters["actors"] = static_cast<double>(g.actorCount());
}
BENCHMARK(BM_RepetitionVectorManyComponents)
    ->Arg(20000)->Unit(benchmark::kMillisecond);

void BM_LivenessOnChainHuge(benchmark::State& state) {
  const Graph g = randomChain(static_cast<int>(state.range(0)), 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        csdf::findSchedule(g, csdf::computeRepetitionVector(g)));
  }
  state.counters["actors"] = static_cast<double>(g.actorCount());
}
BENCHMARK(BM_LivenessOnChainHuge)
    ->Arg(100000)->Iterations(1)->Unit(benchmark::kMillisecond);

/// Graph load: io::readGraph over the text of a random chain (the
/// shape `tpdfc analyze` reads on the 100k cli-chain workload), written
/// once outside the timed loop.  Each iteration lexes, resolves every
/// name, builds the Graph and destroys it.
void BM_ReadGraphChain(benchmark::State& state) {
  const std::string text =
      io::writeGraph(randomChain(static_cast<int>(state.range(0)), 42));
  for (auto _ : state) {
    benchmark::DoNotOptimize(io::readGraph(text));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_ReadGraphChain)
    ->Arg(1000)->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_ScheduleMinOccupancyOnChain(benchmark::State& state) {
  const Graph g = randomChain(static_cast<int>(state.range(0)), 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        csdf::findSchedule(g, csdf::computeRepetitionVector(g), {},
                           csdf::SchedulePolicy::MinOccupancy));
  }
}
BENCHMARK(BM_ScheduleMinOccupancyOnChain)->Arg(10)->Arg(100)->Arg(1000);

void BM_LivenessOnTree(benchmark::State& state) {
  const Graph g = tree(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        csdf::findSchedule(g, csdf::computeRepetitionVector(g)));
  }
}
BENCHMARK(BM_LivenessOnTree)->Arg(8);

void BM_ScheduleParamChain(benchmark::State& state) {
  const Graph g = paramChain(64);
  const symbolic::Environment env{{"p", state.range(0)}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        csdf::findSchedule(g, csdf::computeRepetitionVector(g), env));
  }
}
BENCHMARK(BM_ScheduleParamChain)->Arg(16)->Arg(256);

void BM_ScheduleOfdmEffective(benchmark::State& state) {
  const Graph g = apps::ofdmTpdfEffective(apps::Constellation::Qam16);
  const symbolic::Environment env{
      {"b", state.range(0)}, {"N", 512}, {"L", 1}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        csdf::findSchedule(g, csdf::computeRepetitionVector(g), env));
  }
}
BENCHMARK(BM_ScheduleOfdmEffective)->Arg(10)->Arg(100);

void BM_RepetitionVectorOnTree(benchmark::State& state) {
  const Graph g = tree(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(csdf::computeRepetitionVector(g));
  }
}
BENCHMARK(BM_RepetitionVectorOnTree)->Arg(4)->Arg(8);

void BM_FullAnalysisOfdm(benchmark::State& state) {
  const core::TpdfGraph model = apps::ofdmTpdfGraph();
  const symbolic::Environment env{
      {"b", 10}, {"N", 512}, {"L", 1}, {"M", 4}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::analyze(model, env));
  }
}
BENCHMARK(BM_FullAnalysisOfdm);

void BM_FullAnalysisFmRadio(benchmark::State& state) {
  const core::TpdfGraph model = apps::fmRadioTpdfGraph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::analyze(model));
  }
}
BENCHMARK(BM_FullAnalysisFmRadio);

void BM_FullAnalysisEdgeDetection(benchmark::State& state) {
  const core::TpdfGraph model = apps::edgeDetectionGraph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::analyze(model));
  }
}
BENCHMARK(BM_FullAnalysisEdgeDetection);

// ---- Shared-context fixtures: the repeated-analysis service shape. ----
// A long-lived service analyzes the same graph (or the same graph at a
// new valuation) many times; the AnalysisContext memoizes the view, the
// repetition vector and the per-valuation integer rate tables across
// calls.  Fresh vs Shared quantifies what the memoization buys.

void BM_RepeatedFullAnalysisOfdmFresh(benchmark::State& state) {
  const graph::Graph g = apps::ofdmTpdfEffective(apps::Constellation::Qam16);
  const symbolic::Environment env{{"b", 10}, {"N", 512}, {"L", 1}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::analyze(g, env));
  }
}
BENCHMARK(BM_RepeatedFullAnalysisOfdmFresh);

void BM_RepeatedFullAnalysisOfdmShared(benchmark::State& state) {
  const graph::Graph g = apps::ofdmTpdfEffective(apps::Constellation::Qam16);
  const symbolic::Environment env{{"b", 10}, {"N", 512}, {"L", 1}};
  const core::AnalysisContext ctx(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::analyze(ctx, env));
  }
}
BENCHMARK(BM_RepeatedFullAnalysisOfdmShared);

void BM_RepeatedFullAnalysisChainFresh(benchmark::State& state) {
  const Graph g = randomChain(static_cast<int>(state.range(0)), 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::analyze(g));
  }
}
BENCHMARK(BM_RepeatedFullAnalysisChainFresh)->Arg(100)->Arg(1000);

void BM_RepeatedFullAnalysisChainShared(benchmark::State& state) {
  const Graph g = randomChain(static_cast<int>(state.range(0)), 42);
  const core::AnalysisContext ctx(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::analyze(ctx));
  }
}
BENCHMARK(BM_RepeatedFullAnalysisChainShared)->Arg(100)->Arg(1000);

// The same repeated analysis through the api::Session façade: one load,
// then analyze per iteration.  The façade must hit the session's
// memoized AnalysisContext, so this is expected to track the *Shared
// fixture above (request dispatch + diagnostics are the only overhead),
// not the *Fresh one.
void BM_RepeatedFullAnalysisOfdmApi(benchmark::State& state) {
  api::Session session;
  api::LoadRequest load;
  load.text =
      io::writeGraph(apps::ofdmTpdfEffective(apps::Constellation::Qam16));
  load.id = "ofdm";
  if (!session.load(load).ok()) {
    state.SkipWithError("load failed");
    return;
  }
  api::AnalyzeRequest request;
  request.graphId = "ofdm";
  request.bindings = symbolic::Environment{{"b", 10}, {"N", 512}, {"L", 1}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.analyze(request));
  }
}
BENCHMARK(BM_RepeatedFullAnalysisOfdmApi);

// ---- Batch-driver fixture: N graphs through the thread pool. ---------
// Arg is the job count; the corpus is fixed (200 random chains), so the
// jobs=1 row is the serial baseline and the higher rows show scaling on
// multi-core hosts (flat on a single-core container).

void BM_AnalyzeBatchChains(benchmark::State& state) {
  std::vector<Graph> graphs;
  graphs.reserve(200);
  support::Prng seeds(0xBA7C4);
  for (int i = 0; i < 200; ++i) {
    // Two statements: argument evaluation order is unspecified, and the
    // corpus must be identical across compilers.
    const int n = static_cast<int>(seeds.uniform(5, 40));
    graphs.push_back(randomChain(n, seeds.next()));
  }
  core::BatchOptions options;
  options.jobs = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const core::BatchResult result = core::analyzeBatch(graphs, options);
    benchmark::DoNotOptimize(result.entries.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(graphs.size()));
}
BENCHMARK(BM_AnalyzeBatchChains)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// ---- Sweep fixtures: N valuations of one graph. ----------------------
// The design-space-exploration shape: one symbolic graph answers the
// same question at N parameter points.  The sweep shares a single
// AnalysisContext (view + repetition vector + rate safety computed once
// for the whole grid); the FreshLoop twins run the same N analyses the
// pre-sweep way — a fresh context per binding — so the pair quantifies
// what the shared-context reuse buys.  jobs=1 keeps the comparison
// serial (parallel speedup is a separate axis, see BM_AnalyzeBatchChains).

void BM_SweepOfdm(benchmark::State& state) {
  const Graph g = apps::ofdmTpdfEffective(apps::Constellation::Qam16);
  const core::AnalysisContext ctx(g);
  core::SweepSpec spec;
  spec.axes.push_back(
      core::SweepAxis::range("b", 1, state.range(0)));
  spec.fixed = symbolic::Environment{{"N", 512}, {"L", 1}};
  spec.computeBuffers = false;  // match what a fresh analyze computes
  spec.computePeriod = false;
  spec.jobs = 1;
  for (auto _ : state) {
    const core::SweepResult result = core::sweep(ctx, spec);
    benchmark::DoNotOptimize(result.bounded());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SweepOfdm)
    ->Arg(64)->Arg(256)->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_SweepOfdmFreshLoop(benchmark::State& state) {
  const Graph g = apps::ofdmTpdfEffective(apps::Constellation::Qam16);
  for (auto _ : state) {
    std::size_t bounded = 0;
    for (std::int64_t b = 1; b <= state.range(0); ++b) {
      const symbolic::Environment env{{"b", b}, {"N", 512}, {"L", 1}};
      bounded += core::analyze(g, env).bounded() ? 1 : 0;
    }
    benchmark::DoNotOptimize(bounded);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SweepOfdmFreshLoop)
    ->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

// The paper's case study as design-space exploration: the OFDM
// demodulator over b x N x L and 9 platform variants (3 topologies x 3
// link bandwidths), buffers and period on.  Each parameter valuation's
// rate table, liveness, buffers and canonical period are computed once
// and shared by its 9 variants; only the list schedule runs per point.
void BM_SweepOfdmPlatformAxes(benchmark::State& state) {
  const Graph g = apps::ofdmCsdfGraph();
  const core::AnalysisContext ctx(g);
  core::SweepSpec spec;
  spec.axes.push_back(core::SweepAxis::range("b", 1, state.range(0)));
  spec.axes.push_back(core::SweepAxis::list("N", {64, 256}));
  spec.axes.push_back(core::SweepAxis::range("L", 1, 2));
  spec.topologies = {"mesh:2x2", "ring:4", "bus:4"};
  spec.linkBandwidths = {1.0, 4.0, 16.0};
  spec.jobs = 1;
  std::size_t points = 0;
  for (auto _ : state) {
    const core::SweepResult result = core::sweep(ctx, spec);
    points = result.points.size();
    benchmark::DoNotOptimize(result.bounded());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(points));
}
BENCHMARK(BM_SweepOfdmPlatformAxes)
    ->Arg(8)->Arg(32)->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_SweepChain(benchmark::State& state) {
  const Graph g = paramChain(64);
  const core::AnalysisContext ctx(g);
  core::SweepSpec spec;
  spec.axes.push_back(core::SweepAxis::range("p", 1, state.range(0)));
  spec.computeBuffers = false;
  spec.computePeriod = false;
  spec.jobs = 1;
  for (auto _ : state) {
    const core::SweepResult result = core::sweep(ctx, spec);
    benchmark::DoNotOptimize(result.bounded());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SweepChain)->Arg(64)->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_SweepChainFreshLoop(benchmark::State& state) {
  const Graph g = paramChain(64);
  for (auto _ : state) {
    std::size_t bounded = 0;
    for (std::int64_t p = 1; p <= state.range(0); ++p) {
      const symbolic::Environment env{{"p", p}};
      bounded += core::analyze(g, env).bounded() ? 1 : 0;
    }
    benchmark::DoNotOptimize(bounded);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SweepChainFreshLoop)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_BufferSizingOfdm(benchmark::State& state) {
  const graph::Graph g = apps::ofdmTpdfEffective(apps::Constellation::Qam16);
  const symbolic::Environment env{
      {"b", state.range(0)}, {"N", 512}, {"L", 1}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        csdf::minimumBuffers(g, csdf::computeRepetitionVector(g), env));
  }
}
BENCHMARK(BM_BufferSizingOfdm)->Arg(10)->Arg(100);

}  // namespace

BENCHMARK_MAIN();
