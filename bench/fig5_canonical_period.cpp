// Reproduces Figure 5: the canonical period of the Figure 2 graph for
// p = 1 (occurrences A1 A2 B1 B2 C1 D1 E1 E2 F1 F2 and their
// dependencies), schedules it with the TPDF rules (control actor with
// highest priority on a separate PE), and sweeps the makespan over PE
// counts and p.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "apps/papergraphs.hpp"
#include "sched/canonical.hpp"
#include "sched/list.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

namespace {

using namespace tpdf;
using symbolic::Environment;

void printCanonicalPeriod() {
  const graph::Graph g = apps::fig2Tpdf();
  const sched::CanonicalPeriod cp(core::AnalysisContext(g),
                                  Environment{{"p", 1}});

  std::printf("=== Figure 5: canonical period of Figure 2 at p = 1 ===\n");
  support::Table table({"occurrence", "depends on"});
  for (std::size_t i = 0; i < cp.size(); ++i) {
    std::vector<std::string> preds;
    for (std::size_t p : cp.predecessors(i)) {
      preds.push_back(cp.nodeName(p));
    }
    table.addRow({cp.nodeName(i), support::join(preds, ", ")});
  }
  std::printf("%s\n", table.render().c_str());

  const sched::ListSchedule ls = sched::listSchedule(
      cp, sched::Platform{.peCount = 3, .dedicatedControlPe = true});
  std::printf("list schedule (3 worker PEs + control PE):\n%s\n",
              ls.toString(cp).c_str());
}

void printMakespanSweep() {
  const graph::Graph g = apps::fig2Tpdf();
  std::printf(
      "=== Makespan sweep (Section III-D heuristic, unit exec times) ===\n");
  support::Table table({"p", "PEs", "occurrences", "makespan"});
  for (std::int64_t p : {1, 2, 4, 8}) {
    const sched::CanonicalPeriod cp(core::AnalysisContext(g),
                                    Environment{{"p", p}});
    for (std::size_t pes : {1u, 2u, 4u, 8u}) {
      const sched::ListSchedule ls =
          sched::listSchedule(cp, sched::Platform{.peCount = pes});
      table.addRow({std::to_string(p), std::to_string(pes),
                    std::to_string(cp.size()),
                    support::formatDouble(ls.makespan)});
    }
  }
  std::printf("%s\n", table.render().c_str());
}

void BM_CanonicalPeriodConstruction(benchmark::State& state) {
  const graph::Graph g = apps::fig2Tpdf();
  const Environment env{{"p", state.range(0)}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sched::CanonicalPeriod(g, csdf::computeRepetitionVector(g),
                               graph::EvaluatedRates(g, env), env));
  }
}
BENCHMARK(BM_CanonicalPeriodConstruction)->Arg(1)->Arg(16)->Arg(256);

void BM_ListScheduling(benchmark::State& state) {
  const graph::Graph g = apps::fig2Tpdf();
  const sched::CanonicalPeriod cp(core::AnalysisContext(g),
                                  Environment{{"p", state.range(0)}});
  const sched::Platform platform{.peCount = 4};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::listSchedule(cp, platform));
  }
}
BENCHMARK(BM_ListScheduling)->Arg(16)->Arg(256);

}  // namespace

int main(int argc, char** argv) {
  printCanonicalPeriod();
  printMakespanSweep();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
