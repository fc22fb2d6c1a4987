// Reproduces the Figure 1 / Section II-A numbers: the CSDF example's
// repetition vector q = [3, 2, 2] and the schedule (a3)^2 (a1)^3 (a2)^2,
// then microbenchmarks the analysis itself.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "apps/papergraphs.hpp"
#include "csdf/liveness.hpp"
#include "csdf/repetition.hpp"
#include "support/table.hpp"

namespace {

using namespace tpdf;

void printReproduction() {
  const graph::Graph g = apps::fig1Csdf();
  const csdf::RepetitionVector rv = csdf::computeRepetitionVector(g);
  const csdf::LivenessResult live = csdf::findSchedule(g, rv);

  std::printf("=== Figure 1 (Section II-A): CSDF example ===\n");
  support::Table table({"quantity", "paper", "measured"});
  table.addRow({"repetition vector q", "[3, 2, 2]", rv.toString()});
  table.addRow({"schedule", "(a3)^2 (a1)^3 (a2)^2",
                live.live ? live.schedule.toString(g) : "DEADLOCK"});
  table.addRow({"consistent", "yes", rv.consistent ? "yes" : "no"});
  table.addRow({"live", "yes", live.live ? "yes" : "no"});
  std::printf("%s\n", table.render().c_str());
}

void BM_Fig1RepetitionVector(benchmark::State& state) {
  const graph::Graph g = apps::fig1Csdf();
  for (auto _ : state) {
    benchmark::DoNotOptimize(csdf::computeRepetitionVector(g));
  }
}
BENCHMARK(BM_Fig1RepetitionVector);

void BM_Fig1ScheduleConstruction(benchmark::State& state) {
  const graph::Graph g = apps::fig1Csdf();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        csdf::findSchedule(g, csdf::computeRepetitionVector(g)));
  }
}
BENCHMARK(BM_Fig1ScheduleConstruction);

}  // namespace

int main(int argc, char** argv) {
  printReproduction();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
