// Ablation of the two TPDF scheduling rules (Section III-D):
//   rule 1 — control actors get the highest priority;
//   dedicated control PE — the Figure 5 mapping.
// Measures makespans with each rule toggled, on the Figure 2 graph and on
// the OFDM demodulator, across link latencies.  Control priority pays off
// once control tokens gate kernels on the critical path (nonzero link
// latency, scarce PEs); a dedicated control PE trades a slot of worker
// parallelism for deterministic control latency, so it can go either way
// — that trade-off is exactly what this table shows.
#include <cstdio>

#include "apps/ofdm.hpp"
#include "apps/papergraphs.hpp"
#include "sched/canonical.hpp"
#include "sched/list.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

namespace {

using namespace tpdf;
using symbolic::Environment;

void ablate(const std::string& name, const graph::Graph& g,
            const Environment& env) {
  std::printf("--- %s ---\n", name.c_str());
  const sched::CanonicalPeriod cp(core::AnalysisContext(g), env);

  support::Table table({"PEs", "link latency", "ctl priority ON",
                        "ctl priority OFF", "dedicated ctl PE"});
  for (std::size_t pes : {2u, 4u}) {
    for (double latency : {0.0, 2.0, 8.0}) {
      sched::Platform shared{.peCount = pes, .linkLatency = latency,
                             .dedicatedControlPe = false};
      sched::Platform dedicated{.peCount = pes, .linkLatency = latency,
                                .dedicatedControlPe = true};
      const double withPriority =
          sched::listSchedule(cp, shared, {.controlPriority = true})
              .makespan;
      const double withoutPriority =
          sched::listSchedule(cp, shared, {.controlPriority = false})
              .makespan;
      const double withDedicated =
          sched::listSchedule(cp, dedicated, {.controlPriority = true})
              .makespan;
      table.addRow({std::to_string(pes), support::formatDouble(latency),
                    support::formatDouble(withPriority),
                    support::formatDouble(withoutPriority),
                    support::formatDouble(withDedicated)});
    }
  }
  std::printf("%s\n", table.render().c_str());
}

}  // namespace

int main() {
  std::printf("=== Scheduling ablation (Section III-D rules) ===\n\n");
  ablate("Figure 2 graph, p = 4", apps::fig2Tpdf(),
         Environment{{"p", 4}});
  ablate("OFDM demodulator, beta = 4",
         apps::ofdmTpdfGraph().graph(),
         Environment{{"b", 4}, {"N", 8}, {"L", 1}, {"M", 4}});
  std::printf(
      "Control-token edges are latency-free (receivers fire on token\n"
      "arrival), so prioritizing control actors shortens the critical\n"
      "path whenever control decisions gate downstream kernels.\n");
  return 0;
}
