// Liveness: symbolic execution of one iteration (Sections II-A / III-C).
//
// A consistent graph is live iff one full iteration can be scheduled from
// the initial token distribution.  findSchedule() performs token-accurate
// simulation under a parameter environment and returns the schedule it
// found (the CSDF PASS), or a deadlock diagnosis.
//
// The simulation works in runs, the looped form Schedule stores: all
// rates are pre-evaluated to integer tables (one entry per phase), an
// id-ordered ready set tracks the enabled actors, and once the policy
// picks an actor it fires every firing it would make before the policy
// picks another in one closed-form step.  For a single-phase actor that
// run length is the least of its remaining firings, what its inputs
// cover, and the firing that first wakes a consumer which would outrank
// it (a lower id under Eager, a smaller occupancy delta under
// MinOccupancy); a multi-phase actor fires one at a time.  A run only
// changes the fired actor's channels, so it re-examines the fired actor
// and the consumers it fed — every channel has exactly one consumer —
// and costs O(degree * log |ready|) however many firings it holds.
// Firing orders are exactly those of the reference per-firing rescan
// loop (see the golden-schedule tests).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "csdf/repetition.hpp"
#include "csdf/schedule.hpp"
#include "graph/graph.hpp"
#include "graph/rates.hpp"
#include "support/budget.hpp"
#include "symbolic/env.hpp"

namespace tpdf::csdf {

enum class SchedulePolicy {
  /// Scan actors in id order and fire the first enabled one.  For the
  /// paper's Figure 1 this reproduces the schedule (a3)^2 (a1)^3 (a2)^2.
  Eager,
  /// Among enabled actors fire the one minimizing the resulting total
  /// channel occupancy (greedy minimum-buffer heuristic).
  MinOccupancy,
};

struct LivenessResult {
  bool live = false;
  std::string diagnostic;
  Schedule schedule;
  /// Concrete repetition vector under the environment used.
  std::vector<std::int64_t> q;
};

/// Simulates one iteration of `g` with parameters bound by `env`, given
/// its repetition vector `rv` (an inconsistent `rv` yields a non-live
/// result carrying its diagnostic).  Control channels and ports
/// participate like data (the conservative all-ports-required rule sound
/// for deadlock detection: token selection by control actors removes no
/// dependencies that could cure a deadlock).  When `rates` is non-null
/// the integer rate tables are reused instead of re-evaluating every
/// rate expression (`rates` must have been built from `g` under `env`).
/// A non-null `budget` is charged one unit per firing, in lumps of at
/// least 4096 (runs are capped at that length when budgeted), and may
/// abort the search with support::BudgetExceeded.
///
/// A non-empty `actorMask` (one entry per actor; any other size throws
/// support::Error) restricts the simulation to the masked-in actors:
/// everything else gets q = 0 and never fires.  Masking whole connected
/// components is exact — components share no channels, so a component is
/// live in the full graph iff it is live alone — which is how
/// core::AnalysisContext re-checks only the components an edit touched.
/// The masked schedule covers only masked actors (it is the
/// eager/min-occupancy order of that subgraph, not a slice of the full
/// schedule).
LivenessResult findSchedule(const graph::Graph& g, const RepetitionVector& rv,
                            const symbolic::Environment& env = {},
                            SchedulePolicy policy = SchedulePolicy::Eager,
                            const graph::EvaluatedRates* rates = nullptr,
                            support::Budget* budget = nullptr,
                            std::span<const char> actorMask = {});

}  // namespace tpdf::csdf
