// Parametric liveness analysis (Section III-C of the paper).
//
// A (C)SDF/TPDF graph deadlocks only if it contains a cycle, so liveness
// reduces to checking every cycle (non-trivial SCC):
//   1. *Strict clustering*: replace the cycle Z by one actor Omega whose
//      firing is a whole local iteration of Z executed as single-
//      appearance blocks a^{qL_a}.  This finds the schedule A^2 Omega^p of
//      Figure 4(a).
//   2. *Late schedule* fallback: when no block order exists (Figure 4(b),
//      one initial token) search for an interleaved local schedule by
//      greedy demand-driven simulation, yielding (B C C B).
// The whole graph is then checked by symbolic execution at a sample
// parameter valuation and a parametric schedule string is rendered, e.g.
// "A^2 (B C C B)^p".
#pragma once

#include <string>
#include <vector>

#include "csdf/liveness.hpp"
#include "csdf/repetition.hpp"
#include "graph/graph.hpp"
#include "core/context.hpp"
#include "core/local.hpp"
#include "support/json.hpp"
#include "symbolic/env.hpp"

namespace tpdf::core {

/// Analysis outcome for one cycle (non-trivial SCC).
struct CycleReport {
  std::vector<graph::ActorId> actors;
  LocalSolution local;
  /// A single-appearance block order of the local iteration exists.
  bool strictClusterable = false;
  /// An interleaved local schedule exists (late schedule of ref. [8]).
  bool lateSchedulable = false;
  /// The local schedule found (late if needed), at the sample valuation.
  csdf::Schedule localSchedule;
  std::string diagnostic;
};

struct LivenessReport {
  bool live = false;
  std::string diagnostic;
  std::vector<CycleReport> cycles;
  /// Concrete full-iteration schedule at the sample valuation.
  csdf::Schedule sampleSchedule;
  /// The parameter valuation used for the concrete checks.
  symbolic::Environment sampleEnv;
  /// Symbolic schedule in clustered form, e.g. "A^2 (B C C B)^p".
  std::string parametricSchedule;

  /// {"live": true, "parametricSchedule": "...", "sampleBindings":
  /// {"p": 2}, "sampleSchedule": <Schedule::write>, "cycles": [...]}.
  void write(support::json::Writer& w, const graph::Graph& g) const;
};

/// Checks liveness of `g` given its repetition vector.  Unbound
/// parameters are instantiated with `sampleValue` for the concrete
/// simulations (the topology-selection argument of Section III-C makes
/// the all-ports-required check conservative).  A non-null `budget` is
/// checkpointed once per simulated firing (cycle simulations and the
/// global schedule search) and may abort with support::BudgetExceeded.
LivenessReport checkLiveness(const graph::Graph& g,
                             const csdf::RepetitionVector& rv,
                             const symbolic::Environment& env = {},
                             std::int64_t sampleValue = 2,
                             support::Budget* budget = nullptr);

/// Same through a shared context: the repetition vector is the memoized
/// one, and the sample-valuation integer rate tables are shared with the
/// global schedule search instead of re-evaluated per cycle.
LivenessReport checkLiveness(const AnalysisContext& ctx,
                             const symbolic::Environment& env = {},
                             std::int64_t sampleValue = 2,
                             support::Budget* budget = nullptr);

/// Race-free variant for concurrent callers (the sweep driver): the
/// caller supplies the integer rate tables instead of going through the
/// context's mutable rate cache, so many threads can share one context
/// read-only.  `sampleRates` must have been built over ctx.graph() under
/// `env` completed with `sampleValue` for every unbound parameter (the
/// same environment checkLiveness would build internally); reports are
/// identical to the cached overload.
LivenessReport checkLiveness(const AnalysisContext& ctx,
                             const symbolic::Environment& env,
                             std::int64_t sampleValue,
                             const graph::EvaluatedRates& sampleRates,
                             support::Budget* budget = nullptr);

}  // namespace tpdf::core
