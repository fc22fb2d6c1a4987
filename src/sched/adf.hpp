// Actor Dependence Function (Section III-D, second rule).
//
// When a kernel fires in a mode that rejects some of its data inputs,
// the scheduler "uses the Actor Dependence Function [8] ... to stop
// unnecessary firings": producer occurrences whose tokens only ever flow
// into rejected ports need not execute.  unnecessaryFirings computes that
// set on the canonical period.
#pragma once

#include <vector>

#include "core/model.hpp"
#include "graph/graph.hpp"
#include "sched/canonical.hpp"

namespace tpdf::sched {

/// Marks, for each canonical-period node, whether the firing becomes
/// unnecessary when `kernel` fires in mode `mode` for the whole
/// iteration.  A firing is necessary iff some dependency path that does
/// not cross a rejected input port of `kernel` leads from it to an
/// occurrence of `kernel` itself or of any graph sink.  Per-edge
/// rejection tests read the frozen CSR adjacency.
std::vector<bool> unnecessaryFirings(const CanonicalPeriod& cp,
                                     const graph::Graph& g,
                                     graph::ActorId kernel,
                                     const core::ModeSpec& mode);

}  // namespace tpdf::sched
