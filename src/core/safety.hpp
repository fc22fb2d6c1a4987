// Rate safety (Definition 5, Equation 9 of the paper).
//
// A TPDF graph is rate safe iff for every control actor g and every actor
// ai in prec(g) ∪ succ(g) connected to g by channel eu:
//     X_g(1) == Y_i(q^L_ai)   when g produces on eu,
//     Y_g(1) == X_i(q^L_ai)   when g consumes from eu.
// This guarantees each control actor fires exactly once per local
// iteration of its area, so the control tokens received inside one local
// iteration are consistent ("synchronous"), which is what Theorem 2's
// boundedness argument needs.
#pragma once

#include <string>
#include <vector>

#include "core/area.hpp"
#include "core/context.hpp"
#include "core/local.hpp"
#include "csdf/repetition.hpp"
#include "graph/graph.hpp"
#include "support/json.hpp"

namespace tpdf::core {

/// Safety verdict for one control actor.
struct ControlSafety {
  graph::ActorId control;
  ControlArea area;
  LocalSolution local;
  /// q_g / q_G(Area(g)): must be 1 for a safe graph.
  symbolic::Expr firingsPerLocalIteration;
  bool safe = false;
  std::string diagnostic;
};

struct RateSafetyReport {
  bool safe = false;
  std::string diagnostic;
  std::vector<ControlSafety> perControl;

  /// {"safe": true, "controls": [{"control": "C", "area": ["B", ...],
  /// "qG": "p", "firingsPerLocalIteration": "1", "safe": true}, ...]}.
  void write(support::json::Writer& w, const graph::Graph& g) const;
  support::json::Value toJson(const graph::Graph& g) const {
    return support::json::toValue(*this, g);
  }
};

/// Checks Definition 5 for every control actor of `g` given its
/// repetition vector.  Graphs without control actors are trivially safe.
RateSafetyReport checkRateSafety(const graph::Graph& g,
                                 const csdf::RepetitionVector& rv);

/// Same through a shared context (its memoized repetition vector).
RateSafetyReport checkRateSafety(const AnalysisContext& ctx);

}  // namespace tpdf::core
