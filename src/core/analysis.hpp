// The complete TPDF static-analysis chain of Section III:
// rate consistency -> rate safety -> liveness -> boundedness (Theorem 2).
#pragma once

#include <string>

#include "core/context.hpp"
#include "core/liveness.hpp"
#include "core/model.hpp"
#include "core/safety.hpp"
#include "csdf/repetition.hpp"
#include "support/json.hpp"
#include "symbolic/env.hpp"

namespace tpdf::core {

struct AnalysisReport {
  csdf::RepetitionVector repetition;
  RateSafetyReport safety;
  LivenessReport liveness;

  bool consistent() const { return repetition.consistent; }
  bool rateSafe() const { return safety.safe; }
  bool live() const { return liveness.live; }

  /// Theorem 2: a rate consistent, safe and live TPDF graph returns to
  /// its initial state at the end of each iteration, hence executes in
  /// bounded memory.
  bool bounded() const { return consistent() && rateSafe() && live(); }

  /// Multi-line human-readable summary.
  std::string toString(const graph::Graph& g) const;

  /// Machine-readable sibling of toString(): verdict booleans plus the
  /// per-stage sub-reports ("repetition", "safety", "liveness").
  void write(support::json::Writer& w, const graph::Graph& g) const;
  support::json::Value toJson(const graph::Graph& g) const {
    return support::json::toValue(*this, g);
  }
};

/// Runs the full analysis chain on a TPDF graph.  `env` may pre-bind some
/// parameters; the rest are sampled for the concrete liveness checks.  A
/// non-null `budget` is checkpointed throughout the liveness stage and
/// may abort the chain with support::BudgetExceeded.
AnalysisReport analyze(const TpdfGraph& g,
                       const symbolic::Environment& env = {},
                       support::Budget* budget = nullptr);

/// Same, for a bare dataflow graph (SDF/CSDF or TPDF without metadata).
AnalysisReport analyze(const graph::Graph& g,
                       const symbolic::Environment& env = {},
                       support::Budget* budget = nullptr);

/// Staged-pass variant: consistency, safety and liveness all consume the
/// context's shared intermediates (frozen graph, memoized repetition
/// vector, per-valuation rate tables).  Re-analyzing through the same context
/// re-derives nothing structural; reports are identical to the Graph
/// overloads.
AnalysisReport analyze(const AnalysisContext& ctx,
                       const symbolic::Environment& env = {},
                       support::Budget* budget = nullptr);

}  // namespace tpdf::core
