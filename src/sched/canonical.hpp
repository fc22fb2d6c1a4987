// Canonical period construction (Section III-D, Figure 5).
//
// The canonical period is the partial order of one iteration: a DAG whose
// vertices are, for each actor a, the q_a occurrences of a, and whose
// edges are (i) the sequential order between successive occurrences of
// one actor and (ii) token dependencies: occurrence n of a consumer
// depends on the earliest producer occurrence m whose cumulative
// production (plus initial tokens) covers the consumer's cumulative
// demand.
//
// The DAG is stored flat, in compressed sparse rows: the successors of
// node i are succ_[succOff_[i] .. succOff_[i + 1]), its predecessors
// pred_[predOff_[i] .. predOff_[i + 1]), each list in the order its
// edges were first found, so renderings that walk it are deterministic.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/context.hpp"
#include "csdf/repetition.hpp"
#include "graph/graph.hpp"
#include "graph/rates.hpp"
#include "support/budget.hpp"
#include "support/json.hpp"
#include "symbolic/env.hpp"

namespace tpdf::sched {

/// One vertex of the canonical period: the k-th occurrence of an actor
/// (k is 0-based internally; Figure 5's "A1" is occurrence k=0).
struct Occurrence {
  graph::ActorId actor;
  std::int64_t k = 0;

  bool operator==(const Occurrence& o) const {
    return actor == o.actor && k == o.k;
  }
};

class CanonicalPeriod {
 public:
  /// Builds the canonical period of one iteration of the context's
  /// graph under `env`, reusing the memoized repetition vector and the
  /// valuation's integer rate tables.  Throws support::Error when the
  /// graph is not consistent.  A non-null `budget` is checkpointed once
  /// per occurrence node and per dependency-scan step during
  /// construction and may abort with support::BudgetExceeded.  The
  /// context's Graph must outlive the period; the context itself need
  /// not (a temporary one serves a one-off period).
  CanonicalPeriod(const core::AnalysisContext& ctx,
                  const symbolic::Environment& env,
                  support::Budget* budget = nullptr);

  /// Fully caller-provided intermediates (race-free: never touches a
  /// context's mutable caches, which is what the concurrent sweep driver
  /// needs).  `rates` must be built over `g` under `env`; an
  /// inconsistent `rv` throws support::Error.  `g` must outlive the
  /// period.
  CanonicalPeriod(const graph::Graph& g, const csdf::RepetitionVector& rv,
                  const graph::EvaluatedRates& rates,
                  const symbolic::Environment& env,
                  support::Budget* budget = nullptr);

  const graph::Graph& graph() const { return *graph_; }
  std::size_t size() const { return nodes_.size(); }
  const std::vector<Occurrence>& nodes() const { return nodes_; }

  /// Index of occurrence (actor, k).
  std::size_t indexOf(graph::ActorId a, std::int64_t k) const;
  const Occurrence& node(std::size_t i) const { return nodes_[i]; }

  /// Direct successors / predecessors of node i, each in the order its
  /// edges were found; views into the period, valid while it lives.
  std::span<const std::size_t> successors(std::size_t i) const {
    return {succ_.data() + succOff_[i], succOff_[i + 1] - succOff_[i]};
  }
  std::span<const std::size_t> predecessors(std::size_t i) const {
    return {pred_.data() + predOff_[i], predOff_[i + 1] - predOff_[i]};
  }

  /// True if node `to` directly depends on node `from`.
  bool dependsOn(std::size_t to, std::size_t from) const;

  /// Concrete repetition count of actor `a` under the build environment.
  std::int64_t repetitions(graph::ActorId a) const {
    return q_[a.index()];
  }

  /// "A1", "F2": the Figure 5 naming (1-based occurrence).  Names are
  /// not unique: K6's 11th firing and K61's 1st are both "K611".
  std::string nodeName(std::size_t i) const;
  /// nodeName(i) appended to `out` (renderers reuse one buffer).
  void appendNodeName(std::string& out, std::size_t i) const;

  /// Execution time of occurrence i (from the actor's per-phase table).
  double execTime(std::size_t i) const;

  /// Nodes in a valid topological order (dependencies first).
  std::vector<std::size_t> topologicalOrder() const;

  /// {"size": N, "nodes": [{"name": "A1", "actor": "A", "k": 0,
  /// "execTime": 1.0}, ...], "edges": [[from, to], ...]} — the full
  /// iteration DAG of Figure 5, node indices as used by successors().
  void write(support::json::Writer& w) const;
  support::json::Value toJson() const { return support::json::toValue(*this); }

 private:
  void build(const csdf::RepetitionVector& rv,
             const graph::EvaluatedRates& rates,
             const symbolic::Environment& env, support::Budget* budget);

  const graph::Graph* graph_;
  std::vector<std::int64_t> q_;
  std::vector<Occurrence> nodes_;
  std::vector<std::size_t> firstIndex_;  // per actor
  std::vector<std::size_t> succOff_;     // size() + 1 row offsets
  std::vector<std::size_t> succ_;
  std::vector<std::size_t> predOff_;
  std::vector<std::size_t> pred_;
};

}  // namespace tpdf::sched
