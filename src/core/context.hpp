// Shared intermediates of the Section III analysis chain.
//
// The chain (consistency -> safety -> liveness -> boundedness), the
// canonical/ADF/list schedulers and the simulator all need the same
// derived facts about one graph: its frozen structure (Graph::freeze),
// the symbolic repetition vector, and the integer rate tables of each
// parameter valuation they run under.  An AnalysisContext computes each
// of those once and hands out references, so staged passes consume one
// set of intermediates instead of re-deriving them per pass.
//
// Revision awareness: the context is tied to a Graph *revision*, not to
// an immutable Graph.  Every accessor first sync()s against
// Graph::revision(); after an edit, sync() consumes the graph's touch
// log (Graph::touchesSince) and invalidates only what the edit can
// affect, at connected-component granularity:
//
//   * repetition(): the balance system decomposes per component, so only
//     components containing a touched actor are re-solved (through
//     computeRepetitionVector's actor mask); untouched components
//     keep their normalized sub-vectors verbatim.
//   * rates(env): tables survive edits that keep the rate-table layout
//     (setExecTime, addChannel, addParam — tracked by
//     Graph::shapeRevision) and are dropped wholesale otherwise.
//   * live(env, policy): per-component verdicts cached by component
//     signature; an edit recomputes only the touched components'
//     verdicts (via masked findSchedule), the rest are reused.
//
// When the touch log has been truncated (more edits than the log keeps),
// sync() falls back to dropping everything — correctness never depends
// on the log's depth.  References returned by repetition()/rates() stay
// valid until the first sync() after a mutation; re-fetch them after
// editing the graph.  Contexts are NOT internally synchronized — share
// one context within a single thread (or guard it externally); the batch
// driver (core/batch.hpp) gives each graph its own context.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "csdf/liveness.hpp"
#include "csdf/repetition.hpp"
#include "graph/graph.hpp"
#include "graph/rates.hpp"
#include "symbolic/env.hpp"

namespace tpdf::core {

class AnalysisContext {
 public:
  explicit AnalysisContext(const graph::Graph& g);

  const graph::Graph& graph() const { return *g_; }
  /// The graph after sync(): caches are current and its derived storage
  /// is frozen, so concurrent readers of an unedited graph only read.
  const graph::Graph& view() const {
    sync();
    return *g_;
  }

  /// The symbolic repetition vector (Theorem 1), computed on first use
  /// and updated incrementally (per touched component) across edits.
  const csdf::RepetitionVector& repetition() const;

  /// Integer rate tables under `env`, computed once per distinct binding
  /// set.  Throws support::Error when a rate evaluates negative or a
  /// parameter is unbound (never cached in that case).
  ///
  /// Returned references stay valid until the context syncs over a
  /// rate-table-layout change (Graph::shapeRevision bump); entries are
  /// never evicted otherwise, so the cache grows by one table per
  /// distinct valuation.  For an unbounded parameter sweep over one
  /// graph, use a fresh context per batch of valuations (or per
  /// valuation) instead of one context forever.
  const graph::EvaluatedRates& rates(const symbolic::Environment& env) const;

  /// Whole-graph liveness verdict under `env`, assembled from
  /// per-component verdicts (a graph is live iff every connected
  /// component is — components share no channels).  Verdicts are
  /// memoized per (valuation, policy, component) and survive edits to
  /// *other* components.  On a non-live graph `diagnostic` (if non-null)
  /// receives the first failing component's deadlock diagnosis.
  bool live(const symbolic::Environment& env,
            csdf::SchedulePolicy policy = csdf::SchedulePolicy::Eager,
            std::string* diagnostic = nullptr) const;

  /// Brings every cache up to date with the graph's current revision.
  /// Called implicitly by every accessor; explicit calls are useful only
  /// to control *when* invalidation work happens.
  void sync() const;

  /// Weakly-connected components of the synced revision (the unit of
  /// incremental invalidation).
  std::size_t componentCount() const;
  std::uint32_t componentOf(graph::ActorId a) const;

  /// Observability for the incremental machinery (cumulative).
  struct Stats {
    std::uint64_t syncs = 0;             ///< syncs that saw a new revision
    std::uint64_t fullRebuilds = 0;      ///< truncated-log / fallback drops
    std::uint64_t repetitionActorsReused = 0;
    std::uint64_t repetitionActorsResolved = 0;
    std::uint64_t rateTablesKept = 0;    ///< tables surviving an edit
    std::uint64_t rateTablesDropped = 0;
    std::uint64_t livenessComponentsReused = 0;
    std::uint64_t livenessComponentsComputed = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  /// A component's identity across revisions: (lowest member actor id,
  /// member count).  Components only ever grow or merge (the Graph API
  /// is add-only), so for a fixed lowest member the size uniquely
  /// determines the member set over the context's lifetime.
  using Signature = std::pair<std::uint32_t, std::uint32_t>;

  void computeComponents() const;
  static std::string cacheKey(const symbolic::Environment& env);

  const graph::Graph* g_;
  mutable std::uint64_t syncedRevision_;
  mutable std::uint64_t syncedShapeRevision_;
  mutable std::size_t syncedActorCount_;

  mutable bool componentsValid_ = false;
  mutable std::vector<std::uint32_t> componentOf_;
  mutable std::vector<std::uint32_t> compMinActor_;
  mutable std::vector<std::uint32_t> compSize_;

  mutable bool repetitionComputed_ = false;
  mutable csdf::RepetitionVector repetition_;
  mutable std::map<std::string, graph::EvaluatedRates> rateCache_;
  // (valuation + policy) -> component signature -> verdict.
  mutable std::map<std::string, std::map<Signature, csdf::LivenessResult>>
      livenessCache_;
  mutable Stats stats_;
};

}  // namespace tpdf::core
