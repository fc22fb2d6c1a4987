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
// Constructing a context seals its graph (Graph::freeze), so the memo
// can never go stale: the repetition vector is computed once, and each
// rate table once per valuation while it stays in the memo.  The rate
// memo keeps the kRateTables most recently used valuations and evicts
// the least recently used one when a new valuation arrives on a full
// memo.  A reference returned by rates() therefore stays valid while
// fewer than kRateTables other valuations are requested after it: a
// caller may hold its table while asking for up to kRateTables - 1
// others (a schedule request holds its own table while the liveness
// check asks for its sample valuation's).  The repetition vector lives
// as long as the context.
//
// Contexts are NOT internally synchronized: rates() updates the memo.
// Share one context within a single thread (or guard it externally);
// the batch driver (core/batch.hpp) gives each graph its own context.
#pragma once

#include <cstddef>
#include <list>
#include <string>
#include <utility>

#include "csdf/repetition.hpp"
#include "graph/graph.hpp"
#include "graph/rates.hpp"
#include "symbolic/env.hpp"

namespace tpdf::core {

class AnalysisContext {
 public:
  /// Rate tables the memo keeps (see the lifetime rule above).
  static constexpr std::size_t kRateTables = 16;

  /// Seals `g`, which must outlive the context.
  explicit AnalysisContext(const graph::Graph& g);

  const graph::Graph& graph() const { return *g_; }
  /// The same graph as graph(), under the name the end-to-end benchmark
  /// harness (perfbench/tpdfbench.cpp) calls.
  const graph::Graph& view() const { return *g_; }

  /// The symbolic repetition vector (Theorem 1), computed on first use.
  const csdf::RepetitionVector& repetition() const;

  /// Integer rate tables under `env`, memoized per distinct binding set
  /// (at most kRateTables of them, least recently used evicted first).
  /// Throws support::Error when a rate evaluates negative or a parameter
  /// is unbound (never memoized in that case).
  const graph::EvaluatedRates& rates(const symbolic::Environment& env) const;

  /// Rate tables currently memoized (at most kRateTables).
  std::size_t rateTableCount() const { return rateTables_.size(); }

  /// Bytes the memo holds at its cap: the repetition vector and
  /// kRateTables rate tables, each with its binding key (every parameter
  /// bound to a 19-digit value) and list node.  An estimate of the heap
  /// the context can grow to; the tpdfd cache charges it at admission.
  std::size_t memoBytesBound() const;

 private:
  const graph::Graph* g_;
  mutable bool repetitionComputed_ = false;
  mutable csdf::RepetitionVector repetition_;
  // (binding key, table), most recently used first.
  mutable std::list<std::pair<std::string, graph::EvaluatedRates>>
      rateTables_;
};

}  // namespace tpdf::core
