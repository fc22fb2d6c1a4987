// Rate consistency and repetition vectors (Theorem 1 of the paper,
// extended to symbolic rates as in Section III-A).
//
// The balance equations Gamma * r = 0 are solved by spanning-tree
// propagation: pick r = 1 for the first actor of each connected
// component, propagate along tree channels, then verify every remaining
// channel ("set one of the solutions to 1 and recursively find other
// solutions; finally normalize the solutions to integers").
//
// A component whose rates are all constant with non-zero period sums
// (every SDF/CSDF component) is solved in exact int64 fractions in one
// walk of the frozen adjacency; the symbolic solve takes parametric
// components and every constant one that is inconsistent, has a zero
// period sum or overflows, so each diagnostic comes from one place.
#pragma once

#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "support/json.hpp"
#include "symbolic/expr.hpp"

namespace tpdf::csdf {

/// Outcome of the rate-consistency analysis.
struct RepetitionVector {
  bool consistent = false;
  /// Human-readable reason when !consistent.
  std::string diagnostic;
  /// r: solution of Gamma * r = 0, minimal integer form (one entry per
  /// actor, indexed by ActorId).  Empty when inconsistent.
  std::vector<symbolic::Expr> r;
  /// q = P * r with P = diag(tau): firings per actor per iteration.
  std::vector<symbolic::Expr> q;

  const symbolic::Expr& rOf(graph::ActorId a) const { return r.at(a.index()); }
  const symbolic::Expr& qOf(graph::ActorId a) const { return q.at(a.index()); }

  /// "[2, 2p, p, p, 2p, 2p]" in actor-id order.
  std::string toString() const;

  /// {"consistent": true, "actors": [{"actor": "A", "r": "2", "q": "2"},
  /// ...]}; actor names come from `g` (which must be the analyzed graph).
  void write(support::json::Writer& w, const graph::Graph& g) const;
  support::json::Value toJson(const graph::Graph& g) const {
    return support::json::toValue(*this, g);
  }
};

/// Computes the symbolic repetition vector of `g` (all channels present,
/// control channels included — the paper checks consistency on the fully
/// connected graph).  Period sums and phase counts come from the frozen
/// graph (no per-channel RateSeq copies).  Each connected component is
/// seeded and normalized on its own.
RepetitionVector computeRepetitionVector(const graph::Graph& g);

/// computeRepetitionVector with every component taken by the symbolic
/// solve: the reference the constant-rate solve is checked against.
RepetitionVector computeRepetitionVectorSymbolic(const graph::Graph& g);

/// The topology matrix Gamma of Equation (3): one row per channel, one
/// column per actor; entry = total period production (positive) or
/// consumption (negative) of that actor on that channel.
std::vector<std::vector<symbolic::Expr>> topologyMatrix(const graph::Graph& g);

}  // namespace tpdf::csdf
