// Control areas (Definition 3 of the paper).
//
// The area of a control actor g is prec(g) ∪ succ(g) ∪ infl(g) where
// infl(g) = (succ(prec(g)) ∩ prec(succ(g))) \ {g}: its sources, the
// kernels receiving its control tokens, and the actors influenced in
// between.  Rate safety (Definition 5) is stated per area.
#pragma once

#include <set>
#include <string>

#include "graph/graph.hpp"

namespace tpdf::core {

struct ControlArea {
  graph::ActorId control;
  std::set<graph::ActorId> prec;
  std::set<graph::ActorId> succ;
  std::set<graph::ActorId> infl;
  /// prec ∪ succ ∪ infl.
  std::set<graph::ActorId> all;

  /// "{B, D, E, F}" with actor names in id order.
  std::string toString(const graph::Graph& g) const;
};

/// Computes Area(ctl) per Definition 3 over the frozen CSR adjacency.
ControlArea controlArea(const graph::Graph& g, graph::ActorId ctl);

}  // namespace tpdf::core
