// Strongly connected components of the actor graph (Tarjan).
//
// The liveness analysis of Section III-C clusters every cycle; cycles are
// exactly the non-trivial SCCs (more than one actor, or an actor with a
// self-loop channel).
#pragma once

#include <vector>

#include "graph/graph.hpp"

namespace tpdf::core {

struct SccResult {
  /// component[actor.index()] = component number, 0-based.
  std::vector<std::size_t> component;
  /// members[c] = actors of component c in id order.
  std::vector<std::vector<graph::ActorId>> members;

  /// Components that form a cycle: size > 1 or a single actor with a
  /// self-loop.
  std::vector<std::size_t> nonTrivial;
};

/// Tarjan over the frozen channel->actor endpoint arrays.
SccResult stronglyConnectedComponents(const graph::Graph& g);

}  // namespace tpdf::core
