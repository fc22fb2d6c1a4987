// The random layered DAG generator of the FuzzSweep property suites
// (fuzz_property_test, sched_canonical_test): one graph per seed.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "graph/builder.hpp"
#include "graph/graph.hpp"
#include "support/prng.hpp"

namespace tpdf::testutil {

/// Generates a random consistent, live, layered DAG: `layers` layers of
/// 1..3 kernels; every kernel of layer k feeds one kernel of layer k+1;
/// rates are chosen to keep repetition counts bounded; some actors get
/// cyclo-static (multi-phase) sequences.
inline graph::Graph randomLayeredDag(std::uint64_t seed) {
  support::Prng rng(seed);
  const int layers = static_cast<int>(rng.uniform(2, 5));
  std::vector<std::vector<std::string>> names(
      static_cast<std::size_t>(layers));
  for (int l = 0; l < layers; ++l) {
    const int width = static_cast<int>(rng.uniform(1, 3));
    for (int i = 0; i < width; ++i) {
      names[static_cast<std::size_t>(l)].push_back(
          "L" + std::to_string(l) + "A" + std::to_string(i));
    }
  }

  // Edges: every producer in layer l feeds one random consumer in l+1.
  // Ports are declared lazily through a second pass, so collect first.
  struct Edge {
    std::string from;
    std::string to;
    std::int64_t prod;
    std::int64_t cons;
    bool phased;
  };
  std::vector<Edge> edges;
  for (int l = 0; l + 1 < layers; ++l) {
    for (const std::string& producer : names[static_cast<std::size_t>(l)]) {
      const auto& nextLayer = names[static_cast<std::size_t>(l + 1)];
      const std::string consumer = nextLayer[static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(nextLayer.size()) - 1))];
      const std::int64_t k = rng.uniform(1, 3);
      edges.push_back({producer, consumer, k, k, rng.chance(0.3)});
    }
  }
  // Make sure every layer>0 actor has at least one input (unfed actors
  // are sources, which is fine; unfed is only a problem for validation
  // if the actor has no ports at all — give those a self-documenting
  // source role by feeding them from layer 0).
  for (int l = 1; l < layers; ++l) {
    for (const std::string& consumer : names[static_cast<std::size_t>(l)]) {
      bool fed = false;
      for (const Edge& e : edges) {
        if (e.to == consumer) fed = true;
      }
      if (!fed) {
        edges.push_back({names[0][0], consumer, 1, 1, false});
      }
    }
  }
  // Actors in layer 0 with no outgoing edge would be portless; feed the
  // last layer from them.
  for (const std::string& producer : names[0]) {
    bool used = false;
    for (const Edge& e : edges) {
      if (e.from == producer) used = true;
    }
    if (!used) {
      edges.push_back(
          {producer, names[static_cast<std::size_t>(layers - 1)][0], 1, 1,
           false});
    }
  }

  // Declare ports: builder needs per-actor port declarations in actor
  // order; rebuild with ports.
  graph::GraphBuilder b2("dag" + std::to_string(seed));
  for (int l = 0; l < layers; ++l) {
    for (const std::string& actor : names[static_cast<std::size_t>(l)]) {
      b2.kernel(actor);
      int portIdx = 0;
      for (const Edge& e : edges) {
        if (e.from == actor) {
          if (e.phased) {
            // Split the rate over two phases with the same period sum.
            b2.out("o" + std::to_string(portIdx),
                   "[" + std::to_string(e.prod) + "," +
                       std::to_string(e.prod) + "]");
          } else {
            b2.out("o" + std::to_string(portIdx),
                   "[" + std::to_string(e.prod) + "]");
          }
          ++portIdx;
        }
        if (e.to == actor) {
          b2.in("i" + std::to_string(portIdx),
                "[" + std::to_string(e.cons) + "]");
          ++portIdx;
        }
      }
    }
  }
  int channelIdx = 0;
  // Re-derive port names deterministically by walking edges again.
  std::map<std::string, int> outIdx;
  std::map<std::string, int> inIdx;
  for (int l = 0; l < layers; ++l) {
    for (const std::string& actor : names[static_cast<std::size_t>(l)]) {
      int portIdx = 0;
      for (std::size_t e = 0; e < edges.size(); ++e) {
        if (edges[e].from == actor) {
          outIdx[actor + "#" + std::to_string(e)] = portIdx++;
        }
        if (edges[e].to == actor) {
          inIdx[actor + "#" + std::to_string(e)] = portIdx++;
        }
      }
    }
  }
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const Edge& edge = edges[e];
    b2.channel("c" + std::to_string(channelIdx++),
               edge.from + ".o" +
                   std::to_string(outIdx[edge.from + "#" +
                                         std::to_string(e)]),
               edge.to + ".i" +
                   std::to_string(inIdx[edge.to + "#" +
                                        std::to_string(e)]));
  }
  return b2.build();
}

}  // namespace tpdf::testutil
