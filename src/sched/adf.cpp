#include "sched/adf.hpp"

#include <algorithm>
#include <deque>
#include <set>

namespace tpdf::sched {

using graph::ActorId;
using graph::Graph;

std::vector<bool> unnecessaryFirings(const CanonicalPeriod& cp,
                                     const Graph& g, ActorId kernel,
                                     const core::ModeSpec& mode) {
  const std::size_t n = cp.size();

  // Rejected input ports of the kernel: data inputs not listed as active
  // (an empty active list means every port stays active).
  std::set<graph::ChannelId> rejectedChannels;
  if (!mode.activeInputs.empty()) {
    for (graph::PortId pid : g.actor(kernel).ports) {
      const graph::Port& p = g.port(pid);
      if (p.kind != graph::PortKind::DataIn) continue;
      const bool active =
          std::find(mode.activeInputs.begin(), mode.activeInputs.end(),
                    pid) != mode.activeInputs.end();
      if (!active) rejectedChannels.insert(p.channel);
    }
  }

  // An edge u -> v of the canonical period crosses a rejected port iff v
  // is an occurrence of `kernel` and u's actor feeds the kernel only
  // through rejected channels (a producer also reaching an active input
  // keeps its dependency).
  auto edgeRejected = [&](std::size_t u, std::size_t v) {
    if (cp.node(v).actor != kernel) return false;
    if (cp.node(u).actor == kernel) return false;  // sequential self-edge
    bool feedsRejected = false;
    for (graph::ChannelId cid : g.outChannels(cp.node(u).actor)) {
      if (g.destActor(cid) != kernel) continue;
      if (rejectedChannels.count(cid) != 0) {
        feedsRejected = true;
      } else {
        return false;  // also feeds an active port of the kernel
      }
    }
    return feedsRejected;
  };

  // Terminal utility: occurrences of the kernel itself and of every graph
  // sink (actors with no outgoing channels).
  std::vector<bool> useful(n, false);
  std::deque<std::size_t> queue;
  for (std::size_t i = 0; i < n; ++i) {
    const ActorId a = cp.node(i).actor;
    if (a == kernel || g.outChannels(a).empty()) {
      useful[i] = true;
      queue.push_back(i);
    }
  }

  // Reverse reachability over non-rejected edges.
  while (!queue.empty()) {
    const std::size_t v = queue.front();
    queue.pop_front();
    for (std::size_t u : cp.predecessors(v)) {
      if (useful[u] || edgeRejected(u, v)) continue;
      useful[u] = true;
      queue.push_back(u);
    }
  }

  std::vector<bool> unnecessary(n);
  for (std::size_t i = 0; i < n; ++i) unnecessary[i] = !useful[i];
  return unnecessary;
}

}  // namespace tpdf::sched
