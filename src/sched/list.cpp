#include "sched/list.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "platform/topology.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace tpdf::sched {

using graph::ActorKind;

const ScheduledOccurrence& ListSchedule::of(std::size_t node) const {
  for (const ScheduledOccurrence& e : entries) {
    if (e.node == node) return e;
  }
  throw support::Error("node " + std::to_string(node) +
                       " is not part of the schedule");
}

std::string ListSchedule::toString(const CanonicalPeriod& cp) const {
  std::size_t peMax = 0;
  for (const ScheduledOccurrence& e : entries) peMax = std::max(peMax, e.pe);

  std::ostringstream os;
  for (std::size_t pe = 0; pe <= peMax; ++pe) {
    os << "PE" << pe << ":";
    for (const ScheduledOccurrence& e : entries) {
      if (e.pe != pe) continue;
      os << " [" << support::formatDouble(e.start) << "-"
         << support::formatDouble(e.finish) << "] " << cp.nodeName(e.node);
    }
    os << "\n";
  }
  os << "makespan: " << support::formatDouble(makespan) << "\n";
  return os.str();
}

void ListSchedule::write(support::json::Writer& w,
                         const CanonicalPeriod& cp) const {
  w.beginObject().member("makespan", makespan).key("entries").beginArray();
  for (const ScheduledOccurrence& e : entries) {
    w.beginObject().member("node", cp.nodeName(e.node)).member("pe", e.pe);
    w.member("start", e.start).member("finish", e.finish).endObject();
  }
  w.endArray().endObject();
}

ListSchedule listSchedule(const CanonicalPeriod& cp, const Platform& platform,
                          const ListSchedulerOptions& options,
                          support::Budget* budget) {
  if (platform.peCount == 0) {
    throw support::Error("platform must have at least one PE");
  }
  if (platform.topology != nullptr &&
      platform.topology->peCount() != platform.peCount) {
    throw support::Error("platform topology covers " +
                         std::to_string(platform.topology->peCount()) +
                         " PEs but peCount is " +
                         std::to_string(platform.peCount));
  }
  const graph::Graph& g = cp.graph();
  const std::size_t n = cp.size();

  // Critical-path ranks over the reverse topological order.
  std::vector<double> rank(n, 0.0);
  const std::vector<std::size_t> topo = cp.topologicalOrder();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const std::size_t i = *it;
    double best = 0.0;
    for (std::size_t s : cp.successors(i)) best = std::max(best, rank[s]);
    rank[i] = cp.execTime(i) + best;
  }

  // Per-actor control flag, derived once: every ready-heap comparison
  // below consults it.
  std::vector<char> actorIsControl(g.actorCount(), 0);
  for (const graph::Actor& a : g.actors()) {
    actorIsControl[a.id.index()] = a.kind == ActorKind::Control ? 1 : 0;
  }
  auto isControlNode = [&](std::size_t i) {
    return actorIsControl[cp.node(i).actor.index()] != 0;
  };
  // An edge from a control actor carries a control token: latency-free
  // (rule 2: the receiver fires immediately on token arrival).
  auto isControlEdge = [&](std::size_t from) { return isControlNode(from); };

  const std::size_t workerCount = platform.peCount;
  const std::size_t totalPes =
      workerCount + (platform.dedicatedControlPe ? 1 : 0);
  const std::size_t controlPe = workerCount;  // last PE when dedicated

  std::vector<double> peAvailable(totalPes, 0.0);
  std::vector<ScheduledOccurrence> placed(n);
  std::vector<bool> scheduled(n, false);
  std::vector<std::size_t> unscheduledPreds(n);
  for (std::size_t i = 0; i < n; ++i) {
    unscheduledPreds[i] = cp.predecessors(i).size();
  }

  ListSchedule out;
  out.entries.reserve(n);

  // Ready nodes as a binary heap whose top is the highest-priority one:
  // control actors first (rule 1), then by descending rank, then by node
  // index for determinism — a strict total order, so the pick does not
  // depend on the heap's layout.
  auto lowerPriority = [&](std::size_t a, std::size_t b) {
    const bool aCtl = options.controlPriority && isControlNode(a);
    const bool bCtl = options.controlPriority && isControlNode(b);
    if (aCtl != bCtl) return bCtl;
    if (rank[a] != rank[b]) return rank[a] < rank[b];
    return a > b;
  };
  std::vector<std::size_t> ready;
  for (std::size_t i = 0; i < n; ++i) {
    if (unscheduledPreds[i] == 0) ready.push_back(i);
  }
  std::make_heap(ready.begin(), ready.end(), lowerPriority);

  // Cross-PE communication cost: the uncontended traversal of the
  // topology route when both PEs are on the fabric, the legacy uniform
  // linkLatency otherwise (no topology, or the off-fabric control PE).
  const tpdf::platform::Topology* fabric = platform.topology;
  auto commCost = [&](std::size_t from, std::size_t to) {
    if (fabric != nullptr && from < fabric->peCount() &&
        to < fabric->peCount()) {
      return fabric->routeCost(from, to, 1);
    }
    return platform.linkLatency;
  };

  // Earliest start of node i on PE pe given the already-placed preds.
  auto earliestStartOn = [&](std::size_t i, std::size_t pe) {
    double t = peAvailable[pe];
    for (std::size_t p : cp.predecessors(i)) {
      double arrival = placed[p].finish;
      if (placed[p].pe != pe && !isControlEdge(p)) {
        arrival += commCost(placed[p].pe, pe);
      }
      t = std::max(t, arrival);
    }
    return t;
  };

  while (!ready.empty()) {
    support::Budget::checkpoint(budget);
    std::pop_heap(ready.begin(), ready.end(), lowerPriority);
    const std::size_t node = ready.back();
    ready.pop_back();

    // Choose the PE minimizing start time.
    std::size_t chosenPe = 0;
    double chosenStart = std::numeric_limits<double>::infinity();
    if (platform.dedicatedControlPe && isControlNode(node)) {
      chosenPe = controlPe;
      chosenStart = earliestStartOn(node, controlPe);
    } else {
      for (std::size_t pe = 0; pe < workerCount; ++pe) {
        const double start = earliestStartOn(node, pe);
        if (start < chosenStart) {
          chosenStart = start;
          chosenPe = pe;
        }
      }
    }

    ScheduledOccurrence so;
    so.node = node;
    so.pe = chosenPe;
    so.start = chosenStart;
    so.finish = chosenStart + cp.execTime(node);
    placed[node] = so;
    scheduled[node] = true;
    peAvailable[chosenPe] = so.finish;
    out.entries.push_back(so);
    out.makespan = std::max(out.makespan, so.finish);

    for (std::size_t s : cp.successors(node)) {
      if (--unscheduledPreds[s] == 0) {
        ready.push_back(s);
        std::push_heap(ready.begin(), ready.end(), lowerPriority);
      }
    }
  }

  if (out.entries.size() != n) {
    throw support::Error("list scheduler failed to place every occurrence");
  }
  std::sort(out.entries.begin(), out.entries.end(),
            [](const ScheduledOccurrence& a, const ScheduledOccurrence& b) {
              if (a.start != b.start) return a.start < b.start;
              return a.node < b.node;
            });
  return out;
}

std::vector<LinkLoad> linkLoad(const CanonicalPeriod& cp,
                               const ListSchedule& schedule,
                               const Platform& platform) {
  const tpdf::platform::Topology* fabric = platform.topology;
  if (fabric == nullptr) return {};
  const graph::Graph& g = cp.graph();
  std::vector<char> actorIsControl(g.actorCount(), 0);
  for (const graph::Actor& a : g.actors()) {
    actorIsControl[a.id.index()] =
        a.kind == graph::ActorKind::Control ? 1 : 0;
  }
  std::vector<std::size_t> peOf(cp.size(), 0);
  for (const ScheduledOccurrence& e : schedule.entries) peOf[e.node] = e.pe;

  std::vector<LinkLoad> load(fabric->links().size());
  for (std::size_t i = 0; i < cp.size(); ++i) {
    for (std::size_t p : cp.predecessors(i)) {
      if (actorIsControl[cp.node(p).actor.index()] != 0) continue;
      const std::size_t from = peOf[p];
      const std::size_t to = peOf[i];
      if (from == to || from >= fabric->peCount() || to >= fabric->peCount()) {
        continue;
      }
      for (std::uint32_t lid : fabric->route(from, to)) {
        load[lid].transfers += 1;
        load[lid].busy +=
            tpdf::platform::Topology::serviceTime(fabric->link(lid), 1);
      }
    }
  }
  return load;
}

}  // namespace tpdf::sched
