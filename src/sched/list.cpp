#include "sched/list.hpp"

#include <algorithm>
#include <charconv>
#include <limits>
#include <span>

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

  // Entries grouped by PE, each group in start order: a counting sort.
  std::vector<std::size_t> first(peMax + 2, 0);
  for (const ScheduledOccurrence& e : entries) ++first[e.pe + 1];
  for (std::size_t pe = 0; pe <= peMax; ++pe) first[pe + 1] += first[pe];
  std::vector<const ScheduledOccurrence*> byPe(entries.size());
  {
    std::vector<std::size_t> next(first.begin(), first.end() - 1);
    for (const ScheduledOccurrence& e : entries) byPe[next[e.pe]++] = &e;
  }

  std::string out;
  char label[24];
  for (std::size_t pe = 0; pe <= peMax; ++pe) {
    out += "PE";
    out.append(label, std::to_chars(label, label + sizeof(label), pe).ptr);
    out += ':';
    for (std::size_t j = first[pe]; j < first[pe + 1]; ++j) {
      out += " [";
      support::appendDouble(out, byPe[j]->start);
      out += '-';
      support::appendDouble(out, byPe[j]->finish);
      out += "] ";
      cp.appendNodeName(out, byPe[j]->node);
    }
    out += '\n';
  }
  out += "makespan: ";
  support::appendDouble(out, makespan);
  out += '\n';
  return out;
}

void ListSchedule::write(support::json::Writer& w,
                         const CanonicalPeriod& cp) const {
  w.beginObject().member("makespan", makespan).key("entries").beginArray();
  std::string name;
  for (const ScheduledOccurrence& e : entries) {
    name.clear();
    cp.appendNodeName(name, e.node);
    w.beginObject().member("node", std::string_view(name)).member("pe", e.pe);
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

  // Per-node state in one record, so that visiting a node (placing it,
  // reading a placed predecessor, releasing a successor) touches one
  // place in memory.
  struct NodeState {
    double exec = 0.0;
    double rank = 0.0;    // critical-path rank; best successor rank until final
    double finish = 0.0;  // once placed
    std::size_t pe = 0;   // once placed
    std::size_t pending = 0;  // unranked successors, then unplaced predecessors
    bool control = false;     // an occurrence of a control actor
  };
  std::vector<NodeState> state(n);
  {
    std::vector<char> actorIsControl(g.actorCount(), 0);
    for (const graph::Actor& a : g.actors()) {
      actorIsControl[a.id.index()] = a.kind == ActorKind::Control ? 1 : 0;
    }
    for (std::size_t i = 0; i < n; ++i) {
      state[i].exec = cp.execTime(i);
      state[i].control = actorIsControl[cp.node(i).actor.index()] != 0;
      state[i].pending = cp.successors(i).size();
    }
  }

  // Critical-path ranks (longest path to a sink), computed while peeling
  // sinks off the DAG: a node is final once all its successors are, and
  // then raises each predecessor's best successor rank.  One walk over
  // the predecessor rows; a node left unpeeled lies on a cycle.
  {
    std::vector<std::size_t> peeled;
    peeled.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (state[i].pending == 0) peeled.push_back(i);
    }
    for (std::size_t head = 0; head < peeled.size(); ++head) {
      NodeState& done = state[peeled[head]];
      done.rank += done.exec;
      for (const std::size_t p : cp.predecessors(peeled[head])) {
        state[p].rank = std::max(state[p].rank, done.rank);
        if (--state[p].pending == 0) peeled.push_back(p);
      }
    }
    if (peeled.size() != n) {
      throw support::Error("canonical period contains a dependency cycle");
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    state[i].pending = cp.predecessors(i).size();
  }

  const std::size_t workerCount = platform.peCount;
  const std::size_t totalPes =
      workerCount + (platform.dedicatedControlPe ? 1 : 0);
  const std::size_t controlPe = workerCount;  // last PE when dedicated
  std::vector<double> peAvailable(totalPes, 0.0);

  ListSchedule out;
  out.entries.reserve(n);

  // Ready nodes as a binary heap whose top is the highest-priority one:
  // control actors first (rule 1), then by descending rank, then by node
  // index for determinism — a strict total order, so the pick does not
  // depend on the heap's layout.  Each entry carries its own key.
  struct Ready {
    bool control;
    double rank;
    std::size_t node;
  };
  auto lowerPriority = [](const Ready& a, const Ready& b) {
    if (a.control != b.control) return b.control;
    if (a.rank != b.rank) return a.rank < b.rank;
    return a.node > b.node;
  };
  auto readyEntry = [&](std::size_t i) {
    return Ready{options.controlPriority && state[i].control, state[i].rank,
                 i};
  };
  std::vector<Ready> ready;
  for (std::size_t i = 0; i < n; ++i) {
    if (state[i].pending == 0) ready.push_back(readyEntry(i));
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

  // Earliest start of a node with predecessors `preds` on PE pe.  An
  // edge from a control actor carries a control token: latency-free
  // (rule 2: the receiver fires immediately on token arrival).
  auto earliestStartOn = [&](std::span<const std::size_t> preds,
                             std::size_t pe) {
    double t = peAvailable[pe];
    for (const std::size_t p : preds) {
      const NodeState& from = state[p];
      double arrival = from.finish;
      if (from.pe != pe && !from.control) {
        arrival += commCost(from.pe, pe);
      }
      t = std::max(t, arrival);
    }
    return t;
  };

  while (!ready.empty()) {
    support::Budget::checkpoint(budget);
    std::pop_heap(ready.begin(), ready.end(), lowerPriority);
    const std::size_t node = ready.back().node;
    ready.pop_back();
    const std::span<const std::size_t> preds = cp.predecessors(node);
    const std::span<const std::size_t> succs = cp.successors(node);
    // The successors' states are touched below; start loading them now.
    // (The loop is bound by memory latency, not by the heap's size.)
    for (const std::size_t s : succs) __builtin_prefetch(&state[s]);

    // Choose the PE minimizing start time.
    std::size_t chosenPe = 0;
    double chosenStart = std::numeric_limits<double>::infinity();
    NodeState& placed = state[node];
    if (platform.dedicatedControlPe && placed.control) {
      chosenPe = controlPe;
      chosenStart = earliestStartOn(preds, controlPe);
    } else {
      for (std::size_t pe = 0; pe < workerCount; ++pe) {
        const double start = earliestStartOn(preds, pe);
        if (start < chosenStart) {
          chosenStart = start;
          chosenPe = pe;
        }
      }
    }

    placed.finish = chosenStart + placed.exec;
    placed.pe = chosenPe;
    peAvailable[chosenPe] = placed.finish;
    out.entries.push_back({node, chosenPe, chosenStart, placed.finish});
    out.makespan = std::max(out.makespan, placed.finish);

    for (const std::size_t s : succs) {
      if (--state[s].pending == 0) {
        // A released node is popped soon; fetch its adjacency rows.
        __builtin_prefetch(cp.predecessors(s).data());
        __builtin_prefetch(cp.successors(s).data());
        ready.push_back(readyEntry(s));
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
