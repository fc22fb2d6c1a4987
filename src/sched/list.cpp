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
  ListSchedule out;
  out.entries.reserve(cp.size());
  out.makespan = ListScheduler(cp, options).run(platform, budget, &out.entries);
  std::sort(out.entries.begin(), out.entries.end(),
            [](const ScheduledOccurrence& a, const ScheduledOccurrence& b) {
              if (a.start != b.start) return a.start < b.start;
              return a.node < b.node;
            });
  return out;
}

ListScheduler::ListScheduler(const CanonicalPeriod& cp,
                             const ListSchedulerOptions& options)
    : cp_(&cp), options_(options) {}

bool ListScheduler::lowerPriority(const Ready& a, const Ready& b) {
  if (a.control != b.control) return b.control;
  if (a.rank != b.rank) return a.rank < b.rank;
  return a.node > b.node;
}

void ListScheduler::rank() {
  const CanonicalPeriod& cp = *cp_;
  const graph::Graph& g = cp.graph();
  const std::size_t n = cp.size();
  state_.assign(n, NodeState{});
  {
    std::vector<char> actorIsControl(g.actorCount(), 0);
    for (const graph::Actor& a : g.actors()) {
      actorIsControl[a.id.index()] = a.kind == ActorKind::Control ? 1 : 0;
    }
    for (std::size_t i = 0; i < n; ++i) {
      state_[i].exec = cp.execTime(i);
      state_[i].control = actorIsControl[cp.node(i).actor.index()] != 0;
      state_[i].pending = cp.successors(i).size();
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
      if (state_[i].pending == 0) peeled.push_back(i);
    }
    for (std::size_t head = 0; head < peeled.size(); ++head) {
      NodeState& done = state_[peeled[head]];
      done.rank += done.exec;
      for (const std::size_t p : cp.predecessors(peeled[head])) {
        state_[p].rank = std::max(state_[p].rank, done.rank);
        if (--state_[p].pending == 0) peeled.push_back(p);
      }
    }
    if (peeled.size() != n) {
      throw support::Error("canonical period contains a dependency cycle");
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (cp.predecessors(i).empty()) {
      initial_.push_back(
          {options_.controlPriority && state_[i].control, state_[i].rank, i});
    }
  }
  std::make_heap(initial_.begin(), initial_.end(), lowerPriority);
  // Every node is ready at most once: sized once, no run grows it.
  ready_.reserve(n);
  hasRanks_ = true;
}

double ListScheduler::run(const Platform& platform, support::Budget* budget,
                          std::vector<ScheduledOccurrence>* entries) {
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
  if (!hasRanks_) rank();
  const CanonicalPeriod& cp = *cp_;
  const std::size_t n = cp.size();
  // A node's finish and PE are written when it is placed, before any
  // successor reads them: only the pending counts need a reset.
  for (std::size_t i = 0; i < n; ++i) {
    state_[i].pending = cp.predecessors(i).size();
  }
  ready_ = initial_;

  const std::size_t workerCount = platform.peCount;
  const std::size_t totalPes =
      workerCount + (platform.dedicatedControlPe ? 1 : 0);
  const std::size_t controlPe = workerCount;  // last PE when dedicated
  peAvailable_.assign(totalPes, 0.0);

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
    double t = peAvailable_[pe];
    for (const std::size_t p : preds) {
      const NodeState& from = state_[p];
      double arrival = from.finish;
      if (from.pe != pe && !from.control) {
        arrival += commCost(from.pe, pe);
      }
      t = std::max(t, arrival);
    }
    return t;
  };

  double makespan = 0.0;
  std::size_t placedCount = 0;
  while (!ready_.empty()) {
    support::Budget::checkpoint(budget);
    std::pop_heap(ready_.begin(), ready_.end(), lowerPriority);
    const std::size_t node = ready_.back().node;
    ready_.pop_back();
    const std::span<const std::size_t> preds = cp.predecessors(node);
    const std::span<const std::size_t> succs = cp.successors(node);
    // The successors' states are touched below; start loading them now.
    // (The loop is bound by memory latency, not by the heap's size.)
    for (const std::size_t s : succs) __builtin_prefetch(&state_[s]);

    // Choose the PE minimizing start time.
    std::size_t chosenPe = 0;
    double chosenStart = std::numeric_limits<double>::infinity();
    NodeState& placed = state_[node];
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
    peAvailable_[chosenPe] = placed.finish;
    ++placedCount;
    if (entries != nullptr) {
      entries->push_back({node, chosenPe, chosenStart, placed.finish});
    }
    makespan = std::max(makespan, placed.finish);

    for (const std::size_t s : succs) {
      if (--state_[s].pending == 0) {
        // A released node is popped soon; fetch its adjacency rows.
        __builtin_prefetch(cp.predecessors(s).data());
        __builtin_prefetch(cp.successors(s).data());
        ready_.push_back({options_.controlPriority && state_[s].control,
                          state_[s].rank, s});
        std::push_heap(ready_.begin(), ready_.end(), lowerPriority);
      }
    }
  }

  if (placedCount != n) {
    throw support::Error("list scheduler failed to place every occurrence");
  }
  return makespan;
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
