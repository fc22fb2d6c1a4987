#include "csdf/schedule.hpp"

#include <algorithm>

#include "support/checked.hpp"
#include "support/error.hpp"

namespace tpdf::csdf {

using graph::ActorId;
using graph::Graph;

namespace {

/// Calls `f(actor, count)` once per group of adjacent firings of one
/// actor — the grouping toString() and write() render.  Runs are
/// already maximal for push()ed schedules; a group spans several runs
/// only when an out-of-order index split them.
template <typename F>
void forEachGroup(const std::vector<ScheduleRun>& runs, F&& f) {
  std::size_t i = 0;
  while (i < runs.size()) {
    std::int64_t count = runs[i].count;
    std::size_t j = i + 1;
    for (; j < runs.size() && runs[j].actor == runs[i].actor; ++j) {
      count += runs[j].count;
    }
    f(runs[i].actor, count);
    i = j;
  }
}

}  // namespace

std::int64_t Schedule::countOf(ActorId a) const {
  std::int64_t n = 0;
  for (const ScheduleRun& r : runs_) {
    if (r.actor == a) n += r.count;
  }
  return n;
}

std::string Schedule::toString(const Graph& g) const {
  std::string out;
  forEachGroup(runs_, [&](ActorId a, std::int64_t count) {
    if (!out.empty()) out += " ";
    const std::string& name = g.actor(a).name;
    if (count == 1) {
      out += name;
    } else {
      out += name + "^" + std::to_string(count);
    }
  });
  return out;
}

void Schedule::write(support::json::Writer& w, const Graph& g) const {
  w.beginObject().member("firings", firings_).key("runs").beginArray();
  forEachGroup(runs_, [&](ActorId a, std::int64_t count) {
    w.beginObject().member("actor", g.actor(a).name);
    w.member("count", count).endObject();
  });
  w.endArray().endObject();
}

ScheduleCheck validateSchedule(const Graph& g, const Schedule& s,
                               const symbolic::Environment& env,
                               const graph::EvaluatedRates* rates,
                               support::Budget* budget) {
  // Without caller-provided tables, rates are evaluated lazily per
  // event (the legacy behaviour): a partial schedule must stay
  // checkable even when actors it never fires have unbound or
  // ill-valued rates under `env`.
  const auto rateAt = [&](graph::PortId pid, std::int64_t k) {
    return rates != nullptr
               ? rates->at(pid, k)
               : g.effectiveRates(pid).at(k).evaluateInt(env);
  };

  ScheduleCheck check;
  check.finalOccupancy.resize(g.channelCount());
  check.maxOccupancy.resize(g.channelCount());
  for (const graph::Channel& c : g.channels()) {
    check.finalOccupancy[c.id.index()] = c.initialTokens;
    check.maxOccupancy[c.id.index()] = c.initialTokens;
  }

  std::vector<std::int64_t> fired(g.actorCount(), 0);

  for (const ScheduleRun& run : s.runs()) {
    const ActorId a = run.actor;
    const auto& ports = g.actor(a).ports;
    for (std::int64_t k = run.firstK; k < run.firstK + run.count; ++k) {
      support::Budget::checkpoint(budget);
      // Indices inside a run are consecutive, so only its first firing
      // can be out of order.
      if (k == run.firstK && k != fired[a.index()]) {
        check.diagnostic = "firing of '" + g.actor(a).name +
                           "' out of order: expected k=" +
                           std::to_string(fired[a.index()]) + ", got k=" +
                           std::to_string(k);
        return check;
      }
      // Consume from every input channel.
      for (graph::PortId pid : ports) {
        const graph::Port& p = g.port(pid);
        if (!graph::isInput(p.kind)) continue;
        const std::int64_t need = rateAt(pid, k);
        std::int64_t& occupancy = check.finalOccupancy[p.channel.index()];
        if (occupancy < need) {
          check.diagnostic =
              "channel '" + g.channel(p.channel).name + "' underflows at " +
              g.actor(a).name + "#" + std::to_string(k) + ": needs " +
              std::to_string(need) + ", has " + std::to_string(occupancy);
          return check;
        }
        occupancy -= need;
      }
      // Produce on every output channel.
      for (graph::PortId pid : ports) {
        const graph::Port& p = g.port(pid);
        if (graph::isInput(p.kind)) continue;
        const std::int64_t made = rateAt(pid, k);
        std::int64_t& occupancy = check.finalOccupancy[p.channel.index()];
        occupancy = support::checkedAdd(occupancy, made);
        check.maxOccupancy[p.channel.index()] =
            std::max(check.maxOccupancy[p.channel.index()], occupancy);
      }
      ++fired[a.index()];
    }
  }

  check.ok = true;
  return check;
}

}  // namespace tpdf::csdf
