#include "core/liveness.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "core/scc.hpp"
#include "support/error.hpp"

namespace tpdf::core {

using graph::ActorId;
using graph::ChannelId;
using graph::Graph;
using symbolic::Environment;
using symbolic::Expr;

namespace {

/// Token-accurate state of one cycle's internal channels.  Channels
/// crossing the cycle boundary are ignored: external producers are
/// assumed live, which is the clustering abstraction of Section III-C.
/// Rates come pre-evaluated from the shared context tables.
struct CycleSim {
  const Graph& g;
  const graph::EvaluatedRates& rates;
  std::vector<ActorId> actors;                   // cycle members
  std::vector<std::int64_t> target;              // qL per member
  std::vector<std::int64_t> fired;               // firings so far
  std::vector<ChannelId> internalChannels;
  std::vector<std::int64_t> occupancy;           // per internal channel

  CycleSim(const Graph& source, const graph::EvaluatedRates& er,
           const std::vector<ActorId>& members,
           const std::vector<std::int64_t>& localCounts)
      : g(source), rates(er), actors(members), target(localCounts),
        fired(members.size(), 0) {
    std::set<ActorId> memberSet(members.begin(), members.end());
    for (const graph::Channel& c : g.channels()) {
      if (memberSet.count(g.sourceActor(c.id)) != 0 &&
          memberSet.count(g.destActor(c.id)) != 0) {
        internalChannels.push_back(c.id);
        occupancy.push_back(c.initialTokens);
      }
    }
  }

  std::size_t memberIndex(ActorId a) const {
    return static_cast<std::size_t>(
        std::find(actors.begin(), actors.end(), a) - actors.begin());
  }

  std::size_t internalIndex(ChannelId c) const {
    const auto it =
        std::find(internalChannels.begin(), internalChannels.end(), c);
    return static_cast<std::size_t>(it - internalChannels.begin());
  }

  bool enabled(std::size_t mi) const {
    if (fired[mi] >= target[mi]) return false;
    const ActorId a = actors[mi];
    for (graph::PortId pid : g.actor(a).ports) {
      const graph::Port& p = g.port(pid);
      if (!graph::isInput(p.kind)) continue;
      const std::size_t ci = internalIndex(p.channel);
      if (ci == internalChannels.size()) continue;  // external input
      const std::int64_t need = rates.at(pid, fired[mi]);
      if (occupancy[ci] < need) return false;
    }
    return true;
  }

  void fire(std::size_t mi, csdf::Schedule* schedule) {
    const ActorId a = actors[mi];
    for (graph::PortId pid : g.actor(a).ports) {
      const graph::Port& p = g.port(pid);
      const std::size_t ci = internalIndex(p.channel);
      if (ci == internalChannels.size()) continue;
      const std::int64_t amount = rates.at(pid, fired[mi]);
      if (graph::isInput(p.kind)) {
        occupancy[ci] -= amount;
      } else {
        occupancy[ci] += amount;
      }
    }
    if (schedule != nullptr) schedule->push(a, fired[mi]);
    ++fired[mi];
  }

  bool done() const {
    for (std::size_t i = 0; i < actors.size(); ++i) {
      if (fired[i] < target[i]) return false;
    }
    return true;
  }
};

/// Strict clustering: does some single-appearance order of whole blocks
/// a^{qL_a} execute?  Greedy: commit any actor whose entire remaining
/// block can fire in one run.
bool strictBlockSchedule(const Graph& g,
                         const graph::EvaluatedRates& rates,
                         const std::vector<ActorId>& members,
                         const std::vector<std::int64_t>& counts,
                         support::Budget* budget) {
  CycleSim sim(g, rates, members, counts);
  while (!sim.done()) {
    bool progressed = false;
    for (std::size_t mi = 0; mi < sim.actors.size() && !progressed; ++mi) {
      if (sim.fired[mi] >= sim.target[mi]) continue;
      // Try the whole block; roll back the mutable state on failure.
      const std::vector<std::int64_t> savedFired = sim.fired;
      const std::vector<std::int64_t> savedOccupancy = sim.occupancy;
      bool blockOk = true;
      while (sim.fired[mi] < sim.target[mi]) {
        support::Budget::checkpoint(budget);
        if (!sim.enabled(mi)) {
          blockOk = false;
          break;
        }
        sim.fire(mi, nullptr);
      }
      if (blockOk) {
        progressed = true;
      } else {
        sim.fired = savedFired;
        sim.occupancy = savedOccupancy;
      }
    }
    if (!progressed) return false;
  }
  return true;
}

/// Late schedule: greedy per-firing interleaving (subsumes ref. [8]).
bool lateSchedule(const Graph& g,
                  const graph::EvaluatedRates& rates,
                  const std::vector<ActorId>& members,
                  const std::vector<std::int64_t>& counts,
                  csdf::Schedule* out, support::Budget* budget) {
  CycleSim sim(g, rates, members, counts);
  while (!sim.done()) {
    support::Budget::checkpoint(budget);
    bool progressed = false;
    for (std::size_t mi = 0; mi < sim.actors.size(); ++mi) {
      if (sim.enabled(mi)) {
        sim.fire(mi, out);
        progressed = true;
        break;
      }
    }
    if (!progressed) return false;
  }
  return true;
}

std::string exponentString(const Expr& e) {
  if (e.isOne()) return "";
  if (e.isConstant()) return "^" + e.toString();
  return "^{" + e.toString() + "}";
}

}  // namespace

namespace {

LivenessReport checkLivenessOver(const AnalysisContext& ctx,
                                 const csdf::RepetitionVector& rv,
                                 const Environment& env,
                                 std::int64_t sampleValue,
                                 const graph::EvaluatedRates* providedRates,
                                 support::Budget* budget) {
  const Graph& g = ctx.view();
  LivenessReport report;
  if (!rv.consistent) {
    report.diagnostic = "graph is not rate consistent: " + rv.diagnostic;
    return report;
  }

  report.sampleEnv = env;
  for (const std::string& param : g.params()) {
    if (!report.sampleEnv.has(param)) {
      report.sampleEnv.bind(param, sampleValue);
    }
  }
  // Caller-provided tables keep concurrent sweeps off the context's
  // mutable rate cache; they must match the completed sample env.
  const graph::EvaluatedRates& sampleRates =
      providedRates != nullptr ? *providedRates
                               : ctx.rates(report.sampleEnv);

  const SccResult scc = stronglyConnectedComponents(g);

  bool allCyclesLive = true;
  for (std::size_t c : scc.nonTrivial) {
    CycleReport cycle;
    cycle.actors = scc.members[c];

    const std::set<ActorId> Z(cycle.actors.begin(), cycle.actors.end());
    cycle.local = localSolution(g, rv, Z);
    if (!cycle.local.ok) {
      cycle.diagnostic = cycle.local.diagnostic;
      allCyclesLive = false;
      report.cycles.push_back(std::move(cycle));
      continue;
    }

    std::vector<std::int64_t> counts;
    counts.reserve(cycle.actors.size());
    for (ActorId a : cycle.actors) {
      counts.push_back(cycle.local.of(a).evaluateInt(report.sampleEnv));
    }

    cycle.strictClusterable =
        strictBlockSchedule(g, sampleRates, cycle.actors, counts, budget);
    cycle.lateSchedulable = lateSchedule(g, sampleRates, cycle.actors,
                                         counts, &cycle.localSchedule, budget);
    if (!cycle.lateSchedulable) {
      std::string names;
      for (ActorId a : cycle.actors) {
        if (!names.empty()) names += ", ";
        names += g.actor(a).name;
      }
      cycle.diagnostic = "cycle {" + names +
                         "} deadlocks: no local schedule exists even with "
                         "interleaving (insufficient initial tokens)";
      allCyclesLive = false;
    }
    report.cycles.push_back(std::move(cycle));
  }

  // Whole-graph symbolic execution at the sample valuation, over the
  // shared integer rate tables.
  csdf::LivenessResult global =
      csdf::findSchedule(g, rv, report.sampleEnv,
                         csdf::SchedulePolicy::Eager, &sampleRates, budget);
  report.sampleSchedule = std::move(global.schedule);

  report.live = allCyclesLive && global.live;
  if (!report.live && report.diagnostic.empty()) {
    for (const CycleReport& c : report.cycles) {
      if (!c.diagnostic.empty()) {
        report.diagnostic = c.diagnostic;
        break;
      }
    }
    if (report.diagnostic.empty()) report.diagnostic = global.diagnostic;
  }
  if (!report.live) return report;

  // Parametric schedule: components in topological order; cycles are
  // rendered as (local late schedule)^{qG}.
  std::string rendered;
  for (std::size_t c = 0; c < scc.members.size(); ++c) {
    if (!rendered.empty()) rendered += " ";
    const bool cyclic = std::find(scc.nonTrivial.begin(),
                                  scc.nonTrivial.end(),
                                  c) != scc.nonTrivial.end();
    if (!cyclic) {
      const ActorId a = scc.members[c][0];
      rendered += g.actor(a).name + exponentString(rv.qOf(a));
    } else {
      for (const CycleReport& cr : report.cycles) {
        if (cr.actors == scc.members[c]) {
          rendered += "(" + cr.localSchedule.toString(g) + ")" +
                      exponentString(Expr(cr.local.qG));
          break;
        }
      }
    }
  }
  report.parametricSchedule = rendered;
  return report;
}

}  // namespace

LivenessReport checkLiveness(const Graph& g,
                             const csdf::RepetitionVector& rv,
                             const Environment& env,
                             std::int64_t sampleValue,
                             support::Budget* budget) {
  return checkLivenessOver(AnalysisContext(g), rv, env, sampleValue, nullptr,
                           budget);
}

LivenessReport checkLiveness(const AnalysisContext& ctx,
                             const Environment& env,
                             std::int64_t sampleValue,
                             support::Budget* budget) {
  return checkLivenessOver(ctx, ctx.repetition(), env, sampleValue, nullptr,
                           budget);
}

LivenessReport checkLiveness(const AnalysisContext& ctx,
                             const Environment& env,
                             std::int64_t sampleValue,
                             const graph::EvaluatedRates& sampleRates,
                             support::Budget* budget) {
  return checkLivenessOver(ctx, ctx.repetition(), env, sampleValue,
                           &sampleRates, budget);
}

void LivenessReport::write(support::json::Writer& w, const Graph& g) const {
  w.beginObject().member("live", live);
  if (!diagnostic.empty()) w.member("diagnostic", diagnostic);
  if (!parametricSchedule.empty()) {
    w.member("parametricSchedule", parametricSchedule);
  }
  sampleEnv.write(w.key("sampleBindings"));
  if (!sampleSchedule.empty()) sampleSchedule.write(w.key("sampleSchedule"), g);
  w.key("cycles").beginArray();
  for (const CycleReport& c : cycles) {
    w.beginObject().key("actors").beginArray();
    for (const ActorId a : c.actors) w.value(g.actor(a).name);
    w.endArray().member("strictClusterable", c.strictClusterable);
    w.member("lateSchedulable", c.lateSchedulable);
    if (!c.localSchedule.empty()) {
      c.localSchedule.write(w.key("localSchedule"), g);
    }
    if (!c.diagnostic.empty()) w.member("diagnostic", c.diagnostic);
    w.endObject();
  }
  w.endArray().endObject();
}

}  // namespace tpdf::core
