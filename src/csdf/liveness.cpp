#include "csdf/liveness.hpp"

#include <algorithm>
#include <numeric>
#include <optional>
#include <set>
#include <span>

#include "support/checked.hpp"
#include "support/error.hpp"

namespace tpdf::csdf {

using graph::ActorId;
using graph::Graph;

namespace {

/// Per-port integer rates for fast simulation; the spans point into an
/// EvaluatedRates table owned by the caller (or by findSchedule's local
/// fallback).  Output ports carry the channel's consumer so the
/// scheduler can wake exactly the actors a firing may have enabled.
struct EvalPort {
  std::size_t channel;
  std::span<const std::int64_t> rates;  // length tau(actor)
  /// Consumer of `channel` (for an input port that is the owning actor).
  std::size_t dstActor;
};

struct EvalActor {
  std::vector<EvalPort> inputs;
  std::vector<EvalPort> outputs;
  /// Net occupancy change per phase (outputs minus inputs), precomputed
  /// for the MinOccupancy policy.
  std::vector<std::int64_t> delta;
};

std::vector<EvalActor> buildEvalActors(const Graph& g,
                                       const graph::EvaluatedRates& er) {
  std::vector<EvalActor> actors(g.actorCount());
  for (const graph::Actor& a : g.actors()) {
    const std::int64_t tau = g.phases(a.id);
    EvalActor& ea = actors[a.id.index()];
    ea.delta.assign(static_cast<std::size_t>(tau), 0);
    for (graph::PortId pid : a.ports) {
      const graph::Port& p = g.port(pid);
      EvalPort ep;
      ep.channel = p.channel.index();
      const bool input = graph::isInput(p.kind);
      ep.dstActor = input ? a.id.index() : g.destActor(p.channel).index();
      ep.rates = er.of(pid);
      for (std::int64_t i = 0; i < tau; ++i) {
        ea.delta[static_cast<std::size_t>(i)] +=
            input ? -ep.rates[static_cast<std::size_t>(i)]
                  : ep.rates[static_cast<std::size_t>(i)];
      }
      (input ? ea.inputs : ea.outputs).push_back(std::move(ep));
    }
  }
  return actors;
}

}  // namespace

LivenessResult findSchedule(const Graph& g, const RepetitionVector& rv,
                            const symbolic::Environment& env,
                            SchedulePolicy policy,
                            const graph::EvaluatedRates* rates,
                            support::Budget* budget,
                            std::span<const char> actorMask) {
  if (!actorMask.empty() && actorMask.size() != g.actorCount()) {
    throw support::Error("actor mask has " +
                         std::to_string(actorMask.size()) +
                         " entries for " + std::to_string(g.actorCount()) +
                         " actors");
  }
  LivenessResult out;
  if (!rv.consistent) {
    out.diagnostic = "graph is not rate consistent: " + rv.diagnostic;
    return out;
  }

  const std::size_t n = g.actorCount();
  out.q.reserve(n);
  std::int64_t totalFirings = 0;
  for (std::size_t i = 0; i < rv.q.size(); ++i) {
    if (!actorMask.empty() && actorMask[i] == 0) {
      out.q.push_back(0);  // excluded: never enabled, never blocking
      continue;
    }
    const std::int64_t qi = rv.q[i].evaluateInt(env);
    out.q.push_back(qi);
    totalFirings = support::checkedAdd(totalFirings, qi);
  }

  std::optional<graph::EvaluatedRates> localRates;
  if (rates == nullptr) rates = &localRates.emplace(g, env);
  const std::vector<EvalActor> eval = buildEvalActors(g, *rates);
  std::vector<std::int64_t> occupancy(g.channelCount());
  for (const graph::Channel& c : g.channels()) {
    occupancy[c.id.index()] = c.initialTokens;
  }
  std::vector<std::int64_t> fired(n, 0);
  std::vector<std::size_t> tau(n);
  for (std::size_t i = 0; i < n; ++i) {
    tau[i] = eval[i].delta.size();  // == phases(actor i), always >= 1
  }

  auto enabled = [&](std::size_t ai) -> bool {
    if (fired[ai] >= out.q[ai]) return false;
    const std::size_t phase = static_cast<std::size_t>(fired[ai]) % tau[ai];
    for (const EvalPort& p : eval[ai].inputs) {
      if (occupancy[p.channel] < p.rates[phase]) return false;
    }
    return true;
  };

  auto fire = [&](std::size_t ai) {
    const std::size_t phase = static_cast<std::size_t>(fired[ai]) % tau[ai];
    for (const EvalPort& p : eval[ai].inputs) {
      occupancy[p.channel] -= p.rates[phase];
    }
    for (const EvalPort& p : eval[ai].outputs) {
      occupancy[p.channel] += p.rates[phase];
    }
    out.schedule.push(ActorId(static_cast<std::uint32_t>(ai)), fired[ai]);
    ++fired[ai];
  };

  // Ready set: exactly the enabled actors, in id order.  A firing of `ai`
  // changes occupancy only on ai's own channels, so the only actors whose
  // status can flip are ai itself and the consumers of channels ai just
  // produced on; everything else in the set stays enabled.  That keeps
  // the per-firing work proportional to the fired actor's degree instead
  // of a full actor/port rescan.
  std::set<std::size_t> ready;
  std::vector<char> inReady(n, 0);
  for (std::size_t ai = 0; ai < n; ++ai) {
    if (enabled(ai)) {
      ready.insert(ai);
      inReady[ai] = 1;
    }
  }

  // Re-derives membership of `ai` after its inputs may have gained
  // tokens; returns true when ai newly entered the set.
  auto wake = [&](std::size_t ai) -> bool {
    if (inReady[ai] || !enabled(ai)) return false;
    ready.insert(ai);
    inReady[ai] = 1;
    return true;
  };

  auto deadlock = [&]() {
    // Report which actors are stuck and why.
    std::string stuck;
    stuck.reserve(32 * n);
    for (std::size_t ai = 0; ai < n; ++ai) {
      if (fired[ai] < out.q[ai]) {
        if (!stuck.empty()) stuck += ", ";
        stuck += g.actor(ActorId(static_cast<std::uint32_t>(ai))).name +
                 " (" + std::to_string(fired[ai]) + "/" +
                 std::to_string(out.q[ai]) + ")";
      }
    }
    out.diagnostic = "deadlock after " +
                     std::to_string(out.schedule.size()) +
                     " firings; blocked actors: " + stuck;
  };

  // Budget accounting is one unit per firing, but accumulated in a
  // stack local and charged in >= kMaxBatch lumps: the scheduling loops
  // carry no per-firing budget instructions, and a budgeted run still
  // observes a deadline or cancellation within a couple of thousand
  // firings (microseconds of work).
  constexpr std::int64_t kMaxBatch = 4096;
  std::int64_t pending = 0;
  while (static_cast<std::int64_t>(out.schedule.size()) < totalFirings) {
    if (ready.empty()) {
      // A tripped budget outranks the deadlock verdict: the search was
      // not allowed to finish, so it must not claim a negative result.
      if (budget != nullptr) {
        budget->charge(static_cast<std::uint64_t>(pending));
      }
      deadlock();
      return out;
    }

    std::size_t chosen;
    if (policy == SchedulePolicy::Eager) {
      // The eager choice is the lowest-id enabled actor.
      chosen = *ready.begin();
    } else {
      // Lowest occupancy delta, ties to the lowest id (the set iterates
      // in id order and the comparison is strict).
      auto it = ready.begin();
      chosen = *it;
      std::int64_t best =
          eval[chosen]
              .delta[static_cast<std::size_t>(fired[chosen]) % tau[chosen]];
      for (++it; it != ready.end(); ++it) {
        const std::size_t ai = *it;
        const std::int64_t delta =
            eval[ai].delta[static_cast<std::size_t>(fired[ai]) % tau[ai]];
        if (delta < best) {
          chosen = ai;
          best = delta;
        }
      }
    }

    // Fire `chosen`; under Eager, keep firing it through consecutive
    // phases while it stays both enabled and the lowest-id enabled actor
    // (no consumer with a smaller id woke up), so long runs cost one
    // ready-set update instead of one per firing.  A budgeted batch is
    // additionally capped at kMaxBatch firings; the outer loop re-picks
    // the same actor, so the firing order is unchanged.
    const std::int64_t batchStart =
        static_cast<std::int64_t>(out.schedule.size());
    const std::int64_t stopAt =
        budget == nullptr ? totalFirings
                          : std::min(totalFirings, batchStart + kMaxBatch);
    bool lowerWoke = false;
    do {
      const std::size_t phase =
          static_cast<std::size_t>(fired[chosen]) % tau[chosen];
      fire(chosen);
      for (const EvalPort& p : eval[chosen].outputs) {
        if (p.rates[phase] == 0 || p.dstActor == chosen) continue;
        if (wake(p.dstActor) && p.dstActor < chosen) lowerWoke = true;
      }
    } while (policy == SchedulePolicy::Eager && !lowerWoke &&
             static_cast<std::int64_t>(out.schedule.size()) < stopAt &&
             enabled(chosen));
    pending += static_cast<std::int64_t>(out.schedule.size()) - batchStart;
    if (budget != nullptr && pending >= kMaxBatch) {
      budget->charge(static_cast<std::uint64_t>(pending));
      pending = 0;
    }

    if (!enabled(chosen)) {
      ready.erase(chosen);
      inReady[chosen] = 0;
    }
  }
  if (budget != nullptr) budget->charge(static_cast<std::uint64_t>(pending));

  out.live = true;
  return out;
}

}  // namespace tpdf::csdf
