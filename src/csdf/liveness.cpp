#include "csdf/liveness.hpp"

#include <algorithm>
#include <limits>
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
/// fallback).  Each port also carries the channel's other end, so the
/// scheduler can wake exactly the consumers a run may have enabled and
/// tell which of a consumer's inputs the running actor feeds.
struct EvalPort {
  std::size_t channel;
  std::span<const std::int64_t> rates;  // length tau(actor)
  /// The actor at the channel's other end (the consumer for an output
  /// port, the producer for an input port) and its rates on the channel.
  std::size_t peer;
  std::span<const std::int64_t> peerRates;
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
      const graph::Channel& c = g.channel(p.channel);
      const bool input = graph::isInput(p.kind);
      EvalPort ep;
      ep.channel = p.channel.index();
      ep.rates = er.of(pid);
      ep.peer = (input ? g.sourceActor(c.id) : g.destActor(c.id)).index();
      ep.peerRates = er.of(input ? c.src : c.dst);
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
                            support::Budget* budget) {
  LivenessResult out;
  if (!rv.consistent) {
    out.diagnostic = "graph is not rate consistent: " + rv.diagnostic;
    return out;
  }

  const std::size_t n = g.actorCount();
  out.q.reserve(n);
  std::int64_t totalFirings = 0;
  for (std::size_t i = 0; i < rv.q.size(); ++i) {
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

  auto deltaOf = [&](std::size_t ai) {
    return eval[ai].delta[static_cast<std::size_t>(fired[ai]) % tau[ai]];
  };

  // Ready set: exactly the enabled actors, in id order.  A firing of `ai`
  // changes occupancy only on ai's own channels, so the only actors whose
  // status can flip are ai itself and the consumers of channels ai just
  // produced on; everything else in the set stays enabled.  That keeps
  // the work per run proportional to the fired actor's degree instead
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
  // tokens.
  auto wake = [&](std::size_t ai) {
    if (inReady[ai] || !enabled(ai)) return;
    ready.insert(ai);
    inReady[ai] = 1;
  };

  // While single-phase `chosen` runs, a consumer `c` gains tokens only
  // on the inputs `chosen` feeds, the rest of its inputs stay put.
  // Returns the 1-based firing of the run that first enables `c`, or
  // kNever when no firing of the run does.
  constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();
  auto wakesAfter = [&](std::size_t c, std::size_t chosen) {
    if (fired[c] >= out.q[c]) return kNever;
    const std::size_t phase = static_cast<std::size_t>(fired[c]) % tau[c];
    std::int64_t at = 1;
    for (const EvalPort& p : eval[c].inputs) {
      const std::int64_t deficit = p.rates[phase] - occupancy[p.channel];
      if (deficit <= 0) continue;
      const std::int64_t gain = p.peer == chosen ? p.peerRates[0] : 0;
      if (gain == 0) return kNever;
      at = std::max(at, deficit / gain + (deficit % gain != 0 ? 1 : 0));
    }
    return at;
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

    // The eager choice is the lowest-id enabled actor; MinOccupancy
    // takes the lowest occupancy delta, ties to the lowest id (the set
    // iterates in id order and the comparison is strict).
    std::size_t chosen = *ready.begin();
    std::int64_t best = deltaOf(chosen);
    if (policy == SchedulePolicy::MinOccupancy) {
      for (const std::size_t ai : ready) {
        if (deltaOf(ai) < best) {
          chosen = ai;
          best = deltaOf(ai);
        }
      }
    }
    // Whether a consumer `c` that wakes up would take the next pick from
    // `chosen`.  Nothing already ready does, and firing `chosen` changes
    // no other actor's phase, so only a newly woken consumer can end a
    // run early.
    auto outranks = [&](std::size_t c) {
      if (policy == SchedulePolicy::Eager) return c < chosen;
      return deltaOf(c) < best || (deltaOf(c) == best && c < chosen);
    };

    // Fire `chosen` k times in one step, k being the firings it makes
    // before the policy would pick another actor: the rest of its q, the
    // kMaxBatch cap of a budgeted run, as many as its inputs cover (a
    // self-loop refills its channel by the producer rate each firing, so
    // only a net loss limits), and the firing that first wakes an
    // outranking consumer.  A multi-phase actor's rates change each
    // firing, so it fires one at a time; the outer loop re-picks it.
    const std::size_t phase =
        static_cast<std::size_t>(fired[chosen]) % tau[chosen];
    std::int64_t k = tau[chosen] == 1 ? out.q[chosen] - fired[chosen] : 1;
    if (budget != nullptr) k = std::min(k, kMaxBatch);
    if (k > 1) {
      for (const EvalPort& p : eval[chosen].inputs) {
        const std::int64_t net =
            (p.peer == chosen ? p.peerRates[0] : 0) - p.rates[0];
        if (net < 0) {
          k = std::min(k, (occupancy[p.channel] - p.rates[0]) / -net + 1);
        }
      }
      for (const EvalPort& p : eval[chosen].outputs) {
        if (p.rates[0] == 0 || p.peer == chosen || inReady[p.peer] ||
            !outranks(p.peer)) {
          continue;
        }
        k = std::min(k, wakesAfter(p.peer, chosen));
      }
    }
    for (const EvalPort& p : eval[chosen].inputs) {
      occupancy[p.channel] -= k * p.rates[phase];
    }
    for (const EvalPort& p : eval[chosen].outputs) {
      occupancy[p.channel] += k * p.rates[phase];
    }
    out.schedule.push(ActorId(static_cast<std::uint32_t>(chosen)),
                      fired[chosen], k);
    fired[chosen] += k;
    // Consumers only gain tokens during a run, so one wake-up at its end
    // admits exactly the actors a per-firing check would have.
    for (const EvalPort& p : eval[chosen].outputs) {
      if (p.rates[phase] != 0 && p.peer != chosen) wake(p.peer);
    }
    pending += k;
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
