// Golden-schedule equivalence: the incremental ready-set scheduler in
// csdf::findSchedule must produce firing orders byte-identical to the
// reference full-rescan algorithm (the original implementation, kept
// here as the oracle) for both policies, on the paper graphs and on
// randomized chains.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/edgegraph.hpp"
#include "apps/ofdm.hpp"
#include "apps/papergraphs.hpp"
#include "apps/randomgraphs.hpp"
#include "csdf/liveness.hpp"
#include "csdf/repetition.hpp"
#include "graph/builder.hpp"
#include "support/prng.hpp"

#include "schedule_firings.hpp"

namespace tpdf::csdf {
namespace {

using graph::ActorId;
using graph::Graph;
using graph::GraphBuilder;
using symbolic::Environment;

/// What the reference scheduler found: the firing sequence as a plain
/// per-firing list, independent of Schedule's run-length storage.
struct ReferenceResult {
  bool live = false;
  std::string diagnostic;
  std::vector<std::int64_t> q;
  std::vector<Firing> firings;
};

/// Reference scheduler: the pre-optimization full-rescan loop.  Every
/// step scans all actors and picks the first enabled one (Eager) or the
/// enabled one with the smallest occupancy delta, first wins ties
/// (MinOccupancy).
ReferenceResult referenceSchedule(const Graph& g, const Environment& env,
                                  SchedulePolicy policy) {
  ReferenceResult out;
  const RepetitionVector rv = computeRepetitionVector(g);
  if (!rv.consistent) {
    out.diagnostic = rv.diagnostic;
    return out;
  }
  std::int64_t totalFirings = 0;
  for (const symbolic::Expr& e : rv.q) {
    out.q.push_back(e.evaluateInt(env));
    totalFirings += out.q.back();
  }

  std::vector<std::int64_t> occupancy(g.channelCount());
  for (const graph::Channel& c : g.channels()) {
    occupancy[c.id.index()] = c.initialTokens;
  }
  std::vector<std::int64_t> fired(g.actorCount(), 0);

  auto rate = [&](graph::PortId pid, std::int64_t k) {
    return g.effectiveRates(pid).at(k).evaluateInt(env);
  };
  auto enabled = [&](std::size_t ai) {
    const ActorId id(static_cast<std::uint32_t>(ai));
    if (fired[ai] >= out.q[ai]) return false;
    for (graph::PortId pid : g.actor(id).ports) {
      const graph::Port& p = g.port(pid);
      if (graph::isInput(p.kind) &&
          occupancy[p.channel.index()] < rate(pid, fired[ai])) {
        return false;
      }
    }
    return true;
  };
  auto delta = [&](std::size_t ai) {
    const ActorId id(static_cast<std::uint32_t>(ai));
    std::int64_t d = 0;
    for (graph::PortId pid : g.actor(id).ports) {
      const graph::Port& p = g.port(pid);
      const std::int64_t r = rate(pid, fired[ai]);
      d += graph::isInput(p.kind) ? -r : r;
    }
    return d;
  };

  while (static_cast<std::int64_t>(out.firings.size()) <
         totalFirings) {
    std::size_t chosen = g.actorCount();
    if (policy == SchedulePolicy::Eager) {
      for (std::size_t ai = 0; ai < g.actorCount(); ++ai) {
        if (enabled(ai)) {
          chosen = ai;
          break;
        }
      }
    } else {
      std::int64_t best = 0;
      for (std::size_t ai = 0; ai < g.actorCount(); ++ai) {
        if (!enabled(ai)) continue;
        const std::int64_t d = delta(ai);
        if (chosen == g.actorCount() || d < best) {
          chosen = ai;
          best = d;
        }
      }
    }
    if (chosen == g.actorCount()) return out;  // deadlock

    const ActorId id(static_cast<std::uint32_t>(chosen));
    for (graph::PortId pid : g.actor(id).ports) {
      const graph::Port& p = g.port(pid);
      const std::int64_t r = rate(pid, fired[chosen]);
      occupancy[p.channel.index()] += graph::isInput(p.kind) ? -r : r;
    }
    out.firings.emplace_back(id, fired[chosen]);
    ++fired[chosen];
  }
  out.live = true;
  return out;
}

std::string renderOrder(const Graph& g, const std::vector<Firing>& firings) {
  std::string out;
  for (const auto& [actor, k] : firings) {
    out += g.actor(actor).name + "#" + std::to_string(k) + " ";
  }
  return out;
}

void expectIdenticalSchedules(const Graph& g, const Environment& env) {
  for (const SchedulePolicy policy :
       {SchedulePolicy::Eager, SchedulePolicy::MinOccupancy}) {
    const ReferenceResult expected = referenceSchedule(g, env, policy);
    const LivenessResult actual =
        findSchedule(g, computeRepetitionVector(g), env, policy);
    ASSERT_EQ(actual.live, expected.live) << g.name();
    ASSERT_EQ(actual.q, expected.q) << g.name();
    ASSERT_EQ(renderOrder(g, expandFirings(actual.schedule)),
              renderOrder(g, expected.firings))
        << g.name() << " under policy "
        << (policy == SchedulePolicy::Eager ? "Eager" : "MinOccupancy");
  }
}

TEST(GoldenSchedule, Fig1Csdf) {
  expectIdenticalSchedules(apps::fig1Csdf(), {});
}

TEST(GoldenSchedule, Fig2TpdfAcrossValuations) {
  const graph::Graph g = apps::fig2Tpdf();
  for (const std::int64_t p : {1, 2, 3, 8, 17}) {
    expectIdenticalSchedules(g, Environment{{"p", p}});
  }
}

TEST(GoldenSchedule, Fig4aCycle) {
  expectIdenticalSchedules(apps::fig4aCycle(), Environment{{"p", 3}});
}

TEST(GoldenSchedule, EdgeDetection) {
  expectIdenticalSchedules(apps::edgeDetectionGraph().graph(), {});
}

TEST(GoldenSchedule, OfdmEffective) {
  const graph::Graph g = apps::ofdmTpdfEffective(apps::Constellation::Qam16);
  expectIdenticalSchedules(g,
                           Environment{{"b", 2}, {"N", 16}, {"L", 4}});
  expectIdenticalSchedules(g,
                           Environment{{"b", 10}, {"N", 64}, {"L", 1}});
}

TEST(GoldenSchedule, OfdmCsdfBaseline) {
  expectIdenticalSchedules(apps::ofdmCsdfGraph(),
                           Environment{{"b", 3}, {"N", 8}, {"L", 2}});
}

/// The shared bench/test generator: random consistent chain with
/// repetition counts steered back into [1, 1024].
Graph randomChain(int n, std::uint64_t seed) {
  return apps::randomConsistentChain(n, seed);
}

TEST(GoldenSchedule, RandomChainsMatchReference) {
  support::Prng seeds(0xC0FFEE);
  for (int trial = 0; trial < 12; ++trial) {
    const int n = static_cast<int>(seeds.uniform(2, 40));
    const Graph g = randomChain(n, seeds.next());
    expectIdenticalSchedules(g, {});
  }
}

/// Multi-phase + initial-token coverage: a cyclo-static ring where the
/// back edge's initial tokens gate progress, so the ready set keeps
/// shrinking and growing.
TEST(GoldenSchedule, CycloStaticRing) {
  const Graph g = GraphBuilder("ring")
                      .kernel("A").in("back", "[1,0]").out("o", "[2,1]")
                      .kernel("B").in("i", "[3]").out("o", "[1]")
                      .kernel("C").in("i", "[1]").out("fwd", "[2]")
                      .channel("e1", "A.o", "B.i")
                      .channel("e2", "B.o", "C.i")
                      .channel("e3", "C.fwd", "A.back", 2)
                      .build();
  expectIdenticalSchedules(g, {});
}

}  // namespace
}  // namespace tpdf::csdf
