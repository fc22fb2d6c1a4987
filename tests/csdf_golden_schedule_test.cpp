// Golden-schedule equivalence: the run-length ready-set scheduler in
// csdf::findSchedule must produce firing orders byte-identical to the
// reference full-rescan algorithm (the original implementation, kept
// here as the oracle) for both policies, with and without a budget, on
// the paper graphs, on randomized chains and on random graphs shaped to
// hit every branch of the run-length rule.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "apps/edgegraph.hpp"
#include "apps/ofdm.hpp"
#include "apps/papergraphs.hpp"
#include "apps/randomgraphs.hpp"
#include "csdf/liveness.hpp"
#include "csdf/repetition.hpp"
#include "graph/builder.hpp"
#include "support/budget.hpp"
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
    const char* name =
        policy == SchedulePolicy::Eager ? "Eager" : "MinOccupancy";
    const ReferenceResult expected = referenceSchedule(g, env, policy);
    const RepetitionVector rv = computeRepetitionVector(g);
    const LivenessResult actual = findSchedule(g, rv, env, policy);
    ASSERT_EQ(actual.live, expected.live) << g.name();
    ASSERT_EQ(actual.q, expected.q) << g.name();
    ASSERT_EQ(renderOrder(g, expandFirings(actual.schedule)),
              renderOrder(g, expected.firings))
        << g.name() << " under policy " << name;

    // A budget caps each run at the charging batch, but the outer loop
    // re-picks the same actor: the firing sequence must not change, and
    // the budget is charged exactly one unit per firing.
    support::Budget budget;
    const LivenessResult budgeted =
        findSchedule(g, rv, env, policy, nullptr, &budget);
    ASSERT_EQ(budgeted.live, actual.live) << g.name();
    ASSERT_EQ(budgeted.schedule.runs(), actual.schedule.runs())
        << g.name() << " under policy " << name << " with a budget";
    ASSERT_EQ(budget.work(), actual.schedule.size()) << g.name();
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

/// Runs longer than a budgeted batch (4096 firings): under Eager, A
/// fires 5000 times before C, declared first, wakes and takes over; a
/// budget splits each such run, the firing order must not change.  A
/// also feeds its own self-loop and the sink D, which under MinOccupancy
/// ends A's run every 3 firings.
TEST(GoldenSchedule, RunsLongerThanTheBudgetBatch) {
  const Graph g = GraphBuilder("long-runs")
                      .kernel("C").in("i", "[10000]").out("o", "[1]")
                      .kernel("A").out("o", "[2]").out("d", "[1]")
                      .in("s", "[1]").out("loop", "[1]")
                      .kernel("D").in("i", "[3]")
                      .kernel("B").in("i", "[1]")
                      .channel("ac", "A.o", "C.i")
                      .channel("ad", "A.d", "D.i")
                      .channel("cb", "C.o", "B.i")
                      .channel("aa", "A.loop", "A.s", 1)
                      .build();
  expectIdenticalSchedules(g, {});
  const LivenessResult eager = findSchedule(g, computeRepetitionVector(g));
  ASSERT_TRUE(eager.live);
  EXPECT_EQ(eager.schedule.runs().front().count, 5000u);
}

/// A random consistent graph shaped to reach every branch of the
/// run-length rule: actors are declared in shuffled order (so consumers
/// often outrank their producers under Eager), about a third of them are
/// 2-phase (zero-rate phases included), some pairs are joined by
/// parallel channels, some actors carry self-loops, and channels get
/// random initial tokens.  The spanning tree alone is acyclic; the extra
/// channels close cycles whose tokens may not suffice, so a good share
/// of the graphs deadlock.
Graph randomShapedGraph(support::Prng& rng) {
  const int n = static_cast<int>(rng.uniform(2, 8));
  std::vector<std::int64_t> cycles(n);  // full phase cycles per iteration
  std::vector<int> tau(n);
  for (int i = 0; i < n; ++i) {
    cycles[i] = rng.uniform(1, 4);
    tau[i] = rng.chance(0.35) ? 2 : 1;
  }
  struct PortDecl {
    bool input;
    std::string name;
    std::string rates;
  };
  struct ChannelDecl {
    std::string name, from, to;
    std::int64_t init;
  };
  std::vector<std::vector<PortDecl>> ports(n);
  std::vector<ChannelDecl> channels;
  auto actorName = [](int i) { return "a" + std::to_string(i); };
  // A rate list whose phases sum to `perCycle`.
  auto rateList = [&](std::int64_t perCycle, int phases) {
    if (phases == 1) return "[" + std::to_string(perCycle) + "]";
    const std::int64_t first = rng.uniform(0, perCycle);
    return "[" + std::to_string(first) + "," +
           std::to_string(perCycle - first) + "]";
  };
  // Balanced by construction: `tokens` per iteration is a multiple of
  // both actors' cycle counts.
  auto connect = [&](int src, int dst) {
    const std::int64_t tokens =
        std::lcm(cycles[src], cycles[dst]) * rng.uniform(1, 3);
    const std::string id = std::to_string(channels.size());
    ports[src].push_back({false, "o" + id, rateList(tokens / cycles[src],
                                                     tau[src])});
    ports[dst].push_back({true, "i" + id, rateList(tokens / cycles[dst],
                                                    tau[dst])});
    const std::int64_t init = rng.chance(0.5) ? 0 : rng.uniform(0, tokens);
    channels.push_back({"e" + id, actorName(src) + ".o" + id,
                        actorName(dst) + ".i" + id, init});
  };
  for (int i = 1; i < n; ++i) {
    const int j = static_cast<int>(rng.uniform(0, i - 1));
    rng.chance(0.5) ? connect(i, j) : connect(j, i);
  }
  const int extra = static_cast<int>(rng.uniform(0, n));
  for (int e = 0; e < extra; ++e) {
    const int src = static_cast<int>(rng.uniform(0, n - 1));
    const int dst = rng.chance(0.25) ? src
                                     : static_cast<int>(rng.uniform(0, n - 1));
    connect(src, dst);
    if (rng.chance(0.3)) connect(src, dst);  // parallel channel
  }

  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (int i = n - 1; i > 0; --i) {
    std::swap(order[i], order[rng.uniform(0, i)]);
  }
  GraphBuilder b("shaped");
  for (const int i : order) {
    b.kernel(actorName(i));
    for (const PortDecl& p : ports[i]) {
      p.input ? b.in(p.name, p.rates) : b.out(p.name, p.rates);
    }
  }
  for (const ChannelDecl& c : channels) {
    b.channel(c.name, c.from, c.to, c.init);
  }
  return b.build();
}

TEST(GoldenSchedule, RandomShapedGraphsMatchReference) {
  support::Prng rng(0x5EED);
  int live = 0;
  int deadlocked = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const Graph g = randomShapedGraph(rng);
    expectIdenticalSchedules(g, {});
    const bool ok = findSchedule(g, computeRepetitionVector(g)).live;
    ++(ok ? live : deadlocked);
  }
  // Both verdicts must be well represented, or a branch goes untested.
  EXPECT_GT(live, 50);
  EXPECT_GT(deadlocked, 50);
}

}  // namespace
}  // namespace tpdf::csdf
