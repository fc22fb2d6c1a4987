#include "csdf/schedule.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <tuple>
#include <vector>

#include "apps/papergraphs.hpp"
#include "csdf/buffer.hpp"
#include "csdf/liveness.hpp"
#include "graph/builder.hpp"

namespace tpdf::csdf {
namespace {

using graph::Graph;
using graph::GraphBuilder;
using symbolic::Environment;

// ---- Figure 1: schedule (a3)^2 (a1)^3 (a2)^2 -------------------------

TEST(Liveness, Figure1EagerScheduleMatchesPaper) {
  const Graph g = apps::fig1Csdf();
  const LivenessResult live = findSchedule(g, computeRepetitionVector(g));
  ASSERT_TRUE(live.live) << live.diagnostic;
  EXPECT_EQ(live.schedule.toString(g), "a3^2 a1^3 a2^2");
  EXPECT_EQ(live.q, (std::vector<std::int64_t>{3, 2, 2}));
}

TEST(Liveness, Figure1IterationReturnsToInitialState) {
  const Graph g = apps::fig1Csdf();
  const LivenessResult live = findSchedule(g, computeRepetitionVector(g));
  ASSERT_TRUE(live.live);
  const ScheduleCheck check = validateSchedule(g, live.schedule);
  ASSERT_TRUE(check.ok) << check.diagnostic;
  for (const graph::Channel& c : g.channels()) {
    EXPECT_EQ(check.finalOccupancy[c.id.index()], c.initialTokens)
        << "channel " << c.name;
  }
}

TEST(Liveness, Figure2LiveForSampleParameters) {
  const Graph g = apps::fig2Tpdf();
  for (std::int64_t p : {1, 2, 3, 10}) {
    const LivenessResult live =
        findSchedule(g, computeRepetitionVector(g), Environment{{"p", p}});
    EXPECT_TRUE(live.live) << "p=" << p << ": " << live.diagnostic;
    EXPECT_EQ(static_cast<std::int64_t>(live.schedule.size()),
              2 + 2 * p + p + p + 2 * p + 2 * p);
  }
}

TEST(Liveness, Figure2PaperScheduleIsAdmissible) {
  // The paper's flat schedule A^2 B^{2p} C^p D^p E^{2p} F^{2p} at p=2.
  const Graph g = apps::fig2Tpdf();
  Schedule s;
  auto push = [&](const std::string& name, std::int64_t count) {
    for (std::int64_t k = 0; k < count; ++k) {
      s.push(*g.findActor(name), k);
    }
  };
  const std::int64_t p = 2;
  push("A", 2);
  push("B", 2 * p);
  push("C", p);
  push("D", p);
  push("E", 2 * p);
  push("F", 2 * p);
  const ScheduleCheck check = validateSchedule(g, s, Environment{{"p", p}});
  EXPECT_TRUE(check.ok) << check.diagnostic;
}

TEST(Liveness, DeadlockedCycleDiagnosed) {
  // Two-actor cycle with no initial tokens: classic deadlock.
  const Graph g = GraphBuilder("deadlock")
      .kernel("A").in("i", "[1]").out("o", "[1]")
      .kernel("B").in("i", "[1]").out("o", "[1]")
      .channel("e1", "A.o", "B.i")
      .channel("e2", "B.o", "A.i")
      .build();
  const LivenessResult live = findSchedule(g, computeRepetitionVector(g));
  EXPECT_FALSE(live.live);
  EXPECT_NE(live.diagnostic.find("deadlock"), std::string::npos);
  EXPECT_NE(live.diagnostic.find("A (0/1)"), std::string::npos);
}

TEST(Liveness, InsufficientInitialTokensDeadlock) {
  // Same cycle, one initial token but both ends need two.
  const Graph g = GraphBuilder("starved")
      .kernel("A").in("i", "[2]").out("o", "[1]")
      .kernel("B").in("i", "[1]").out("o", "[1]")
      .channel("e1", "A.o", "B.i")
      .channel("e2", "B.o", "A.i", 1)
      .build();
  const LivenessResult live = findSchedule(g, computeRepetitionVector(g));
  EXPECT_FALSE(live.live);
}

TEST(Liveness, SelfLoopWithTokensIsLive) {
  const Graph g = GraphBuilder("selfloop")
      .kernel("A").in("i", "[1]").out("o", "[1]").out("x", "[1]")
      .kernel("B").in("i", "[1]")
      .channel("self", "A.o", "A.i", 1)
      .channel("e", "A.x", "B.i")
      .build();
  const LivenessResult live = findSchedule(g, computeRepetitionVector(g));
  EXPECT_TRUE(live.live) << live.diagnostic;
}

TEST(Schedule, ToStringGroupsRuns) {
  const Graph g = apps::fig1Csdf();
  Schedule s;
  s.push(*g.findActor("a3"), 0);
  s.push(*g.findActor("a1"), 0);
  s.push(*g.findActor("a3"), 1);
  EXPECT_EQ(s.toString(g), "a3 a1 a3");
}

TEST(Schedule, ConsecutiveIndicesMergeIntoOneRun) {
  const Graph g = apps::fig1Csdf();
  const graph::ActorId a3 = *g.findActor("a3");
  Schedule s;
  for (std::int64_t k = 0; k < 3; ++k) s.push(a3, k);
  ASSERT_EQ(s.runs().size(), 1u);
  EXPECT_EQ(s.runs()[0], (ScheduleRun{.firstK = 0, .actor = a3, .count = 3}));
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.toString(g), "a3^3");
}

TEST(Schedule, IndexGapOrReorderStartsANewRun) {
  const Graph g = apps::fig1Csdf();
  const graph::ActorId a3 = *g.findActor("a3");
  Schedule gap;
  gap.push(a3, 0);
  gap.push(a3, 2);
  ASSERT_EQ(gap.runs().size(), 2u);
  EXPECT_EQ(gap.runs()[1], (ScheduleRun{.firstK = 2, .actor = a3, .count = 1}));
  // Rendering groups adjacent firings of one actor, as before.
  EXPECT_EQ(gap.toString(g), "a3^2");
  EXPECT_EQ(gap.toJson(g).dump(),
            "{\"firings\":2,\"runs\":[{\"actor\":\"a3\",\"count\":2}]}");
  EXPECT_EQ(validateSchedule(g, gap).diagnostic,
            "firing of 'a3' out of order: expected k=1, got k=2");

  Schedule reorder;
  reorder.push(a3, 1);
  reorder.push(a3, 0);
  ASSERT_EQ(reorder.runs().size(), 2u);
  EXPECT_EQ(reorder.runs()[0], (ScheduleRun{.firstK = 1, .actor = a3, .count = 1}));
  EXPECT_EQ(reorder.runs()[1], (ScheduleRun{.firstK = 0, .actor = a3, .count = 1}));
  EXPECT_EQ(validateSchedule(g, reorder).diagnostic,
            "firing of 'a3' out of order: expected k=0, got k=1");
}

TEST(Schedule, SizeCountsFiringsAndCountOfSumsRuns) {
  const Graph g = apps::fig1Csdf();
  const graph::ActorId a1 = *g.findActor("a1");
  const graph::ActorId a3 = *g.findActor("a3");
  Schedule s;
  s.push(a3, 0);
  s.push(a3, 1);
  s.push(a1, 0);
  s.push(a3, 2);
  s.push(a1, 1);
  s.push(a1, 2);
  EXPECT_EQ(s.runs().size(), 4u);
  EXPECT_EQ(s.size(), 6u);
  EXPECT_EQ(s.countOf(a3), 3);
  EXPECT_EQ(s.countOf(a1), 3);
  EXPECT_EQ(s.countOf(*g.findActor("a2")), 0);
}

TEST(Schedule, BulkPushMatchesSinglePushes) {
  const Graph g = apps::fig1Csdf();
  const graph::ActorId a1 = *g.findActor("a1");
  const graph::ActorId a3 = *g.findActor("a3");
  // (actor, firstK, count): continuations, gaps, reorders, other actors
  // and an empty push.
  const std::vector<std::tuple<graph::ActorId, std::int64_t, std::int64_t>>
      pushes = {{a3, 0, 2}, {a3, 2, 3}, {a1, 0, 1}, {a1, 1, 0},
                {a1, 1, 4}, {a1, 7, 2}, {a3, 5, 1}, {a3, 0, 2}};
  Schedule bulk;
  Schedule single;
  for (const auto& [a, firstK, count] : pushes) {
    bulk.push(a, firstK, count);
    for (std::int64_t i = 0; i < count; ++i) single.push(a, firstK + i);
  }
  EXPECT_EQ(bulk.runs(), single.runs());
  EXPECT_EQ(bulk.size(), single.size());
}

TEST(Schedule, BulkPushSplitsRunsAtTheCountLimit) {
  const Graph g = apps::fig1Csdf();
  const graph::ActorId a3 = *g.findActor("a3");
  constexpr std::int64_t kMax = std::numeric_limits<std::uint32_t>::max();

  // One push of 2^32 + 5 firings: two runs, no firing materialized.
  Schedule s;
  s.push(a3, 0, kMax + 6);
  ASSERT_EQ(s.runs().size(), 2u);
  EXPECT_EQ(s.runs()[0],
            (ScheduleRun{.firstK = 0, .actor = a3, .count = 0xFFFFFFFFu}));
  EXPECT_EQ(s.runs()[1], (ScheduleRun{.firstK = kMax, .actor = a3, .count = 6}));
  EXPECT_EQ(s.size(), static_cast<std::size_t>(kMax + 6));
  EXPECT_EQ(s.countOf(a3), kMax + 6);

  // Continuing a run 3 short of the limit: a bulk push of 5 fills it and
  // spills 2, exactly as 5 single pushes do.
  Schedule bulk;
  Schedule single;
  bulk.push(a3, 0, kMax - 3);
  single.push(a3, 0, kMax - 3);
  bulk.push(a3, kMax - 3, 5);
  for (std::int64_t k = kMax - 3; k < kMax + 2; ++k) single.push(a3, k);
  EXPECT_EQ(bulk.runs(), single.runs());
  ASSERT_EQ(bulk.runs().size(), 2u);
  EXPECT_EQ(bulk.runs()[1], (ScheduleRun{.firstK = kMax, .actor = a3, .count = 2}));
  EXPECT_EQ(bulk.size(), single.size());
}

TEST(Schedule, EagerChainScheduleHoldsOneRunPerActor) {
  // Each actor fires 10x as often as its predecessor: sum(q) = 1111111
  // firings, stored as one run per actor.
  constexpr int kActors = 7;
  GraphBuilder b("fanout_chain");
  for (int i = 0; i < kActors; ++i) {
    b.kernel("A" + std::to_string(i));
    if (i > 0) b.in("i", "[1]");
    if (i + 1 < kActors) b.out("o", "[10]");
  }
  for (int i = 0; i + 1 < kActors; ++i) {
    b.channel("e" + std::to_string(i), "A" + std::to_string(i) + ".o",
              "A" + std::to_string(i + 1) + ".i");
  }
  const Graph g = b.build();
  const LivenessResult live = findSchedule(g, computeRepetitionVector(g));
  ASSERT_TRUE(live.live) << live.diagnostic;
  EXPECT_EQ(live.schedule.size(), 1111111u);
  EXPECT_LE(live.schedule.runs().size(), g.actorCount());
  EXPECT_EQ(live.schedule.countOf(*g.findActor("A6")), 1000000);
  EXPECT_TRUE(validateSchedule(g, live.schedule).ok);
}

TEST(Schedule, CountOf) {
  const Graph g = apps::fig1Csdf();
  const LivenessResult live = findSchedule(g, computeRepetitionVector(g));
  EXPECT_EQ(live.schedule.countOf(*g.findActor("a1")), 3);
  EXPECT_EQ(live.schedule.countOf(*g.findActor("a2")), 2);
}

TEST(ValidateSchedule, RejectsUnderflow) {
  const Graph g = apps::fig1Csdf();
  Schedule s;
  s.push(*g.findActor("a1"), 0);  // a1 needs 2 tokens on e3, has 0
  const ScheduleCheck check = validateSchedule(g, s);
  EXPECT_FALSE(check.ok);
  EXPECT_EQ(check.diagnostic, "channel 'e3' underflows at a1#0: needs 2, has 0");
}

TEST(ValidateSchedule, RejectsOutOfOrderFirings) {
  const Graph g = apps::fig1Csdf();
  Schedule s;
  s.push(*g.findActor("a3"), 1);  // skips firing 0
  const ScheduleCheck check = validateSchedule(g, s);
  EXPECT_FALSE(check.ok);
  EXPECT_EQ(check.diagnostic,
            "firing of 'a3' out of order: expected k=0, got k=1");
}

// ---- Buffer analysis --------------------------------------------------

TEST(Buffers, SimpleChainOccupancy) {
  // A produces 4, B consumes 1 four times: the channel needs 4 slots.
  const Graph g = GraphBuilder("burst")
      .kernel("A").out("o", "[4]")
      .kernel("B").in("i", "[1]")
      .channel("e", "A.o", "B.i")
      .build();
  const BufferReport report = minimumBuffers(g, computeRepetitionVector(g));
  ASSERT_TRUE(report.ok) << report.diagnostic;
  EXPECT_EQ(report.of(*g.findChannel("e")), 4);
  EXPECT_EQ(report.total(), 4);
}

TEST(Buffers, MinOccupancyBeatsEagerOnDiamond) {
  // Eager fires the producer repeatedly before draining; the greedy
  // min-occupancy policy interleaves and needs fewer slots.
  const Graph g = GraphBuilder("interleave")
      .kernel("A").out("o", "[1]")
      .kernel("B").in("i", "[1]").out("o", "[1]")
      .kernel("C").in("i", "[4]")
      .channel("e1", "A.o", "B.i")
      .channel("e2", "B.o", "C.i")
      .build();
  const BufferReport lazy =
      minimumBuffers(g, computeRepetitionVector(g), Environment{},
                     SchedulePolicy::MinOccupancy);
  ASSERT_TRUE(lazy.ok);
  // e2 must accumulate 4 regardless; e1 can stay at 1 when interleaved.
  EXPECT_EQ(lazy.of(*g.findChannel("e1")), 1);
  EXPECT_EQ(lazy.of(*g.findChannel("e2")), 4);
}

TEST(Buffers, InitialTokensCountTowardsOccupancy) {
  const Graph g = GraphBuilder("initial")
      .kernel("A").in("i", "[1]").out("o", "[1]")
      .kernel("B").in("i", "[1]").out("o", "[1]")
      .channel("fwd", "A.o", "B.i")
      .channel("bwd", "B.o", "A.i", 3)
      .build();
  const BufferReport report = minimumBuffers(g, computeRepetitionVector(g));
  ASSERT_TRUE(report.ok) << report.diagnostic;
  EXPECT_GE(report.of(*g.findChannel("bwd")), 3);
}

TEST(Buffers, ControlAndDataTotalsSeparated) {
  const Graph g = apps::fig2Tpdf();
  const BufferReport report =
      minimumBuffers(g, computeRepetitionVector(g), Environment{{"p", 2}});
  ASSERT_TRUE(report.ok) << report.diagnostic;
  EXPECT_GT(report.controlTotal(g), 0);
  EXPECT_GT(report.dataTotal(g), 0);
  EXPECT_EQ(report.controlTotal(g) + report.dataTotal(g), report.total());
}

TEST(Buffers, FailurePropagatesDiagnostic) {
  const Graph g = GraphBuilder("dead")
      .kernel("A").in("i", "[1]").out("o", "[1]")
      .kernel("B").in("i", "[1]").out("o", "[1]")
      .channel("e1", "A.o", "B.i")
      .channel("e2", "B.o", "A.i")
      .build();
  const BufferReport report = minimumBuffers(g, computeRepetitionVector(g));
  EXPECT_FALSE(report.ok);
  EXPECT_FALSE(report.diagnostic.empty());
}

// ---- Property sweep: occupancies are schedule invariants --------------

class BufferProperty : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(BufferProperty, IterationReturnsToInitialStateOnFig2) {
  const std::int64_t p = GetParam();
  const Graph g = apps::fig2Tpdf();
  const Environment env{{"p", p}};
  for (const SchedulePolicy policy :
       {SchedulePolicy::Eager, SchedulePolicy::MinOccupancy}) {
    const LivenessResult live =
        findSchedule(g, computeRepetitionVector(g), env, policy);
    ASSERT_TRUE(live.live) << live.diagnostic;
    const ScheduleCheck check = validateSchedule(g, live.schedule, env);
    ASSERT_TRUE(check.ok);
    for (const graph::Channel& c : g.channels()) {
      EXPECT_EQ(check.finalOccupancy[c.id.index()], c.initialTokens);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ParameterSweep, BufferProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 16));

// A partial schedule stays checkable when actors it never fires have
// unbound parameters: rates are evaluated lazily per firing event.
TEST(ScheduleCheckTest, PartialScheduleIgnoresUnboundRatesOfIdleActors) {
  const Graph g = GraphBuilder("partial")
                      .param("q")
                      .kernel("A").out("o", "[1]")
                      .kernel("B").in("i", "[1]")
                      .kernel("C").out("o", "[q]")
                      .kernel("D").in("i", "[q]")
                      .channel("e1", "A.o", "B.i")
                      .channel("e2", "C.o", "D.i")
                      .build();
  Schedule s;
  s.push(*g.findActor("A"), 0);
  s.push(*g.findActor("B"), 0);
  // No binding for q: C and D never fire, so their rates are never
  // evaluated and the check must succeed.
  const ScheduleCheck check = validateSchedule(g, s, {});
  ASSERT_TRUE(check.ok) << check.diagnostic;
  EXPECT_EQ(check.maxOccupancy[g.findChannel("e1")->index()], 1);
}

}  // namespace
}  // namespace tpdf::csdf
