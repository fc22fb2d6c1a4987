// Platform subsystem tests: topology constructors and route tables,
// spec parsing (with positioned diagnostics), scheduler integration
// (hop-aware communication cost, legacy equivalence), simulator link
// serialization, the map contention report, platform sweep axes, and
// the contention cross-check invariant.
#include "platform/topology.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "api/requests.hpp"
#include "api/session.hpp"
#include "apps/ofdm.hpp"
#include "apps/papergraphs.hpp"
#include "core/differential.hpp"
#include "core/model.hpp"
#include "core/sweep.hpp"
#include "graph/builder.hpp"
#include "platform/spec.hpp"
#include "sched/canonical.hpp"
#include "sched/list.hpp"
#include "sim/simulator.hpp"
#include "support/error.hpp"

namespace tpdf::platform {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---- Topology constructors and route tables -------------------------------

TEST(Topology, CrossbarHasOneDirectLinkPerOrderedPair) {
  const Topology t = Topology::crossbar(4);
  EXPECT_EQ(t.kind(), TopologyKind::Crossbar);
  EXPECT_EQ(t.peCount(), 4u);
  EXPECT_EQ(t.links().size(), 12u);  // 4 * 3 ordered pairs
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      const auto& route = t.route(i, j);
      if (i == j) {
        EXPECT_TRUE(route.empty());
        continue;
      }
      ASSERT_EQ(route.size(), 1u) << i << "->" << j;
      EXPECT_EQ(t.link(route[0]).src, i);
      EXPECT_EQ(t.link(route[0]).dst, j);
    }
  }
  EXPECT_TRUE(t.ideal());
}

TEST(Topology, BusSharesOneLinkBetweenAllPairs) {
  const Topology t = Topology::bus(4, 1.0, 1.0);
  ASSERT_EQ(t.links().size(), 1u);
  EXPECT_EQ(t.links()[0].name, "bus");
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      if (i == j) continue;
      EXPECT_EQ(t.route(i, j), std::vector<std::uint32_t>{0});
    }
  }
  EXPECT_FALSE(t.ideal());
}

TEST(Topology, RingRoutesFollowTheDirectionOfTheRing) {
  const Topology t = Topology::ring(4);
  EXPECT_EQ(t.links().size(), 4u);
  // Unidirectional i -> (i+1) % n: distance is (dst - src) mod n.
  EXPECT_EQ(t.route(0, 1).size(), 1u);
  EXPECT_EQ(t.route(0, 3).size(), 3u);
  EXPECT_EQ(t.route(3, 0).size(), 1u);
  EXPECT_EQ(t.route(2, 1).size(), 3u);
  // The route is a contiguous walk.
  std::size_t at = 0;
  for (const std::uint32_t lid : t.route(0, 3)) {
    EXPECT_EQ(t.link(lid).src, at);
    at = t.link(lid).dst;
  }
  EXPECT_EQ(at, 3u);
}

TEST(Topology, MeshUsesDeterministicXyRouting) {
  const Topology t = Topology::mesh(2, 3);
  EXPECT_EQ(t.peCount(), 6u);
  // XY = column first, then row.  0 = (r0,c0) -> 5 = (r1,c2):
  // 0 -> 1 -> 2 -> 5, exactly the Manhattan distance in hops.
  const auto& route = t.route(0, 5);
  ASSERT_EQ(route.size(), 3u);
  EXPECT_EQ(t.link(route[0]).src, 0u);
  EXPECT_EQ(t.link(route[0]).dst, 1u);
  EXPECT_EQ(t.link(route[1]).src, 1u);
  EXPECT_EQ(t.link(route[1]).dst, 2u);
  EXPECT_EQ(t.link(route[2]).src, 2u);
  EXPECT_EQ(t.link(route[2]).dst, 5u);
  // Every pair routes over exactly its Manhattan distance.
  for (std::size_t a = 0; a < 6; ++a) {
    for (std::size_t b = 0; b < 6; ++b) {
      const std::size_t manhattan =
          (a / 3 > b / 3 ? a / 3 - b / 3 : b / 3 - a / 3) +
          (a % 3 > b % 3 ? a % 3 - b % 3 : b % 3 - a % 3);
      EXPECT_EQ(t.route(a, b).size(), manhattan) << a << "->" << b;
    }
  }
}

TEST(Topology, ServiceTimeAndRouteCost) {
  const Link fast{0, "l", 0, 1, kInf, 2.0};
  EXPECT_DOUBLE_EQ(Topology::serviceTime(fast, 100), 2.0);
  const Link slow{1, "l", 0, 1, 2.0, 1.0};
  EXPECT_DOUBLE_EQ(Topology::serviceTime(slow, 4), 1.0 + 2.0);
  const Topology mesh = Topology::mesh(2, 2, 2.0, 1.0);
  // 0 -> 3 is two hops; each costs lat + tokens/bw = 1 + 2 = 3.
  EXPECT_DOUBLE_EQ(mesh.routeCost(0, 3, 4), 6.0);
  EXPECT_DOUBLE_EQ(mesh.routeCost(0, 0, 4), 0.0);
}

TEST(Topology, IdealOnlyForInfiniteBandwidthZeroLatencyCrossbar) {
  EXPECT_TRUE(Topology::crossbar(3).ideal());
  EXPECT_FALSE(Topology::crossbar(3, kInf, 1.0).ideal());
  EXPECT_FALSE(Topology::crossbar(3, 8.0, 0.0).ideal());
  EXPECT_FALSE(Topology::bus(3).ideal());
  EXPECT_FALSE(Topology::ring(3).ideal());
}

TEST(Topology, ZeroPesIsRejected) {
  EXPECT_THROW(Topology::crossbar(0), support::Error);
  EXPECT_THROW(Topology::mesh(0, 2), support::Error);
}

// ---- Spec parsing ---------------------------------------------------------

TEST(PlatformSpec, ParsesTheFullGrammar) {
  const SpecParse p = parsePlatformSpec("mesh:4x4,bw=8,lat=2");
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_EQ(p.spec.kind, TopologyKind::Mesh);
  EXPECT_EQ(p.spec.rows, 4u);
  EXPECT_EQ(p.spec.cols, 4u);
  EXPECT_EQ(p.spec.pes, 16u);
  EXPECT_DOUBLE_EQ(p.spec.bandwidth, 8.0);
  EXPECT_DOUBLE_EQ(p.spec.latency, 2.0);
  EXPECT_EQ(p.spec.canonical(4), "mesh:4x4,bw=8,lat=2");
  EXPECT_FALSE(p.spec.ideal());
}

TEST(PlatformSpec, SizeDefaultsToTheRequestPeCount) {
  const SpecParse p = parsePlatformSpec("crossbar");
  ASSERT_TRUE(p.ok);
  EXPECT_EQ(p.spec.pes, 0u);
  EXPECT_EQ(p.spec.build(4).peCount(), 4u);
  EXPECT_TRUE(p.spec.ideal());
  EXPECT_EQ(p.spec.canonical(4), "crossbar:4");
}

TEST(PlatformSpec, AcceptsInfiniteBandwidth) {
  const SpecParse p = parsePlatformSpec("bus:3,bw=inf");
  ASSERT_TRUE(p.ok);
  EXPECT_TRUE(std::isinf(p.spec.bandwidth));
}

TEST(PlatformSpec, ParseErrorsCarryOneBasedColumns) {
  const SpecParse unknown = parsePlatformSpec("torus:4");
  EXPECT_FALSE(unknown.ok);
  EXPECT_EQ(unknown.column, 1u);

  const SpecParse badSize = parsePlatformSpec("bus:0");
  EXPECT_FALSE(badSize.ok);
  EXPECT_EQ(badSize.column, 5u);

  const SpecParse noMeshSize = parsePlatformSpec("mesh");
  EXPECT_FALSE(noMeshSize.ok);

  const SpecParse crossSize = parsePlatformSpec("crossbar:2x2");
  EXPECT_FALSE(crossSize.ok);

  const SpecParse badKey = parsePlatformSpec("bus:2,speed=1");
  EXPECT_FALSE(badKey.ok);
  EXPECT_EQ(badKey.column, 7u);
}

TEST(PlatformSpec, RejectsNonPositiveBandwidthAndNegativeLatency) {
  const SpecParse zeroBw = parsePlatformSpec("bus:2,bw=0");
  EXPECT_FALSE(zeroBw.ok);
  EXPECT_EQ(zeroBw.error, "link bandwidth must be positive");
  EXPECT_EQ(zeroBw.column, 10u);

  const SpecParse negBw = parsePlatformSpec("bus:2,bw=-1");
  EXPECT_FALSE(negBw.ok);

  const SpecParse negLat = parsePlatformSpec("bus:2,lat=-1");
  EXPECT_FALSE(negLat.ok);
  EXPECT_EQ(negLat.error, "link latency must be finite and non-negative");
  EXPECT_EQ(negLat.column, 11u);
}

// ---- Scheduler integration ------------------------------------------------

TEST(PlatformSched, CrossbarWithLatencyMatchesLegacyLinkLatency) {
  // The dead Platform::linkLatency knob, now reachable through the
  // platform subsystem: a crossbar with per-link latency L must produce
  // the exact schedule the legacy uniform-linkLatency arithmetic did.
  const graph::Graph g = apps::fig1Csdf();
  const symbolic::Environment env;
  const sched::CanonicalPeriod cp(core::AnalysisContext(g), env);

  const sched::ListSchedule legacy = sched::listSchedule(
      cp, sched::Platform{.peCount = 3, .linkLatency = 2.0});

  const Topology fabric = Topology::crossbar(3, kInf, 2.0);
  sched::Platform plat{.peCount = 3, .linkLatency = 2.0};
  plat.topology = &fabric;
  const sched::ListSchedule routed = sched::listSchedule(cp, plat);

  EXPECT_EQ(legacy.toJson(cp).pretty(), routed.toJson(cp).pretty());
}

TEST(PlatformSched, TopologyPeCountMustMatchThePlatform) {
  const graph::Graph g = apps::fig1Csdf();
  const sched::CanonicalPeriod cp(core::AnalysisContext(g),
                                  symbolic::Environment{});
  const Topology fabric = Topology::bus(2);
  sched::Platform plat{.peCount = 4};
  plat.topology = &fabric;
  EXPECT_THROW(sched::listSchedule(cp, plat), support::Error);
}

TEST(PlatformSched, LinkLoadAccountsCrossPeDependencies) {
  // Two parallel unit-time producers into one sink: on a 2-PE bus the
  // producers spread out, so at least one dependency crosses PEs and
  // occupies the bus.
  const graph::Graph g = graph::GraphBuilder("par")
      .kernel("A").out("o", "[1]")
      .kernel("B").out("o", "[1]")
      .kernel("S").in("a", "[1]").in("b", "[1]")
      .channel("ea", "A.o", "S.a")
      .channel("eb", "B.o", "S.b")
      .build();
  const sched::CanonicalPeriod cp(core::AnalysisContext(g),
                                  symbolic::Environment{});
  const Topology fabric = Topology::bus(2, 1.0, 1.0);
  sched::Platform plat{.peCount = 2};
  plat.topology = &fabric;
  const sched::ListSchedule schedule = sched::listSchedule(cp, plat);

  const std::vector<sched::LinkLoad> load =
      sched::linkLoad(cp, schedule, plat);
  ASSERT_EQ(load.size(), 1u);
  EXPECT_GE(load[0].transfers, 1);
  EXPECT_DOUBLE_EQ(load[0].busy,
                   static_cast<double>(load[0].transfers) * 2.0);

  // No topology: the static load has nothing to attribute.
  EXPECT_TRUE(
      sched::linkLoad(cp, schedule, sched::Platform{.peCount = 2}).empty());
}

// ---- Simulator link serialization -----------------------------------------

TEST(PlatformSim, SharedBusSerializesConcurrentTransfers) {
  const graph::Graph g = graph::GraphBuilder("par")
      .kernel("A").out("o", "[1]")
      .kernel("B").out("o", "[1]")
      .kernel("S").in("a", "[1]").in("b", "[1]")
      .channel("ea", "A.o", "S.a")
      .channel("eb", "B.o", "S.b")
      .build();
  core::TpdfGraph model(g);

  sim::Simulator free(model, symbolic::Environment{});
  const sim::SimResult unfabric = free.run();
  ASSERT_TRUE(unfabric.ok);
  EXPECT_DOUBLE_EQ(unfabric.endTime, 2.0);  // A || B, then S

  const Topology bus = Topology::bus(3, 1.0, 1.0);
  sim::Simulator sim(model, symbolic::Environment{});
  sim::SimOptions options;
  options.fabric = &bus;
  options.actorPe = {0, 1, 2};
  const sim::SimResult result = sim.run(options);
  ASSERT_TRUE(result.ok) << result.diagnostic;
  // Both transfers need the bus for lat + 1/bw = 2: the first occupies
  // [1, 3), the second waits and occupies [3, 5); S runs [5, 6).
  EXPECT_DOUBLE_EQ(result.endTime, 6.0);
  ASSERT_EQ(result.links.size(), 1u);
  EXPECT_EQ(result.links[0].link, "bus");
  EXPECT_EQ(result.links[0].transfers, 2);
  EXPECT_DOUBLE_EQ(result.links[0].busyTime, 4.0);

  // The result JSON carries the per-link stats.
  const std::string json = result.toJson(g).pretty();
  EXPECT_NE(json.find("\"links\""), std::string::npos);
  EXPECT_NE(json.find("\"utilization\""), std::string::npos);
}

TEST(PlatformSim, IdealFabricMatchesPlatformFreeRun) {
  core::TpdfGraph model(apps::fig1Csdf());
  sim::Simulator plain(model, symbolic::Environment{});
  const sim::SimResult expected = plain.run();

  const Topology ideal = Topology::crossbar(3);
  sim::Simulator sim(model, symbolic::Environment{});
  sim::SimOptions options;
  options.fabric = &ideal;
  options.actorPe = {0, 1, 2};
  const sim::SimResult result = sim.run(options);
  ASSERT_TRUE(result.ok);
  EXPECT_DOUBLE_EQ(result.endTime, expected.endTime);
  EXPECT_EQ(result.firings, expected.firings);
}

TEST(PlatformSim, FabricRequiresAFullPlacement) {
  core::TpdfGraph model(apps::fig1Csdf());
  const Topology bus = Topology::bus(2);
  sim::Simulator sim(model, symbolic::Environment{});
  sim::SimOptions options;
  options.fabric = &bus;
  options.actorPe = {0};  // 3 actors
  const sim::SimResult result = sim.run(options);
  EXPECT_FALSE(result.ok);
}

}  // namespace
}  // namespace tpdf::platform

// ---- API integration ------------------------------------------------------

namespace tpdf::api {
namespace {

TEST(PlatformApi, MapOnContendedBusReportsContention) {
  Session session;
  ASSERT_TRUE(session.adopt(
      "ofdm", std::make_shared<core::TpdfGraph>(apps::ofdmTpdfGraph())));
  MapRequest req;
  req.graphId = "ofdm";
  req.bindings = {{"b", 2}, {"N", 16}, {"L", 2}, {"M", 4}};
  req.pes = 4;
  req.platform = "bus:4,bw=1";
  const MapResponse response = session.map(req);
  ASSERT_EQ(response.status, Status::Ok);
  ASSERT_TRUE(response.contention.has_value());
  const MapContention& c = *response.contention;
  EXPECT_FALSE(c.links.empty());
  EXPECT_FALSE(c.maxContendedLink.empty());
  EXPECT_GT(c.idealPeriod, 0.0);
  // The acceptance bar: a bandwidth-1 bus on OFDM must run strictly
  // slower than the idealized canonical period.
  ASSERT_GT(c.simulatedPeriod, 0.0);
  EXPECT_GT(c.simulatedPeriod, c.idealPeriod);
  EXPECT_GE(c.slowdown, 1.0);
  // And the JSON report exposes per-link utilization.
  const std::string json = response.toJson().pretty();
  EXPECT_NE(json.find("\"linkUtilization\""), std::string::npos);
  EXPECT_NE(json.find("\"contentionSlowdown\""), std::string::npos);
}

TEST(PlatformApi, MalformedSpecIsAPositionedInvalidRequest) {
  Session session;
  LoadRequest load;
  load.path = std::string(TPDF_SOURCE_DIR) + "/examples/graphs/fig1.tpdf";
  load.id = "fig1";
  ASSERT_EQ(session.load(load).status, Status::Ok);

  MapRequest req;
  req.graphId = "fig1";
  req.pes = 4;
  req.platform = "bus:4,lat=-1";
  const MapResponse response = session.map(req);
  EXPECT_EQ(response.status, Status::InvalidRequest);
  ASSERT_FALSE(response.diagnostics.empty());
  EXPECT_EQ(response.diagnostics[0].code, "invalid-platform");
  EXPECT_GT(response.diagnostics[0].column, 1);

  SimulateRequest simReq;
  simReq.graphId = "fig1";
  simReq.platform = "bus:4,bw=-2";
  EXPECT_EQ(session.simulate(simReq).status, Status::InvalidRequest);
}

TEST(PlatformApi, SimulateRoutesOverTheRequestedPlatform) {
  Session session;
  LoadRequest load;
  load.path = std::string(TPDF_SOURCE_DIR) + "/examples/graphs/fig1.tpdf";
  load.id = "fig1";
  ASSERT_EQ(session.load(load).status, Status::Ok);

  SimulateRequest plain;
  plain.graphId = "fig1";
  const SimulateResponse base = session.simulate(plain);
  ASSERT_EQ(base.status, Status::Ok);

  SimulateRequest contended;
  contended.graphId = "fig1";
  contended.platform = "bus:2,bw=1,lat=1";
  const SimulateResponse slow = session.simulate(contended);
  ASSERT_EQ(slow.status, Status::Ok);
  EXPECT_GE(slow.result.endTime, base.result.endTime);
  EXPECT_FALSE(slow.result.links.empty());
}

}  // namespace
}  // namespace tpdf::api

// ---- Sweep platform axes and the contention cross-check -------------------

namespace tpdf::core {
namespace {

TEST(PlatformSweep, TopologyAxisMultipliesTheGrid) {
  const graph::Graph g = apps::fig1Csdf();
  SweepSpec spec;
  spec.pes = 2;
  spec.topologies = {"crossbar:2", "bus:2,bw=1,lat=1"};
  EXPECT_EQ(spec.platformVariants(), 2u);
  EXPECT_EQ(spec.gridSize(), 2u);

  const SweepResult result = sweep(g, spec);
  ASSERT_EQ(result.points.size(), 2u);
  ASSERT_TRUE(result.points[0].ok) << result.points[0].error;
  ASSERT_TRUE(result.points[1].ok) << result.points[1].error;
  EXPECT_EQ(result.platform(0), "crossbar:2");
  EXPECT_EQ(result.platform(1), "bus:2,bw=1,lat=1");
  // Contended links can only stretch the static period.
  EXPECT_GE(result.points[1].period, result.points[0].period);
  // The variant label travels into the point JSON.
  support::json::Writer w(support::json::Layout::Compact);
  result.writePoint(w, 1);
  EXPECT_NE(w.finish().find("\"platform\":\"bus:2,bw=1,lat=1\""),
            std::string::npos);
}

TEST(PlatformSweep, BandwidthAxisOverridesTheBaseSpec) {
  const graph::Graph g = apps::fig1Csdf();
  SweepSpec spec;
  spec.pes = 2;
  spec.platform = "bus:2,lat=1";
  spec.linkBandwidths = {1.0, 8.0};
  EXPECT_EQ(spec.gridSize(), 2u);
  const SweepResult result = sweep(g, spec);
  ASSERT_EQ(result.points.size(), 2u);
  EXPECT_EQ(result.platform(0), "bus:2,bw=1,lat=1");
  EXPECT_EQ(result.platform(1), "bus:2,bw=8,lat=1");
  ASSERT_TRUE(result.points[0].ok);
  ASSERT_TRUE(result.points[1].ok);
  // Greedy list scheduling is not monotone in the communication cost
  // (a cheaper link can steer placement into a worse greedy choice), so
  // only the verdict itself is asserted, not an ordering.
  EXPECT_TRUE(result.points[0].periodComputed);
  EXPECT_TRUE(result.points[1].periodComputed);
  EXPECT_GT(result.points[0].period, 0.0);
  EXPECT_GT(result.points[1].period, 0.0);
}

TEST(PlatformSweep, MalformedPlatformAxesAreValidationErrors) {
  const graph::Graph g = apps::fig1Csdf();
  SweepSpec bad;
  bad.topologies = {"torus:4"};
  EXPECT_NE(validateSweepSpec(g, bad), "");
  SweepSpec badBw;
  badBw.linkBandwidths = {-1.0};
  EXPECT_NE(validateSweepSpec(g, badBw), "");
  SweepSpec badBase;
  badBase.platform = "mesh";
  EXPECT_NE(validateSweepSpec(g, badBase), "");
}

TEST(PlatformDifferential, ContentionInvariantRunsAndHolds) {
  DiffReport report;
  crossCheck(TpdfGraph(apps::fig1Csdf()), symbolic::Environment{},
             DiffOptions{}, report);
  EXPECT_TRUE(report.ok()) << report.toJson().pretty();
  ASSERT_EQ(report.verdicts.size(), 1u);
  const std::vector<std::string>& ran = report.verdicts.front().checksRun;
  EXPECT_NE(std::find(ran.begin(), ran.end(), "contention"), ran.end());
}

}  // namespace
}  // namespace tpdf::core
