// Behaviour tests for the parametric sweep engine (core/sweep.hpp):
// axis resolution and the spec grammar, cartesian grid enumeration with
// the hard cap, the sweep-vs-fresh-analyze equivalence property, job-
// count determinism, per-point failure capture, the Pareto frontier, and
// platform-axis sweeps against a golden document and a per-point oracle.
//
// Regenerate tests/golden/sweep_ofdm_platform.json (only when an
// intentional output change lands):
//   TPDF_WRITE_GOLDEN=1 ./tests/core_sweep_test --gtest_filter='*Golden*'
#include "core/sweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "apps/ofdm.hpp"
#include "apps/papergraphs.hpp"
#include "apps/randomgraphs.hpp"
#include "core/analysis.hpp"
#include "core/context.hpp"
#include "core/liveness.hpp"
#include "core/safety.hpp"
#include "csdf/buffer.hpp"
#include "graph/builder.hpp"
#include "graph/rates.hpp"
#include "platform/spec.hpp"
#include "platform/topology.hpp"
#include "sched/canonical.hpp"
#include "sched/list.hpp"
#include "sched/platform.hpp"
#include "support/budget.hpp"
#include "support/error.hpp"
#include "support/prng.hpp"

namespace tpdf::core {
namespace {

using graph::Graph;
using graph::GraphBuilder;
using symbolic::Environment;

/// Chain of `n` actors with randomized parametric rates (always
/// consistent: chains admit a rational solution for any positive
/// rates).  Expansion edges ([p] -> [1]) are always matched by a later
/// contraction before expanding again, so repetition counts stay
/// bounded by p instead of growing multiplicatively along the chain.
Graph parametricChain(int n, std::uint64_t seed) {
  support::Prng prng(seed);
  std::vector<std::pair<std::string, std::string>> edgeRates;  // out, in
  bool expanded = false;
  for (int i = 0; i + 1 < n; ++i) {
    if (!expanded && prng.chance(0.4)) {
      edgeRates.emplace_back("[p]", "[1]");  // consumer fires p times more
      expanded = true;
    } else if (expanded && prng.chance(0.5)) {
      edgeRates.emplace_back("[1]", "[p]");  // back to the base rate
      expanded = false;
    } else {
      // Rate-1 ratio: same constant on both ends keeps q flat.
      const std::string c = prng.chance(0.5) ? "[1]" : "[2]";
      edgeRates.emplace_back(c, c);
    }
  }
  GraphBuilder b("pchain" + std::to_string(n));
  b.param("p");
  for (int i = 0; i < n; ++i) {
    b.kernel("K" + std::to_string(i));
    if (i > 0) b.in("i", edgeRates[static_cast<std::size_t>(i - 1)].second);
    if (i + 1 < n) b.out("o", edgeRates[static_cast<std::size_t>(i)].first);
  }
  for (int i = 0; i + 1 < n; ++i) {
    b.channel("e" + std::to_string(i), "K" + std::to_string(i) + ".o",
              "K" + std::to_string(i + 1) + ".i");
  }
  return b.build();
}

// ---- Axis resolution -----------------------------------------------------

TEST(SweepAxis, RangeEnumeratesInclusive) {
  const SweepAxis axis = SweepAxis::range("p", 1, 5);
  EXPECT_EQ(axis.values, (std::vector<std::int64_t>{1, 2, 3, 4, 5}));
}

TEST(SweepAxis, RangeHonoursStep) {
  EXPECT_EQ(SweepAxis::range("p", 1, 8, 3).values,
            (std::vector<std::int64_t>{1, 4, 7}));
  EXPECT_EQ(SweepAxis::range("p", 2, 2).values,
            (std::vector<std::int64_t>{2}));
}

TEST(SweepAxis, EmptyWhenLoExceedsHi) {
  EXPECT_TRUE(SweepAxis::range("p", 5, 2).values.empty());
}

TEST(SweepAxis, NonPositiveStepRejected) {
  EXPECT_THROW(SweepAxis::range("p", 1, 4, 0), support::Error);
  EXPECT_THROW(SweepAxis::range("p", 1, 4, -1), support::Error);
}

TEST(SweepAxis, ParseRangeListAndStep) {
  EXPECT_EQ(SweepAxis::parse("p", "1:4").values,
            (std::vector<std::int64_t>{1, 2, 3, 4}));
  EXPECT_EQ(SweepAxis::parse("p", "1:10:4").values,
            (std::vector<std::int64_t>{1, 5, 9}));
  EXPECT_EQ(SweepAxis::parse("p", "8,1,64").values,
            (std::vector<std::int64_t>{8, 1, 64}));
  EXPECT_TRUE(SweepAxis::parse("p", "9:3").values.empty());
}

TEST(SweepAxis, ParseRejectsMalformedSpecs) {
  EXPECT_THROW(SweepAxis::parse("p", "1:2:3:4"), support::Error);
  EXPECT_THROW(SweepAxis::parse("p", "one:two"), support::Error);
  EXPECT_THROW(SweepAxis::parse("p", "1:8:0"), support::Error);
  EXPECT_THROW(SweepAxis::parse("p", "1,,3"), support::Error);
  EXPECT_THROW(SweepAxis::parse("p", "1:"), support::Error);
}

TEST(SweepSpec, GridSizeIsCartesianProduct) {
  SweepSpec spec;
  spec.axes.push_back(SweepAxis::range("p", 1, 4));
  EXPECT_EQ(spec.gridSize(), 4u);
  spec.axes.push_back(SweepAxis::list("q", {1, 2, 3}));
  EXPECT_EQ(spec.gridSize(), 12u);
  spec.axes.push_back(SweepAxis::range("r", 5, 2));  // empty axis
  EXPECT_EQ(spec.gridSize(), 0u);
}

TEST(SweepSpec, GridSizeSaturatesAtInt64Max) {
  // (2^16)^4 = 2^64 overflows; the count must saturate at int64 max so
  // the JSON rendering (an int64) never shows a negative grid size.
  SweepSpec spec;
  for (const char c : {'a', 'b', 'c', 'd'}) {
    spec.axes.push_back(SweepAxis::range(std::string(1, c), 1, 65536));
  }
  EXPECT_EQ(spec.gridSize(),
            static_cast<std::size_t>(
                std::numeric_limits<std::int64_t>::max()));
}

// ---- Spec validation -----------------------------------------------------

TEST(Sweep, RejectsDuplicateAndConflictingAxes) {
  const Graph g = apps::fig2Tpdf();
  SweepSpec spec;
  spec.axes.push_back(SweepAxis::range("p", 1, 2));
  spec.axes.push_back(SweepAxis::range("p", 3, 4));
  EXPECT_THROW(sweep(g, spec), support::Error);

  spec.axes.pop_back();
  spec.fixed.bind("p", 4);  // swept AND fixed
  EXPECT_THROW(sweep(g, spec), support::Error);
}

TEST(Sweep, RejectsUnknownAndNonPositiveAxisValues) {
  const Graph g = apps::fig2Tpdf();
  SweepSpec spec;
  spec.axes.push_back(SweepAxis::range("nope", 1, 2));
  EXPECT_THROW(sweep(g, spec), support::Error);

  spec.axes.clear();
  spec.axes.push_back(SweepAxis::list("p", {1, 0, 2}));
  EXPECT_THROW(sweep(g, spec), support::Error);
}

// ---- Grid enumeration ----------------------------------------------------

/// A -[p]-> B -[q]-> C with matched rates per edge: every actor fires
/// once per iteration at ANY (p, q) valuation, so partial bindings and
/// defaults are always analyzable.
Graph twoParamGraph() {
  return GraphBuilder("two")
      .param("p")
      .param("q")
      .kernel("A").out("o", "[p]")
      .kernel("B").in("i", "[p]").out("o", "[q]")
      .kernel("C").in("i", "[q]")
      .channel("e1", "A.o", "B.i")
      .channel("e2", "B.o", "C.i")
      .build();
}

TEST(Sweep, EnumeratesRowMajorFirstAxisSlowest) {
  const Graph g = twoParamGraph();
  SweepSpec spec;
  spec.axes.push_back(SweepAxis::list("p", {1, 2}));
  spec.axes.push_back(SweepAxis::list("q", {3, 4, 5}));
  spec.computeBuffers = false;
  spec.computePeriod = false;
  const SweepResult result = sweep(g, spec);
  ASSERT_EQ(result.points.size(), 6u);
  const std::vector<std::pair<std::int64_t, std::int64_t>> expected = {
      {1, 3}, {1, 4}, {1, 5}, {2, 3}, {2, 4}, {2, 5}};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(result.points[i].bindings.lookup("p"), expected[i].first);
    EXPECT_EQ(result.points[i].bindings.lookup("q"), expected[i].second);
  }
}

TEST(Sweep, EmptyGridYieldsNoPointsAndNoVerdicts) {
  const Graph g = apps::fig2Tpdf();
  SweepSpec spec;
  spec.axes.push_back(SweepAxis::range("p", 9, 3));
  const SweepResult result = sweep(g, spec);
  EXPECT_EQ(result.gridSize, 0u);
  EXPECT_TRUE(result.points.empty());
  EXPECT_FALSE(result.truncated);
  EXPECT_TRUE(result.frontier.empty());
}

TEST(Sweep, HardCapTruncatesToEnumerationPrefix) {
  const Graph g = apps::fig2Tpdf();
  SweepSpec spec;
  spec.axes.push_back(SweepAxis::range("p", 1, 64));
  spec.maxPoints = 10;
  spec.computeBuffers = false;
  spec.computePeriod = false;
  const SweepResult result = sweep(g, spec);
  EXPECT_EQ(result.gridSize, 64u);
  EXPECT_TRUE(result.truncated);
  ASSERT_EQ(result.points.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(result.points[i].bindings.lookup("p"),
              static_cast<std::int64_t>(i + 1));
  }
}

// ---- Equivalence with fresh single-binding analyses ----------------------

/// Every sweep point's AnalysisReport must be field-identical to a
/// fresh core::analyze(g, bindings) — compared through the exhaustive
/// JSON rendering, which serializes every report field.
void expectSweepMatchesFreshAnalyses(const Graph& g, SweepSpec spec) {
  spec.keepReports = true;
  const SweepResult result = sweep(g, spec);
  ASSERT_FALSE(result.points.empty());
  for (const SweepPoint& point : result.points) {
    ASSERT_TRUE(point.ok) << point.error;
    ASSERT_TRUE(point.report.has_value());
    const AnalysisReport fresh = analyze(g, point.bindings);
    EXPECT_EQ(point.report->toJson(g).pretty(), fresh.toJson(g).pretty());
    EXPECT_EQ(point.bounded, fresh.bounded());
  }
}

TEST(SweepEquivalence, Figure2AcrossParameterRange) {
  SweepSpec spec;
  spec.axes.push_back(SweepAxis::range("p", 1, 12));
  expectSweepMatchesFreshAnalyses(apps::fig2Tpdf(), spec);
}

TEST(SweepEquivalence, Figure4aCycle) {
  SweepSpec spec;
  spec.axes.push_back(SweepAxis::range("p", 1, 8));
  expectSweepMatchesFreshAnalyses(apps::fig4aCycle(), spec);
}

TEST(SweepEquivalence, Figure1IsParameterFree) {
  // No axes: the grid is the single fixed-bindings point, so a sweep
  // degenerates to one analysis — still field-identical.
  const Graph g = apps::fig1Csdf();
  SweepSpec spec;
  spec.keepReports = true;
  const SweepResult result = sweep(g, spec);
  ASSERT_EQ(result.points.size(), 1u);
  EXPECT_TRUE(result.points[0].bounded);
  EXPECT_EQ(result.points[0].report->toJson(g).pretty(),
            analyze(g).toJson(g).pretty());
}

TEST(SweepEquivalence, RandomizedParametricChains) {
  support::Prng seeds(0x5EED5);
  for (int round = 0; round < 8; ++round) {
    const int n = static_cast<int>(seeds.uniform(3, 12));
    const Graph g = parametricChain(n, seeds.next());
    SweepSpec spec;
    spec.axes.push_back(SweepAxis::list("p", {1, 2, 3, 5, 8}));
    expectSweepMatchesFreshAnalyses(g, spec);
  }
}

TEST(SweepEquivalence, RandomizedParameterFreeChains) {
  support::Prng seeds(0xCAFE5);
  for (int round = 0; round < 6; ++round) {
    const int n = static_cast<int>(seeds.uniform(3, 20));
    const Graph g = apps::randomConsistentChain(n, seeds.next());
    SweepSpec spec;  // no axes: single point
    expectSweepMatchesFreshAnalyses(g, spec);
  }
}

// ---- Shared-context reuse ------------------------------------------------

TEST(Sweep, SharesTheCallerContextReadOnly) {
  const Graph g = apps::fig2Tpdf();
  const AnalysisContext ctx(g);
  const csdf::RepetitionVector& rv = ctx.repetition();  // warm
  SweepSpec spec;
  spec.axes.push_back(SweepAxis::range("p", 1, 6));
  const SweepResult result = sweep(ctx, spec);
  EXPECT_EQ(result.bounded(), 6u);
  // The memoized repetition vector object is untouched (same address,
  // still consistent) and usable after the sweep.
  EXPECT_EQ(&ctx.repetition(), &rv);
  EXPECT_TRUE(ctx.repetition().consistent);
}

TEST(Sweep, JobCountDoesNotChangeTheResult) {
  const Graph g = apps::fig2Tpdf();
  SweepSpec spec;
  spec.axes.push_back(SweepAxis::range("p", 1, 16));
  spec.jobs = 1;
  const std::string serial = sweep(g, spec).toJson().pretty();
  spec.jobs = 8;
  const std::string parallel = sweep(g, spec).toJson().pretty();
  EXPECT_EQ(serial, parallel);
}

// ---- Defaulting audit ----------------------------------------------------

TEST(Sweep, NeverDefaultsASweptParameterAndRecordsTheRest) {
  const Graph g = twoParamGraph();
  SweepSpec spec;
  spec.axes.push_back(SweepAxis::list("p", {1, 4}));
  spec.keepReports = true;
  const SweepResult result = sweep(g, spec);
  // q is neither swept nor fixed: recorded once, sampled at 2 per point.
  EXPECT_EQ(result.defaulted, (std::vector<std::string>{"q"}));
  ASSERT_EQ(result.points.size(), 2u);
  for (const SweepPoint& point : result.points) {
    ASSERT_TRUE(point.ok);
    // The swept parameter keeps its grid value in the sample env — never
    // the 2 fallback; q takes the fallback.
    EXPECT_EQ(point.report->liveness.sampleEnv.lookup("p"),
              point.bindings.lookup("p"));
    EXPECT_EQ(point.report->liveness.sampleEnv.lookup("q"), 2);
  }
  EXPECT_NE(result.points[0].bindings.lookup("p"),
            result.points[1].bindings.lookup("p"));
}

// ---- Per-point failure capture -------------------------------------------

TEST(Sweep, CapturesPerPointFailuresWithoutAbortingTheSweep) {
  // Rate 3-p evaluates negative at p=4: that point fails, the rest run.
  const Graph g = GraphBuilder("neg")
                      .param("p")
                      .kernel("A").out("o", "[3-p]")
                      .kernel("B").in("i", "[1]")
                      .channel("e", "A.o", "B.i")
                      .build();
  SweepSpec spec;
  spec.axes.push_back(SweepAxis::list("p", {1, 2, 4}));
  const SweepResult result = sweep(g, spec);
  ASSERT_EQ(result.points.size(), 3u);
  EXPECT_TRUE(result.points[0].ok);
  EXPECT_TRUE(result.points[1].ok);
  EXPECT_FALSE(result.points[2].ok);
  EXPECT_NE(result.points[2].error.find("negative"), std::string::npos);
  EXPECT_EQ(result.analyzed(), 2u);
  EXPECT_EQ(result.failed(), 1u);
}

// ---- Metrics and the Pareto frontier -------------------------------------

TEST(Sweep, MetricsMatchTheStandaloneEntryPoints) {
  const Graph g = apps::fig2Tpdf();
  SweepSpec spec;
  spec.axes.push_back(SweepAxis::list("p", {1, 3, 7}));
  const SweepResult result = sweep(g, spec);
  const AnalysisContext ctx(g);
  for (const SweepPoint& point : result.points) {
    ASSERT_TRUE(point.ok);
    ASSERT_TRUE(point.buffersComputed);
    ASSERT_TRUE(point.periodComputed);
    const csdf::BufferReport buffers =
        csdf::minimumBuffers(g, ctx.repetition(), point.bindings);
    EXPECT_EQ(point.bufferTotal, buffers.total());
    EXPECT_EQ(point.dataBufferTotal, buffers.dataTotal(g));
    EXPECT_EQ(point.controlBufferTotal, buffers.controlTotal(g));
    const sched::CanonicalPeriod period(ctx, point.bindings);
    const sched::ListSchedule schedule =
        sched::listSchedule(period, sched::Platform{.peCount = spec.pes});
    EXPECT_DOUBLE_EQ(point.period, schedule.makespan);
    if (schedule.makespan > 0) {
      EXPECT_DOUBLE_EQ(point.throughput, 1.0 / schedule.makespan);
    }
  }
}

TEST(Sweep, ParetoFrontierIsExactlyTheNonDominatedSet) {
  const Graph g = apps::fig2Tpdf();
  SweepSpec spec;
  spec.axes.push_back(SweepAxis::range("p", 1, 16));
  const SweepResult result = sweep(g, spec);
  std::vector<std::size_t> computed;
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    const SweepPoint& p = result.points[i];
    if (!(p.ok && p.bounded && p.buffersComputed && p.periodComputed)) {
      continue;
    }
    computed.push_back(i);
  }
  ASSERT_FALSE(computed.empty());
  // Reference: quadratic domination check.
  std::vector<std::size_t> expected;
  for (const std::size_t i : computed) {
    bool dominated = false;
    for (const std::size_t j : computed) {
      const SweepPoint& a = result.points[i];
      const SweepPoint& b = result.points[j];
      if (b.bufferTotal <= a.bufferTotal && b.period <= a.period &&
          (b.bufferTotal < a.bufferTotal || b.period < a.period)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) expected.push_back(i);
  }
  std::vector<std::size_t> frontier = result.frontier;
  std::sort(frontier.begin(), frontier.end());
  std::vector<std::size_t> expectedSorted = expected;
  std::sort(expectedSorted.begin(), expectedSorted.end());
  EXPECT_EQ(frontier, expectedSorted);
  for (const std::size_t i : result.frontier) {
    EXPECT_TRUE(result.points[i].pareto);
  }
  for (const std::size_t i : computed) {
    if (std::find(result.frontier.begin(), result.frontier.end(), i) ==
        result.frontier.end()) {
      EXPECT_FALSE(result.points[i].pareto);
    }
  }
}

TEST(Sweep, AnalysisOnlySkipsMetricsAndFrontier) {
  const Graph g = apps::fig2Tpdf();
  SweepSpec spec;
  spec.axes.push_back(SweepAxis::range("p", 1, 4));
  spec.computeBuffers = false;
  spec.computePeriod = false;
  const SweepResult result = sweep(g, spec);
  EXPECT_EQ(result.bounded(), 4u);
  EXPECT_TRUE(result.frontier.empty());
  for (const SweepPoint& point : result.points) {
    EXPECT_FALSE(point.buffersComputed);
    EXPECT_FALSE(point.periodComputed);
    EXPECT_FALSE(point.pareto);
    EXPECT_FALSE(point.report.has_value());  // keepReports defaults off
  }
}

// ---- Platform axes: golden document and per-point oracle ----------------

/// The OFDM demodulator (the paper's case study, CSDF projection) over
/// 32 parameter valuations and 4 platform variants: 128 points.
SweepSpec ofdmPlatformSpec() {
  SweepSpec spec;
  spec.axes.push_back(SweepAxis::parse("b", "1:8"));
  spec.axes.push_back(SweepAxis::parse("N", "64,256"));
  spec.axes.push_back(SweepAxis::parse("L", "1:2"));
  spec.topologies = {"mesh:2x2", "bus:4"};
  spec.linkBandwidths = {1.0, 16.0};
  return spec;
}

constexpr std::size_t kOfdmValuations = 32;

std::string sweepGoldenPath() {
  return std::string(TPDF_SOURCE_DIR) +
         "/tests/golden/sweep_ofdm_platform.json";
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Checkpoints a point spends before its list schedule, and in total.
using WorkSplit = std::pair<std::uint64_t, std::uint64_t>;

/// One point analyzed on its own, the long way: rate table, liveness,
/// minimum buffers, canonical period and list schedule, under a private
/// budget capped at `maxWork` (0 = unlimited).  `work`, when non-null,
/// receives the checkpoints spent before the list schedule and in total.
SweepPoint oraclePoint(const AnalysisContext& ctx, const SweepSpec& spec,
                       const Environment& bindings, const std::string& label,
                       std::uint64_t maxWork, WorkSplit* work = nullptr) {
  const Graph& g = ctx.graph();
  SweepPoint point;
  point.bindings = bindings;
  point.platform = label;
  support::Budget budget;
  if (maxWork != 0) budget.setMaxWork(maxWork);
  support::Budget* b = maxWork != 0 ? &budget : nullptr;
  try {
    const graph::EvaluatedRates rates(ctx.graph(), bindings);
    AnalysisReport report;
    report.repetition = ctx.repetition();
    report.safety = checkRateSafety(ctx);
    report.liveness = checkLiveness(ctx, bindings, 2, rates, b);
    point.consistent = report.consistent();
    point.rateSafe = report.rateSafe();
    point.live = report.live();
    point.bounded = report.bounded();
    if (!point.live) point.diagnostic = report.liveness.diagnostic;
    if (point.bounded) {
      const csdf::BufferReport buffers =
          csdf::minimumBuffers(ctx.graph(), ctx.repetition(), bindings,
                               spec.bufferPolicy, &rates, b);
      if (!buffers.ok) ADD_FAILURE() << buffers.diagnostic;
      point.buffersComputed = true;
      point.bufferTotal = buffers.total();
      point.dataBufferTotal = buffers.dataTotal(g);
      point.controlBufferTotal = buffers.controlTotal(g);

      const sched::CanonicalPeriod period(ctx.graph(), ctx.repetition(), rates,
                                          bindings, b);
      if (work != nullptr) work->first = budget.work();
      const platform::PlatformSpec ps =
          platform::parsePlatformSpec(label).spec;
      const platform::Topology topo = ps.build(spec.pes);
      sched::Platform plat{.peCount = topo.peCount()};
      if (!topo.ideal()) {
        plat.linkLatency = ps.latency;
        plat.topology = &topo;
      }
      const sched::ListSchedule schedule =
          sched::listSchedule(period, plat, {}, b);
      if (work != nullptr) work->second = budget.work();
      point.periodComputed = true;
      point.period = schedule.makespan;
      point.throughput =
          schedule.makespan > 0.0 ? 1.0 / schedule.makespan : 0.0;
    }
    point.ok = true;
  } catch (const support::BudgetExceeded& e) {
    point.resourceLimited = true;
    point.error = e.what();
  }
  return point;
}

/// Every point of `result` equals its oracle point (Pareto membership
/// is a whole-sweep property, so it is taken from the sweep).
void expectMatchesOracle(const Graph& g, const SweepSpec& spec,
                         const SweepResult& result) {
  const AnalysisContext ctx(g);
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    const SweepPoint& point = result.points[i];
    SweepPoint oracle =
        oraclePoint(ctx, spec, point.bindings, point.platform,
                    static_cast<std::uint64_t>(spec.pointMaxWork));
    oracle.pareto = point.pareto;
    EXPECT_EQ(point.toJson().dump(), oracle.toJson().dump()) << "point " << i;
    EXPECT_EQ(point.resourceLimited, oracle.resourceLimited) << "point " << i;
  }
}

TEST(SweepPlatformAxes, GoldenDocumentAtOneAndFourJobs) {
  const Graph g = apps::ofdmCsdfGraph();
  SweepSpec spec = ofdmPlatformSpec();
  spec.jobs = 1;
  const std::string serial = sweep(g, spec).toJson().pretty() + "\n";
  if (std::getenv("TPDF_WRITE_GOLDEN") != nullptr) {
    std::ofstream out(sweepGoldenPath(), std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << sweepGoldenPath();
    out << serial;
    return;
  }
  const std::string expected = slurp(sweepGoldenPath());
  ASSERT_FALSE(expected.empty()) << "missing golden file " << sweepGoldenPath();
  EXPECT_EQ(expected, serial);
  spec.jobs = 4;
  EXPECT_EQ(expected, sweep(g, spec).toJson().pretty() + "\n");
}

TEST(SweepPlatformAxes, EveryPointMatchesTheOracle) {
  const Graph g = apps::ofdmCsdfGraph();
  SweepSpec spec = ofdmPlatformSpec();
  spec.jobs = 4;
  const SweepResult result = sweep(g, spec);
  ASSERT_EQ(result.points.size(), kOfdmValuations * 4);
  EXPECT_EQ(result.analyzed(), result.points.size());
  expectMatchesOracle(g, spec, result);
}

TEST(SweepPlatformAxes, EveryVariantKeepsItsOwnReport) {
  const Graph g = apps::fig2Tpdf();
  SweepSpec spec;
  spec.axes.push_back(SweepAxis::range("p", 1, 4));
  spec.topologies = {"crossbar:4", "bus:4,bw=1,lat=1"};
  spec.keepReports = true;
  const SweepResult result = sweep(g, spec);
  ASSERT_EQ(result.points.size(), 8u);
  for (const SweepPoint& point : result.points) {
    ASSERT_TRUE(point.ok) << point.error;
    ASSERT_TRUE(point.report.has_value());
    EXPECT_EQ(point.report->toJson(g).pretty(),
              analyze(g, point.bindings).toJson(g).pretty());
  }
}

TEST(SweepPlatformAxes, CapInsideAVariantKeepsThePrefixAndItsLabels) {
  const Graph g = apps::ofdmCsdfGraph();
  SweepSpec spec = ofdmPlatformSpec();
  spec.jobs = 4;
  const SweepResult full = sweep(g, spec);
  spec.maxPoints = 2 * kOfdmValuations + 5;  // 5 points into variant 2
  const SweepResult cut = sweep(g, spec);
  EXPECT_EQ(cut.gridSize, full.points.size());
  EXPECT_TRUE(cut.truncated);
  ASSERT_EQ(cut.points.size(), spec.maxPoints);
  for (std::size_t i = 0; i < cut.points.size(); ++i) {
    SweepPoint expected = full.points[i];
    expected.pareto = cut.points[i].pareto;
    EXPECT_EQ(cut.points[i].toJson().dump(), expected.toJson().dump())
        << "point " << i;
    EXPECT_EQ(cut.points[i].platform, expected.platform) << "point " << i;
  }
  EXPECT_EQ(cut.points.back().platform, "bus:4,bw=1");
  EXPECT_EQ(cut.points.back().bindings.lookup("b"), 2);
}

struct CapOutcome {
  std::size_t ok = 0;
  std::size_t inShared = 0;  // tripped before the list schedule
  std::size_t inList = 0;    // tripped in the list schedule
};

/// Caps every point's work halfway into the list schedule of point
/// `probe` and checks the sweep against the oracle at 1 and 4 jobs.
CapOutcome sweepWithWorkCap(const Graph& g, SweepSpec spec, std::size_t probe) {
  const SweepResult unlimited = sweep(g, spec);
  const AnalysisContext ctx(g);
  const auto workOf = [&](const SweepPoint& point) {
    WorkSplit work;
    oraclePoint(ctx, spec, point.bindings, point.platform,
                std::numeric_limits<std::uint64_t>::max(), &work);
    return work;
  };
  const auto [shared, total] = workOf(unlimited.points.at(probe));
  EXPECT_LT(shared, total);
  spec.pointMaxWork = static_cast<std::int64_t>(shared + (total - shared) / 2);

  CapOutcome outcome;
  for (const std::size_t jobs : {1u, 4u}) {
    spec.jobs = jobs;
    const SweepResult result = sweep(g, spec);
    EXPECT_EQ(result.points.size(), unlimited.points.size());
    expectMatchesOracle(g, spec, result);
    outcome = CapOutcome{};
    for (const SweepPoint& point : result.points) {
      if (point.ok) {
        ++outcome.ok;
        continue;
      }
      EXPECT_TRUE(point.resourceLimited) << point.error;
      const bool fitsShared =
          workOf(point).first <= static_cast<std::uint64_t>(spec.pointMaxWork);
      ++(fitsShared ? outcome.inList : outcome.inShared);
    }
  }
  return outcome;
}

TEST(SweepPlatformAxes, WorkCapTripsWhereTheOracleDoes) {
  // fig2's repetition vector grows with p, so one cap splits the grid:
  // small p fits, the probe's valuation trips in its list schedules,
  // large p trips in the shared analyses.
  SweepSpec spec;
  spec.axes.push_back(SweepAxis::range("p", 1, 8));
  spec.topologies = {"mesh:2x2", "bus:4"};
  spec.linkBandwidths = {1.0, 16.0};
  const CapOutcome outcome = sweepWithWorkCap(apps::fig2Tpdf(), spec, 3);
  EXPECT_GT(outcome.ok, 0u);
  EXPECT_GT(outcome.inShared, 0u);
  EXPECT_GT(outcome.inList, 0u);
}

TEST(SweepPlatformAxes, OfdmWorkCapTripsInEveryListSchedule) {
  // Every OFDM actor fires once per iteration at any valuation, so all
  // points spend the same work and the cap lands in every list schedule:
  // the valuation's work must be charged to each point's budget.
  const CapOutcome outcome =
      sweepWithWorkCap(apps::ofdmCsdfGraph(), ofdmPlatformSpec(), 0);
  EXPECT_EQ(outcome.inList, kOfdmValuations * 4);
}

}  // namespace
}  // namespace tpdf::core
