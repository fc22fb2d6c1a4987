// Resource governance across the analysis stack: budget threading
// through analyze/simulate/cross-check, partial-result semantics of the
// sweep/batch drivers under per-unit limits, the api façade's
// resource-limit status and exit-code contract, the fault-injection
// sweep, and the overflow / parser-depth hardening satellites.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "apps/papergraphs.hpp"
#include "apps/randomgraphs.hpp"
#include "core/analysis.hpp"
#include "core/batch.hpp"
#include "core/differential.hpp"
#include "core/sweep.hpp"
#include "csdf/buffer.hpp"
#include "graph/builder.hpp"
#include "io/format.hpp"
#include "sim/simulator.hpp"
#include "support/budget.hpp"
#include "support/error.hpp"
#include "symbolic/expr.hpp"

namespace tpdf {
namespace {

using graph::Graph;
using graph::GraphBuilder;
using support::Budget;
using support::BudgetExceeded;
using support::FaultInjector;
using symbolic::Environment;

const char* const kSmallScenario =
    TPDF_SOURCE_DIR "/examples/graphs/scenarios/video_pipe_small.tpdf";
const char* const kSecondScenario =
    TPDF_SOURCE_DIR "/examples/graphs/scenarios/lte_prb.tpdf";

// ---- Budget threading through the analysis chain -------------------------

TEST(AnalyzeBudget, TinyWorkCapAbortsTheChainTyped) {
  const Graph g = apps::fig1Csdf();
  Budget budget(0, 1);
  EXPECT_THROW(core::analyze(g, {}, &budget), BudgetExceeded);
}

TEST(AnalyzeBudget, GenerousBudgetLeavesTheReportUnchangedAndCountsWork) {
  const Graph g = apps::fig1Csdf();
  const core::AnalysisReport plain = core::analyze(g);
  Budget budget(60'000, 100'000'000);
  const core::AnalysisReport budgeted = core::analyze(g, {}, &budget);
  EXPECT_EQ(budgeted.toJson(g).pretty(), plain.toJson(g).pretty());
  // The chain really was checkpointed, not just tolerated.
  EXPECT_GT(budget.work(), 0u);
}

TEST(SimBudget, WorkBudgetBoundaryIsExact) {
  // Learn the run's exact checkpoint count W with an unlimited counting
  // budget, then pin the boundary: a cap of W completes, W-1 trips.
  const core::TpdfGraph model = apps::fig2TpdfModel();
  Environment env;
  env.bind("p", 2);

  Budget counter;
  sim::SimOptions options;
  options.budget = &counter;
  ASSERT_TRUE(sim::Simulator(model, env).run(options).ok);
  const std::uint64_t w = counter.work();
  ASSERT_GT(w, 1u);

  Budget exact(0, static_cast<std::int64_t>(w));
  options.budget = &exact;
  EXPECT_TRUE(sim::Simulator(model, env).run(options).ok);

  Budget short1(0, static_cast<std::int64_t>(w - 1));
  options.budget = &short1;
  sim::Simulator sim(model, env);
  EXPECT_THROW(sim.run(options), BudgetExceeded);
}

// ---- crossCheck: graceful degradation and fault injection ----------------

TEST(CrossCheckBudget, TrippedBudgetBecomesOneResourceLimitRecord) {
  const core::TpdfGraph model = apps::fig2TpdfModel();
  core::DiffOptions options;
  Budget budget(0, 3);
  options.budget = &budget;
  core::DiffReport report;
  // Never unwinds past crossCheck; the trip is a structured record.
  EXPECT_NO_THROW(core::crossCheck(model, {}, options, report));
  EXPECT_EQ(report.resourceLimited(), 1u);
  ASSERT_FALSE(report.records.empty());
  EXPECT_EQ(report.records.front().check, "resource-limit");
  EXPECT_NE(report.records.front().detail.find("work"), std::string::npos);
}

TEST(CrossCheckBudget, InjectedFaultsAlwaysSurfaceAsStructuredRecords) {
  const core::TpdfGraph model = apps::fig2TpdfModel();

  // Clean counting run: how many checkpoints does one crossCheck reach?
  core::DiffOptions counting;
  Budget counter;
  counting.budget = &counter;
  core::DiffReport clean;
  core::crossCheck(model, {}, counting, clean);
  EXPECT_EQ(clean.resourceLimited(), 0u);
  const std::uint64_t total = counter.work();
  ASSERT_GT(total, 2u);

  // Inject at the first, middle and last checkpoint: every injection
  // must produce exactly one resource-limit record, nothing escapes.
  for (const std::uint64_t n : {std::uint64_t{1}, total / 2, total}) {
    core::DiffOptions options;
    Budget budget;
    budget.arm(FaultInjector{n});
    options.budget = &budget;
    core::DiffReport report;
    EXPECT_NO_THROW(core::crossCheck(model, {}, options, report));
    EXPECT_EQ(report.resourceLimited(), 1u) << "injection at " << n;
  }
}

// ---- Sweep: partial results, never a whole-run abort ---------------------

TEST(SweepBudget, PerPointWorkCapYieldsPartialResultsNotAnAbort) {
  const Graph g = apps::fig2Tpdf();
  core::SweepSpec spec;
  spec.axes.push_back(core::SweepAxis::range("p", 1, 6));
  spec.jobs = 1;
  spec.pointMaxWork = 1;  // every point trips immediately
  const core::SweepResult result = core::sweep(g, spec);
  ASSERT_EQ(result.points.size(), 6u);
  EXPECT_EQ(result.resourceLimited(), 6u);
  EXPECT_EQ(result.failed(), 6u);
  for (const core::SweepPoint& p : result.points) {
    EXPECT_FALSE(p.ok);
    EXPECT_TRUE(p.resourceLimited);
    EXPECT_FALSE(p.error.empty());
  }
  // The truncation/degradation is explicit in the JSON document.
  const std::string json = result.toJson().pretty();
  EXPECT_NE(json.find("\"resourceLimited\""), std::string::npos);
}

TEST(SweepBudget, GenerousPerPointBudgetChangesNothing) {
  const Graph g = apps::fig2Tpdf();
  core::SweepSpec spec;
  spec.axes.push_back(core::SweepAxis::range("p", 1, 4));
  spec.jobs = 1;
  const std::string plain = core::sweep(g, spec).toJson().pretty();
  spec.pointTimeoutMs = 60'000;
  spec.pointMaxWork = 100'000'000;
  EXPECT_EQ(core::sweep(g, spec).toJson().pretty(), plain);
}

TEST(SweepBudget, RunWideCancelStopsEveryPoint) {
  const Graph g = apps::fig2Tpdf();
  core::SweepSpec spec;
  spec.axes.push_back(core::SweepAxis::range("p", 1, 6));
  spec.jobs = 2;
  Budget runWide;
  runWide.cancel();  // cancelled before the sweep starts: deterministic
  spec.budget = &runWide;
  const core::SweepResult result = core::sweep(g, spec);
  ASSERT_EQ(result.points.size(), 6u);
  EXPECT_EQ(result.resourceLimited(), 6u);
  for (const core::SweepPoint& p : result.points) {
    EXPECT_TRUE(p.resourceLimited);
    EXPECT_NE(p.error.find("cancel"), std::string::npos);
  }
}

// ---- Batch: per-entry limits ---------------------------------------------

TEST(BatchBudget, PerEntryWorkCapYieldsPartialResults) {
  const std::vector<Graph> graphs = {apps::fig1Csdf(), apps::fig2Tpdf()};
  core::BatchOptions options;
  options.jobs = 2;
  options.entryMaxWork = 1;
  const core::BatchResult result = core::analyzeBatch(graphs, options);
  ASSERT_EQ(result.entries.size(), 2u);
  EXPECT_EQ(result.resourceLimited(), 2u);
  for (const core::BatchEntry& e : result.entries) {
    EXPECT_FALSE(e.ok);
    EXPECT_TRUE(e.resourceLimited);
  }
  const std::string json = result.toJson().pretty();
  EXPECT_NE(json.find("\"resourceLimited\""), std::string::npos);
}

TEST(BatchBudget, RunWideCancelMarksEveryEntry) {
  const std::vector<Graph> graphs = {apps::fig1Csdf(), apps::fig2Tpdf()};
  core::BatchOptions options;
  Budget runWide;
  runWide.cancel();
  options.budget = &runWide;
  const core::BatchResult result = core::analyzeBatch(graphs, options);
  EXPECT_EQ(result.resourceLimited(), 2u);
}

TEST(BatchBudget, GenerousEntryBudgetChangesNothing) {
  const std::vector<Graph> graphs = {apps::fig1Csdf(), apps::fig2Tpdf()};
  core::BatchOptions options;
  options.jobs = 1;
  const std::string plain = core::analyzeBatch(graphs, options).toJson().pretty();
  options.entryTimeoutMs = 60'000;
  options.entryMaxWork = 100'000'000;
  EXPECT_EQ(core::analyzeBatch(graphs, options).toJson().pretty(), plain);
}

// ---- api façade: resource-limit status, exit code 4 ----------------------

TEST(ApiResourceLimit, StatusStringAndExitCode) {
  EXPECT_EQ(api::toString(api::Status::ResourceLimit), "resource-limit");
  EXPECT_EQ(api::exitCode(api::Status::ResourceLimit), 4);
  // The rest of the contract is unchanged.
  EXPECT_EQ(api::exitCode(api::Status::Ok), 0);
  EXPECT_EQ(api::exitCode(api::Status::AnalysisNegative), 1);
  EXPECT_EQ(api::exitCode(api::Status::InvalidRequest), 2);
  EXPECT_EQ(api::exitCode(api::Status::InputError), 3);
  EXPECT_EQ(api::exitCode(api::Status::InternalError), 3);
}

TEST(ApiResourceLimit, AnalyzeWithTinyWorkCapReturnsResourceLimit) {
  api::Session session;
  api::LoadRequest load;
  load.path = kSmallScenario;
  load.id = "g";
  ASSERT_TRUE(session.load(load).ok());

  api::AnalyzeRequest request;
  request.graphId = "g";
  request.limits.maxWork = 1;
  const api::AnalyzeResponse response = session.analyze(request);
  EXPECT_EQ(response.status, api::Status::ResourceLimit);
  EXPECT_EQ(api::exitCode(response.status), 4);
  ASSERT_FALSE(response.diagnostics.empty());
  EXPECT_EQ(response.diagnostics.front().code, "resource-limit");
  EXPECT_FALSE(response.analysisRan);
}

TEST(ApiResourceLimit, EnvArmedFaultInjectsIntoAnUnmodifiedRequest) {
  // TPDF_FAULT_CHECKPOINT lets an external harness inject a fault into
  // an unmodified tpdfc; through the facade it must surface as the same
  // structured resource-limit outcome as any other budget trip.
  api::Session session;
  api::LoadRequest load;
  load.path = kSmallScenario;
  load.id = "g";
  ASSERT_TRUE(session.load(load).ok());

  ASSERT_EQ(::setenv("TPDF_FAULT_CHECKPOINT", "1", 1), 0);
  api::AnalyzeRequest request;
  request.graphId = "g";
  const api::AnalyzeResponse injected = session.analyze(request);
  ASSERT_EQ(::unsetenv("TPDF_FAULT_CHECKPOINT"), 0);
  EXPECT_EQ(injected.status, api::Status::ResourceLimit);
  ASSERT_FALSE(injected.diagnostics.empty());
  EXPECT_EQ(injected.diagnostics.front().code, "resource-limit");

  // With the variable gone the very same request succeeds.
  const api::AnalyzeResponse clean = session.analyze(request);
  EXPECT_TRUE(clean.ok());
}

TEST(ApiResourceLimit, GenerousLimitsLeaveTheVerdictUnchanged) {
  api::Session session;
  api::LoadRequest load;
  load.path = kSmallScenario;
  load.id = "g";
  ASSERT_TRUE(session.load(load).ok());

  api::AnalyzeRequest plain;
  plain.graphId = "g";
  const api::Status want = session.analyze(plain).status;

  api::AnalyzeRequest limited;
  limited.graphId = "g";
  limited.limits.timeoutMs = 60'000;
  limited.limits.maxWork = 100'000'000;
  const api::AnalyzeResponse response = session.analyze(limited);
  EXPECT_EQ(response.status, want);
  EXPECT_TRUE(response.analysisRan);
}

TEST(ApiResourceLimit, SimulateAndScheduleAndBuffersHonourTheCap) {
  api::Session session;
  api::LoadRequest load;
  load.path = kSmallScenario;
  load.id = "g";
  ASSERT_TRUE(session.load(load).ok());

  api::SimulateRequest sim;
  sim.graphId = "g";
  sim.limits.maxWork = 1;
  EXPECT_EQ(session.simulate(sim).status, api::Status::ResourceLimit);

  api::ScheduleRequest sched;
  sched.graphId = "g";
  sched.limits.maxWork = 1;
  EXPECT_EQ(session.schedule(sched).status, api::Status::ResourceLimit);

  api::BufferRequest buf;
  buf.graphId = "g";
  buf.limits.maxWork = 1;
  EXPECT_EQ(session.buffers(buf).status, api::Status::ResourceLimit);

  api::MapRequest map;
  map.graphId = "g";
  map.limits.maxWork = 1;
  EXPECT_EQ(session.map(map).status, api::Status::ResourceLimit);
}

TEST(ApiResourceLimit, BatchPartialResultsCarryResourceLimitDiagnostics) {
  api::Session session;
  api::BatchRequest request;
  request.files = {kSmallScenario, kSecondScenario};
  request.limits.maxWork = 1;
  const api::BatchResponse response = session.batch(request);
  EXPECT_EQ(response.status, api::Status::ResourceLimit);
  EXPECT_EQ(response.result.entries.size(), 2u);
  EXPECT_EQ(response.result.resourceLimited(), 2u);
  bool sawCode = false;
  for (const api::Diagnostic& d : response.diagnostics) {
    sawCode = sawCode || d.code == "resource-limit";
  }
  EXPECT_TRUE(sawCode);
}

TEST(ApiResourceLimit, VerifyPerFileLimitDegradesToPartialResults) {
  api::Session session;
  api::VerifyRequest request;
  request.files = {kSmallScenario, kSecondScenario};
  request.limits.maxWork = 1;
  const api::VerifyResponse response = session.verify(request);
  EXPECT_EQ(response.status, api::Status::ResourceLimit);
  EXPECT_EQ(response.inputCount, 2u);
  // One structured record per tripped file, both files still reported.
  EXPECT_EQ(response.report.resourceLimited(), 2u);
}

// ---- Fault-injection sweep ----------------------------------------------

TEST(FaultSweep, EveryInjectionProducesAStructuredOutcome) {
  api::Session session;
  api::VerifyRequest request;
  request.files = {kSmallScenario};
  request.faultSweep = true;
  request.faultSweepLimit = 25;
  const api::VerifyResponse response = session.verify(request);
  // Zero `fault-sweep` diagnostics: no injection escaped or vanished.
  for (const api::Diagnostic& d : response.diagnostics) {
    EXPECT_NE(d.code, "fault-sweep") << d.message;
  }
  EXPECT_EQ(response.status, api::Status::Ok);
  EXPECT_GT(response.faultInjections, 0u);
  EXPECT_LE(response.faultInjections, 25u);
  // The clean counting run doubled as the file's regular verification.
  EXPECT_EQ(response.report.verdicts.size(), 1u);
  const std::string json = response.toJson().pretty();
  EXPECT_NE(json.find("\"faultInjections\""), std::string::npos);
}

// ---- Hardening satellites: overflow and parser depth ---------------------

TEST(OverflowHardening, HugeRatesFailTypedInsteadOfWrapping) {
  // q grows by 4e9 per hop: 1, 4e9, 1.6e19 — past int64.  The failure
  // must be a typed support::Error from checked arithmetic, never a
  // silent wrap into nonsense capacities.
  GraphBuilder b("huge");
  b.kernel("A").out("o", "[4000000000]");
  b.kernel("B").in("i", "[1]").out("o", "[4000000000]");
  b.kernel("C").in("i", "[1]");
  b.channel("e1", "A.o", "B.i");
  b.channel("e2", "B.o", "C.i");
  const Graph g = b.build();
  try {
    const core::AnalysisReport report = core::analyze(g);
    // Accepted alternative: the chain rejects the graph with a verdict.
    EXPECT_FALSE(report.bounded());
  } catch (const support::Error&) {
    // Typed failure: also acceptable, and what the checked paths throw.
  }
  EXPECT_THROW(csdf::minimumBuffers(g, csdf::computeRepetitionVector(g)),
               support::Error);
}

TEST(ParserDepth, DeepRateExpressionNestingIsRejectedWithALimit) {
  std::string expr(100, '(');
  expr += "p";
  expr += std::string(100, ')');
  try {
    symbolic::parseExpr(expr);
    FAIL() << "expected ParseError";
  } catch (const support::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("nested too deeply"),
              std::string::npos);
    EXPECT_GE(e.line(), 1);
    EXPECT_GE(e.column(), 1);
  }
}

TEST(ParserDepth, DeepUnaryMinusNestingIsRejected) {
  std::string expr(200, '-');
  expr += "1";
  EXPECT_THROW(symbolic::parseExpr(expr), support::ParseError);
}

TEST(ParserDepth, DeepBracketNestingInRateListsIsRejected) {
  std::string rates(32, '[');
  rates += "1";
  rates += std::string(32, ']');
  const std::string text = "graph g {\n  kernel A {\n    out o rates " +
                           rates + ";\n  }\n}\n";
  try {
    io::readGraph(text);
    FAIL() << "expected ParseError";
  } catch (const support::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("nested too deeply"),
              std::string::npos);
    EXPECT_GE(e.line(), 1);
  }
}

TEST(ParserDepth, IntegerLiteralOverflowIsRejectedWithAPosition) {
  const std::string text =
      "graph g {\n  kernel A {\n    out o rates [99999999999999999999];\n"
      "  }\n}\n";
  try {
    io::readGraph(text);
    FAIL() << "expected ParseError";
  } catch (const support::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("overflow"), std::string::npos);
    EXPECT_GE(e.line(), 1);
  }
}

}  // namespace
}  // namespace tpdf
