// Behaviour tests for the tpdf::api service façade (api/session.hpp):
// the no-throw boundary, the diagnostic mapping, the memoized
// AnalysisContext reuse, and the property that façade responses agree
// field-by-field with the direct core::analyze path.
#include "api/session.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "apps/papergraphs.hpp"
#include "apps/randomgraphs.hpp"
#include "core/analysis.hpp"
#include "io/format.hpp"
#include "support/prng.hpp"

#include "schedule_firings.hpp"

namespace tpdf::api {
namespace {

const char* kQuickstart = R"(
graph quickstart {
  param p;
  kernel A { out o rates [p]; }
  kernel B {
    in i rates [1];
    out oC rates [1];
    out oD rates [1];
    out oE rates [1];
  }
  control C { in i rates [2]; ctl_out o rates [2]; }
  kernel D { in i rates [2]; out o rates [2]; }
  kernel E { in i rates [1]; out o rates [1]; }
  kernel F {
    in iD rates [0,2] priority 1;
    in iE rates [1,1] priority 2;
    ctl_in c rates [1,1];
  }
  channel e1 from A.o to B.i;
  channel e2 from B.oC to C.i;
  channel e3 from B.oD to D.i;
  channel e4 from B.oE to E.i;
  channel e5 from C.o to F.c;
  channel e6 from D.o to F.iD;
  channel e7 from E.o to F.iE;
}
)";

LoadResponse loadGraph(Session& session, const graph::Graph& g,
                       const std::string& id = "") {
  LoadRequest request;
  request.text = io::writeGraph(g);
  request.id = id;
  return session.load(request);
}

/// Field-by-field equality of the façade's report and a directly
/// computed one.
void expectReportsEqual(const core::AnalysisReport& a,
                        const core::AnalysisReport& b) {
  EXPECT_EQ(a.repetition.consistent, b.repetition.consistent);
  EXPECT_EQ(a.repetition.diagnostic, b.repetition.diagnostic);
  ASSERT_EQ(a.repetition.r.size(), b.repetition.r.size());
  for (std::size_t i = 0; i < a.repetition.r.size(); ++i) {
    EXPECT_EQ(a.repetition.r[i], b.repetition.r[i]);
    EXPECT_EQ(a.repetition.q[i], b.repetition.q[i]);
  }
  EXPECT_EQ(a.safety.safe, b.safety.safe);
  EXPECT_EQ(a.safety.diagnostic, b.safety.diagnostic);
  EXPECT_EQ(a.safety.perControl.size(), b.safety.perControl.size());
  EXPECT_EQ(a.liveness.live, b.liveness.live);
  EXPECT_EQ(a.liveness.diagnostic, b.liveness.diagnostic);
  EXPECT_EQ(a.liveness.parametricSchedule, b.liveness.parametricSchedule);
  EXPECT_EQ(csdf::expandFirings(a.liveness.sampleSchedule),
            csdf::expandFirings(b.liveness.sampleSchedule));
  EXPECT_EQ(a.liveness.sampleEnv.bindings(), b.liveness.sampleEnv.bindings());
  EXPECT_EQ(a.bounded(), b.bounded());
}

// ---- load ---------------------------------------------------------------

TEST(ApiLoad, LoadsInlineTextAndReportsShape) {
  Session session;
  LoadRequest request;
  request.text = kQuickstart;
  const LoadResponse response = session.load(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.id, "quickstart");
  EXPECT_EQ(response.graphName, "quickstart");
  EXPECT_EQ(response.actorCount, 6u);
  EXPECT_EQ(response.channelCount, 7u);
  EXPECT_EQ(response.params, std::vector<std::string>{"p"});
  EXPECT_TRUE(session.has("quickstart"));
  ASSERT_NE(session.graph("quickstart"), nullptr);
}

TEST(ApiLoad, EmptyRequestIsInvalid) {
  Session session;
  const LoadResponse response = session.load(LoadRequest{});
  EXPECT_EQ(response.status, Status::InvalidRequest);
  ASSERT_FALSE(response.diagnostics.empty());
  EXPECT_EQ(response.diagnostics[0].code, "invalid-request");
}

TEST(ApiLoad, PathAndTextTogetherAreInvalid) {
  Session session;
  LoadRequest request;
  request.path = "x.tpdf";
  request.text = "graph g {}";
  EXPECT_EQ(session.load(request).status, Status::InvalidRequest);
}

TEST(ApiLoad, ParseErrorKeepsLineAndColumn) {
  Session session;
  LoadRequest request;
  request.text = "graph broken {\n  kernel A {\n";
  const LoadResponse response = session.load(request);
  EXPECT_EQ(response.status, Status::InputError);
  ASSERT_FALSE(response.diagnostics.empty());
  EXPECT_EQ(response.diagnostics[0].code, "parse-error");
  EXPECT_EQ(response.diagnostics[0].line, 3);
  EXPECT_GE(response.diagnostics[0].column, 1);
}

TEST(ApiLoad, ReadTimeModelErrorKeepsLineAndColumn) {
  Session session;
  LoadRequest request;
  request.text = "graph dup {\n  kernel A { }\n  kernel A { }\n}\n";
  const LoadResponse response = session.load(request);
  EXPECT_EQ(response.status, Status::InputError);
  ASSERT_FALSE(response.diagnostics.empty());
  EXPECT_EQ(response.diagnostics[0].code, "model-error");
  EXPECT_EQ(response.diagnostics[0].message, "duplicate actor name 'A'");
  EXPECT_EQ(response.diagnostics[0].line, 3);
  EXPECT_EQ(response.diagnostics[0].column, 3);
}

TEST(ApiLoad, MissingFileIsInputError) {
  Session session;
  LoadRequest request;
  request.path = "/nonexistent/definitely-missing.tpdf";
  const LoadResponse response = session.load(request);
  EXPECT_EQ(response.status, Status::InputError);
  EXPECT_EQ(exitCode(response.status), 3);
}

TEST(ApiLoad, DuplicateIdIsRejectedUntilErased) {
  Session session;
  ASSERT_TRUE(loadGraph(session, apps::fig1Csdf()).ok());
  EXPECT_EQ(loadGraph(session, apps::fig1Csdf()).status,
            Status::InvalidRequest);
  EXPECT_TRUE(session.erase("fig1_csdf"));
  EXPECT_TRUE(loadGraph(session, apps::fig1Csdf()).ok());
}

// ---- analyze ------------------------------------------------------------

TEST(ApiAnalyze, MatchesDirectPathOnPaperGraphs) {
  for (const graph::Graph& g :
       {apps::fig1Csdf(), apps::fig2Tpdf(), apps::fig4aCycle(),
        apps::fig4bCycle()}) {
    Session session;
    const LoadResponse loaded = loadGraph(session, g);
    ASSERT_TRUE(loaded.ok()) << g.name();
    AnalyzeRequest request;
    request.graphId = loaded.id;
    const AnalyzeResponse response = session.analyze(request);
    ASSERT_TRUE(response.analysisRan) << g.name();
    expectReportsEqual(response.report, core::analyze(g));
  }
}

TEST(ApiAnalyze, MatchesDirectPathUnderBindings) {
  Session session;
  const LoadResponse loaded = loadGraph(session, apps::fig2Tpdf());
  AnalyzeRequest request;
  request.graphId = loaded.id;
  request.bindings = symbolic::Environment{{"p", 3}};
  const AnalyzeResponse response = session.analyze(request);
  ASSERT_TRUE(response.analysisRan);
  expectReportsEqual(response.report,
                     core::analyze(apps::fig2Tpdf(),
                                   symbolic::Environment{{"p", 3}}));
  EXPECT_EQ(response.status, Status::Ok);
  EXPECT_TRUE(response.bounded());
}

TEST(ApiAnalyze, PropertyRandomChainsAgreeWithDirectPath) {
  // The io round trip (writeGraph -> load) must not perturb any report
  // field relative to analyzing the built graph directly.
  support::Prng prng(0xAB1DE);
  for (int trial = 0; trial < 12; ++trial) {
    const int n = static_cast<int>(prng.uniform(3, 24));
    const graph::Graph g = apps::randomConsistentChain(n, prng.next());
    Session session;
    const LoadResponse loaded = loadGraph(session, g, "chain");
    ASSERT_TRUE(loaded.ok());
    AnalyzeRequest request;
    request.graphId = "chain";
    const AnalyzeResponse response = session.analyze(request);
    ASSERT_TRUE(response.analysisRan);
    expectReportsEqual(response.report, core::analyze(g));
  }
}

TEST(ApiAnalyze, UnknownGraphIsInvalidRequest) {
  Session session;
  AnalyzeRequest request;
  request.graphId = "nope";
  const AnalyzeResponse response = session.analyze(request);
  EXPECT_EQ(response.status, Status::InvalidRequest);
  EXPECT_FALSE(response.analysisRan);
  ASSERT_FALSE(response.diagnostics.empty());
  EXPECT_EQ(response.diagnostics[0].code, "unknown-graph");
  EXPECT_EQ(exitCode(response.status), 2);
}

TEST(ApiAnalyze, DeadlockIsAnalysisNegativeWithDiagnostic) {
  Session session;
  LoadRequest load;
  load.text =
      "graph dl {\n"
      "  kernel A { in i rates [1]; out o rates [1]; }\n"
      "  kernel B { in i rates [1]; out o rates [1]; }\n"
      "  channel e1 from A.o to B.i;\n"
      "  channel e2 from B.o to A.i;\n"
      "}\n";
  ASSERT_TRUE(session.load(load).ok());
  AnalyzeRequest request;
  request.graphId = "dl";
  const AnalyzeResponse response = session.analyze(request);
  EXPECT_EQ(response.status, Status::AnalysisNegative);
  EXPECT_TRUE(response.analysisRan);
  EXPECT_FALSE(response.bounded());
  ASSERT_FALSE(response.diagnostics.empty());
  EXPECT_EQ(response.diagnostics[0].code, "deadlock");
  EXPECT_EQ(exitCode(response.status), 1);
}

// ---- context memoization ------------------------------------------------

TEST(ApiSession, RepeatedCallsReuseTheMemoizedContext) {
  Session session;
  LoadRequest load;
  load.text = kQuickstart;
  ASSERT_TRUE(session.load(load).ok());
  EXPECT_EQ(session.context("quickstart"), nullptr);

  AnalyzeRequest analyzeReq;
  analyzeReq.graphId = "quickstart";
  ASSERT_TRUE(session.analyze(analyzeReq).ok());
  const core::AnalysisContext* ctx = session.context("quickstart");
  ASSERT_NE(ctx, nullptr);

  // Every subsequent request — same or different operation — must hit
  // the exact same context object (the memoization the repeated-analysis
  // bench quantifies).
  ASSERT_TRUE(session.analyze(analyzeReq).ok());
  ScheduleRequest scheduleReq;
  scheduleReq.graphId = "quickstart";
  ASSERT_TRUE(session.schedule(scheduleReq).ok());
  MapRequest mapReq;
  mapReq.graphId = "quickstart";
  ASSERT_TRUE(session.map(mapReq).ok());
  SimulateRequest simReq;
  simReq.graphId = "quickstart";
  ASSERT_TRUE(session.simulate(simReq).ok());
  EXPECT_EQ(session.context("quickstart"), ctx);
}

// ---- schedule / buffers / map / simulate --------------------------------

TEST(ApiSchedule, SchedulesQuickstartWithDefaultedParameter) {
  Session session;
  LoadRequest load;
  load.text = kQuickstart;
  ASSERT_TRUE(session.load(load).ok());
  ScheduleRequest request;
  request.graphId = "quickstart";
  const ScheduleResponse response = session.schedule(request);
  ASSERT_EQ(response.status, Status::Ok);
  EXPECT_TRUE(response.result.live);
  EXPECT_TRUE(response.buffersComputed);
  EXPECT_GT(response.buffers.total(), 0);
  // The unbound parameter was defaulted with a note diagnostic.
  ASSERT_FALSE(response.diagnostics.empty());
  EXPECT_EQ(response.diagnostics[0].code, "unbound-parameter");
  EXPECT_EQ(response.diagnostics[0].severity, Severity::Note);
  EXPECT_TRUE(response.bindings.has("p"));
}

TEST(ApiSchedule, AgreesWithDirectFindSchedule) {
  Session session;
  const graph::Graph g = apps::fig1Csdf();
  ASSERT_TRUE(loadGraph(session, g).ok());
  ScheduleRequest request;
  request.graphId = "fig1_csdf";
  const ScheduleResponse response = session.schedule(request);
  ASSERT_EQ(response.status, Status::Ok);
  const csdf::LivenessResult direct =
      csdf::findSchedule(g, csdf::computeRepetitionVector(g));
  EXPECT_EQ(csdf::expandFirings(response.result.schedule),
            csdf::expandFirings(direct.schedule));
  EXPECT_EQ(response.result.q, direct.q);
}

TEST(ApiBuffers, MatchesDirectMinimumBuffers) {
  Session session;
  const graph::Graph g = apps::fig2Tpdf();
  ASSERT_TRUE(loadGraph(session, g).ok());
  BufferRequest request;
  request.graphId = "fig2_tpdf";
  request.bindings = symbolic::Environment{{"p", 2}};
  const BufferResponse response = session.buffers(request);
  ASSERT_EQ(response.status, Status::Ok);
  const csdf::BufferReport direct =
      csdf::minimumBuffers(g, csdf::computeRepetitionVector(g),
                           symbolic::Environment{{"p", 2}});
  EXPECT_EQ(response.report.perChannel, direct.perChannel);
  EXPECT_EQ(response.report.total(), direct.total());
}

TEST(ApiMap, MapsQuickstartOntoPlatform) {
  Session session;
  LoadRequest load;
  load.text = kQuickstart;
  ASSERT_TRUE(session.load(load).ok());
  MapRequest request;
  request.graphId = "quickstart";
  request.pes = 4;
  const MapResponse response = session.map(request);
  ASSERT_EQ(response.status, Status::Ok);
  ASSERT_TRUE(response.period.has_value());
  EXPECT_GT(response.period->size(), 0u);
  EXPECT_EQ(response.schedule.entries.size(), response.period->size());
  EXPECT_GT(response.schedule.makespan, 0.0);
}

TEST(ApiMap, ZeroPesIsInvalidRequest) {
  Session session;
  LoadRequest load;
  load.text = kQuickstart;
  ASSERT_TRUE(session.load(load).ok());
  MapRequest request;
  request.graphId = "quickstart";
  request.pes = 0;
  EXPECT_EQ(session.map(request).status, Status::InvalidRequest);
}

TEST(ApiSimulate, RunsOneIterationAndReturnsToInitialState) {
  Session session;
  LoadRequest load;
  load.text = kQuickstart;
  ASSERT_TRUE(session.load(load).ok());
  SimulateRequest request;
  request.graphId = "quickstart";
  request.options.recordTrace = true;
  const SimulateResponse response = session.simulate(request);
  ASSERT_EQ(response.status, Status::Ok);
  ASSERT_TRUE(response.simulated);
  EXPECT_TRUE(response.result.ok);
  EXPECT_TRUE(response.result.returnedToInitialState);
  EXPECT_FALSE(response.result.trace.empty());
}

// ---- batch --------------------------------------------------------------

TEST(ApiBatch, EmptyRequestIsInvalid) {
  Session session;
  EXPECT_EQ(session.batch(BatchRequest{}).status, Status::InvalidRequest);
}

TEST(ApiBatch, MissingDirectoryIsInputError) {
  Session session;
  BatchRequest request;
  request.directory = "/nonexistent/no-such-dir";
  const BatchResponse response = session.batch(request);
  EXPECT_EQ(response.status, Status::InputError);
  ASSERT_FALSE(response.diagnostics.empty());
  EXPECT_EQ(response.diagnostics[0].code, "io-error");
}

TEST(ApiBatch, ExplicitFilesWithParseFailureKeepPosition) {
  const std::string good = testing::TempDir() + "/api_batch_good.tpdf";
  const std::string bad = testing::TempDir() + "/api_batch_bad.tpdf";
  io::writeGraphFile(apps::fig1Csdf(), good);
  {
    std::ofstream out(bad);
    out << "graph broken {\n  kernel A {\n";
  }
  Session session;
  BatchRequest request;
  request.files = {good, bad};
  const BatchResponse response = session.batch(request);
  EXPECT_EQ(response.status, Status::InputError);
  ASSERT_EQ(response.result.entries.size(), 2u);
  EXPECT_TRUE(response.result.entries[0].ok);
  const core::BatchEntry& failed = response.result.entries[1];
  EXPECT_FALSE(failed.ok);
  EXPECT_EQ(failed.errorLine, 3);
  EXPECT_GE(failed.errorColumn, 1);
  // ... and the entry surfaced as a structured diagnostic too.
  ASSERT_FALSE(response.diagnostics.empty());
  EXPECT_EQ(response.diagnostics[0].code, "batch-entry");
  EXPECT_EQ(response.diagnostics[0].file, bad);
  EXPECT_EQ(response.diagnostics[0].line, 3);
}

// ---- the no-throw boundary (fuzz-ish) -----------------------------------

/// Deterministic corruptions of a valid .tpdf source: truncations,
/// byte substitutions, deletions.  Whatever comes out, the façade must
/// map it to a response — never let an exception escape.
TEST(ApiFuzz, MalformedInputsNeverEscapeTheFacade) {
  const std::string source = kQuickstart;
  support::Prng prng(0xF0071E);
  std::vector<std::string> corpus;
  for (std::size_t cut = 0; cut < source.size(); cut += 7) {
    corpus.push_back(source.substr(0, cut));
  }
  static const char junk[] = "{}[];=.#\0pq2";
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = source;
    const int edits = static_cast<int>(prng.uniform(1, 6));
    for (int e = 0; e < edits; ++e) {
      const std::size_t pos = static_cast<std::size_t>(
          prng.uniform(0, static_cast<std::int64_t>(mutated.size()) - 1));
      if (prng.uniform(0, 2) == 0) {
        mutated.erase(pos, 1);
      } else {
        mutated[pos] =
            junk[prng.uniform(0, static_cast<std::int64_t>(sizeof(junk) - 1))];
      }
    }
    corpus.push_back(std::move(mutated));
  }

  Session session;
  int loadedOk = 0;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const std::string id = "fuzz" + std::to_string(i);
    LoadRequest load;
    load.text = corpus[i];
    load.id = id;
    ASSERT_NO_THROW({
      const LoadResponse response = session.load(load);
      if (response.ok()) {
        ++loadedOk;
        AnalyzeRequest analyzeReq;
        analyzeReq.graphId = id;
        session.analyze(analyzeReq);
        ScheduleRequest scheduleReq;
        scheduleReq.graphId = id;
        session.schedule(scheduleReq);
        SimulateRequest simReq;
        simReq.graphId = id;
        session.simulate(simReq);
      }
      session.erase(id);
    }) << "input " << i;
  }
  // Sanity: the corpus is not all garbage (the unmutated prefix cuts
  // are never valid, but some byte substitutions keep the graph legal).
  SUCCEED() << loadedOk << " variants still parsed";
}

}  // namespace
}  // namespace tpdf::api
