// Golden-file JSON tests for every toJson() report renderer, over the
// paper corpus (fig1 / fig2 / fig4a / edge detection / OFDM).
//
// Two layers of checking:
//   * the shared strict JSON parser (tests/strict_json.hpp) re-reads
//     each emitted document into a support::json::Value and
//     re-serializes it — the round trip must reproduce the exact bytes,
//     proving the writer emits valid JSON and nothing is lost;
//   * exact golden strings for the small deterministic reports, and
//     structural member assertions for the large ones.
#include <gtest/gtest.h>

#include <string>

#include "api/session.hpp"
#include "api/version.hpp"
#include "apps/edgegraph.hpp"
#include "apps/ofdm.hpp"
#include "apps/papergraphs.hpp"
#include "core/analysis.hpp"
#include "core/batch.hpp"
#include "csdf/buffer.hpp"
#include "io/format.hpp"
#include "sched/canonical.hpp"
#include "sched/list.hpp"
#include "sim/simulator.hpp"
#include "support/json.hpp"

#include "strict_json.hpp"

namespace tpdf {
namespace {

using support::json::Value;
using test::JsonParser;
using test::expectRoundTrip;

// ---- Exact goldens for the small deterministic reports ------------------

TEST(ApiJsonGolden, Fig1RepetitionVector) {
  const graph::Graph g = apps::fig1Csdf();
  const csdf::RepetitionVector rv = csdf::computeRepetitionVector(g);
  EXPECT_EQ(rv.toJson(g).dump(),
            "{\"consistent\":true,\"actors\":["
            "{\"actor\":\"a1\",\"r\":\"1\",\"q\":\"3\"},"
            "{\"actor\":\"a2\",\"r\":\"1\",\"q\":\"2\"},"
            "{\"actor\":\"a3\",\"r\":\"1\",\"q\":\"2\"}]}");
  expectRoundTrip(rv.toJson(g));
}

TEST(ApiJsonGolden, Fig2RepetitionVector) {
  const graph::Graph g = apps::fig2Tpdf();
  const csdf::RepetitionVector rv = csdf::computeRepetitionVector(g);
  EXPECT_EQ(rv.toJson(g).dump(),
            "{\"consistent\":true,\"actors\":["
            "{\"actor\":\"A\",\"r\":\"2\",\"q\":\"2\"},"
            "{\"actor\":\"B\",\"r\":\"2p\",\"q\":\"2p\"},"
            "{\"actor\":\"C\",\"r\":\"p\",\"q\":\"p\"},"
            "{\"actor\":\"D\",\"r\":\"p\",\"q\":\"p\"},"
            "{\"actor\":\"E\",\"r\":\"2p\",\"q\":\"2p\"},"
            "{\"actor\":\"F\",\"r\":\"p\",\"q\":\"2p\"}]}");
  expectRoundTrip(rv.toJson(g));
}

TEST(ApiJsonGolden, Fig1EagerSchedule) {
  const graph::Graph g = apps::fig1Csdf();
  const csdf::LivenessResult live =
      csdf::findSchedule(g, csdf::computeRepetitionVector(g));
  ASSERT_TRUE(live.live);
  EXPECT_EQ(live.schedule.toJson(g).dump(),
            "{\"firings\":7,\"runs\":["
            "{\"actor\":\"a3\",\"count\":2},"
            "{\"actor\":\"a1\",\"count\":3},"
            "{\"actor\":\"a2\",\"count\":2}]}");
  expectRoundTrip(live.schedule.toJson(g));
}

TEST(ApiJsonGolden, Fig2SafetyReport) {
  const graph::Graph g = apps::fig2Tpdf();
  const core::AnalysisContext ctx(g);
  const core::RateSafetyReport safety = core::checkRateSafety(ctx);
  ASSERT_TRUE(safety.safe);
  EXPECT_EQ(safety.toJson(g).dump(),
            "{\"safe\":true,\"controls\":[{\"control\":\"C\",\"safe\":true,"
            "\"area\":[\"B\",\"D\",\"E\",\"F\"],\"qG\":\"p\","
            "\"firingsPerLocalIteration\":\"1\"}]}");
  expectRoundTrip(safety.toJson(g));
}

// ---- Round-trip coverage over the full paper corpus ---------------------

void expectAnalysisJsonWellFormed(const graph::Graph& g) {
  const core::AnalysisReport report = core::analyze(g);
  const Value doc = report.toJson(g);
  expectRoundTrip(doc);
  ASSERT_NE(doc.find("bounded"), nullptr) << g.name();
  EXPECT_EQ(doc.find("bounded")->asBool(), report.bounded()) << g.name();
  EXPECT_EQ(doc.find("graph")->asString(), g.name());
  EXPECT_EQ(doc.find("actors")->asInt(),
            static_cast<std::int64_t>(g.actorCount()));
  ASSERT_NE(doc.find("repetition"), nullptr);
  ASSERT_NE(doc.find("safety"), nullptr);
  ASSERT_NE(doc.find("liveness"), nullptr);
  EXPECT_EQ(doc.find("liveness")->find("live")->asBool(), report.live());
}

TEST(ApiJsonCorpus, AnalyzeReportsRoundTrip) {
  expectAnalysisJsonWellFormed(apps::fig1Csdf());
  expectAnalysisJsonWellFormed(apps::fig2Tpdf());
  expectAnalysisJsonWellFormed(apps::fig4aCycle());
  expectAnalysisJsonWellFormed(apps::fig4bCycle());
  expectAnalysisJsonWellFormed(apps::edgeDetectionGraph().graph());
  expectAnalysisJsonWellFormed(apps::ofdmTpdfGraph().graph());
  expectAnalysisJsonWellFormed(
      apps::ofdmTpdfEffective(apps::Constellation::Qam16));
  expectAnalysisJsonWellFormed(apps::ofdmCsdfGraph());
}

TEST(ApiJsonCorpus, BufferReportRoundTrips) {
  const graph::Graph g = apps::ofdmTpdfEffective(apps::Constellation::Qam16);
  const symbolic::Environment env{{"b", 2}, {"N", 8}, {"L", 1}};
  const csdf::BufferReport report =
      csdf::minimumBuffers(g, csdf::computeRepetitionVector(g), env);
  ASSERT_TRUE(report.ok);
  const Value doc = report.toJson(g);
  expectRoundTrip(doc);
  EXPECT_EQ(doc.find("total")->asInt(), report.total());
  EXPECT_EQ(doc.find("channels")->size(), g.channelCount());
}

TEST(ApiJsonCorpus, CanonicalPeriodAndListScheduleRoundTrip) {
  const graph::Graph g = apps::fig2Tpdf();
  const symbolic::Environment env{{"p", 2}};
  const sched::CanonicalPeriod cp(core::AnalysisContext(g), env);
  const Value periodDoc = cp.toJson();
  expectRoundTrip(periodDoc);
  EXPECT_EQ(periodDoc.find("size")->asInt(),
            static_cast<std::int64_t>(cp.size()));
  EXPECT_EQ(periodDoc.find("nodes")->size(), cp.size());

  const sched::ListSchedule ls = sched::listSchedule(cp, sched::Platform{});
  const Value lsDoc = ls.toJson(cp);
  expectRoundTrip(lsDoc);
  EXPECT_EQ(lsDoc.find("entries")->size(), cp.size());
  EXPECT_EQ(lsDoc.find("makespan")->asDouble(), ls.makespan);
}

TEST(ApiJsonCorpus, SimResultWithTraceRoundTrips) {
  const core::TpdfGraph model = apps::fig2TpdfModel();
  sim::Simulator simulator(model, symbolic::Environment{{"p", 2}});
  sim::SimOptions options;
  options.recordTrace = true;
  const sim::SimResult result = simulator.run(options);
  ASSERT_TRUE(result.ok);
  const Value doc = result.toJson(model.graph());
  expectRoundTrip(doc);
  EXPECT_EQ(doc.find("totalFirings")->asInt(), result.totalFirings);
  EXPECT_EQ(doc.find("trace")->size(), result.trace.size());
  EXPECT_EQ(doc.find("actors")->size(), model.graph().actorCount());
}

TEST(ApiJsonCorpus, BatchResultRoundTrips) {
  std::vector<graph::Graph> graphs;
  graphs.push_back(apps::fig1Csdf());
  graphs.push_back(apps::fig2Tpdf());
  const core::BatchResult result = core::analyzeBatch(graphs);
  const Value doc = result.toJson();
  expectRoundTrip(doc);
  EXPECT_EQ(doc.find("total")->asInt(), 2);
  EXPECT_EQ(doc.find("bounded")->asInt(), 2);
  EXPECT_EQ(doc.find("entries")->size(), 2u);
}

TEST(ApiJsonCorpus, GraphStructureRoundTrips) {
  for (const graph::Graph& g :
       {apps::fig1Csdf(), apps::fig2Tpdf(),
        apps::ofdmTpdfGraph().graph()}) {
    const Value doc = io::toJson(g);
    expectRoundTrip(doc);
    EXPECT_EQ(doc.find("name")->asString(), g.name());
    EXPECT_EQ(doc.find("actors")->size(), g.actorCount());
    EXPECT_EQ(doc.find("channels")->size(), g.channelCount());
  }
}

TEST(ApiJsonCorpus, FacadeResponsesRoundTrip) {
  api::Session session;
  api::LoadRequest load;
  load.text = io::writeGraph(apps::fig2Tpdf());
  const api::LoadResponse loaded = session.load(load);
  ASSERT_TRUE(loaded.ok());
  expectRoundTrip(loaded.toJson());

  api::AnalyzeRequest analyzeReq;
  analyzeReq.graphId = loaded.id;
  const api::AnalyzeResponse analyzed = session.analyze(analyzeReq);
  expectRoundTrip(analyzed.toJson(session.graph(loaded.id)));

  api::ScheduleRequest scheduleReq;
  scheduleReq.graphId = loaded.id;
  expectRoundTrip(
      session.schedule(scheduleReq).toJson(session.graph(loaded.id)));

  api::MapRequest mapReq;
  mapReq.graphId = loaded.id;
  expectRoundTrip(session.map(mapReq).toJson());

  api::SimulateRequest simReq;
  simReq.graphId = loaded.id;
  expectRoundTrip(session.simulate(simReq).toJson(session.graph(loaded.id)));
}

TEST(ApiJsonCorpus, VersionRoundTrips) {
  const api::Version& v = api::version();
  expectRoundTrip(v.toJson());
  EXPECT_EQ(v.toJson().find("semver")->asString(), v.semver);
  EXPECT_FALSE(v.gitDescribe.empty());
}

TEST(ApiJsonCorpus, DiagnosticEscapingSurvivesHostileText) {
  api::Diagnostic d;
  d.code = "parse-error";
  d.message = "quote \" backslash \\ newline \n tab \t end";
  d.file = "weird \"name\".tpdf";
  d.line = 1;
  d.column = 2;
  expectRoundTrip(d.toJson());
}

}  // namespace
}  // namespace tpdf
