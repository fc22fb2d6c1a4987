// Behaviour tests for the sweep operation of the tpdf::api façade:
// request validation (conflicting/unknown/duplicate axes), the
// empty-sweep contract (no success-looking empty payload), diagnostics
// (truncation warning, unbound-parameter notes, per-point failures),
// façade-vs-direct equivalence and the parse-position threading of rate
// expression errors through load().
#include <gtest/gtest.h>

#include <string>

#include "api/session.hpp"
#include "apps/papergraphs.hpp"
#include "core/analysis.hpp"
#include "core/sweep.hpp"
#include "io/format.hpp"

namespace tpdf::api {
namespace {

// Matched rates per edge: every actor fires once per iteration at any
// (p, q) valuation, so partial bindings and defaults always analyze.
const char* kTwoParam = R"(
graph two {
  param p;
  param q;
  kernel A { out o rates [p]; }
  kernel B { in i rates [p]; out o rates [q]; }
  kernel C { in i rates [q]; }
  channel e1 from A.o to B.i;
  channel e2 from B.o to C.i;
}
)";

std::string loadFig2(Session& session) {
  LoadRequest load;
  load.text = io::writeGraph(apps::fig2Tpdf());
  load.id = "fig2";
  const LoadResponse response = session.load(load);
  EXPECT_TRUE(response.ok());
  return response.id;
}

bool hasDiagnostic(const Response& response, const std::string& code) {
  for (const Diagnostic& d : response.diagnostics) {
    if (d.code == code) return true;
  }
  return false;
}

TEST(ApiSweep, UnknownGraphIsInvalidRequest) {
  Session session;
  SweepRequest request;
  request.graphId = "nope";
  request.axes.push_back(core::SweepAxis::range("p", 1, 4));
  const SweepResponse response = session.sweep(request);
  EXPECT_EQ(response.status, Status::InvalidRequest);
  EXPECT_TRUE(hasDiagnostic(response, "unknown-graph"));
  EXPECT_FALSE(response.ran);
}

TEST(ApiSweep, NoAxesIsInvalidRequest) {
  Session session;
  SweepRequest request;
  request.graphId = loadFig2(session);
  const SweepResponse response = session.sweep(request);
  EXPECT_EQ(response.status, Status::InvalidRequest);
  EXPECT_FALSE(response.ran);
}

TEST(ApiSweep, SweptAndFixedParameterConflictIsInvalidRequest) {
  Session session;
  SweepRequest request;
  request.graphId = loadFig2(session);
  request.axes.push_back(core::SweepAxis::range("p", 1, 4));
  request.fixed.bind("p", 2);
  const SweepResponse response = session.sweep(request);
  EXPECT_EQ(response.status, Status::InvalidRequest);
  ASSERT_TRUE(hasDiagnostic(response, "invalid-request"));
  EXPECT_NE(response.firstError().find("both swept and fixed"),
            std::string::npos);
  EXPECT_FALSE(response.ran);
}

TEST(ApiSweep, DuplicateAndUnknownAxesAreInvalidRequests) {
  Session session;
  const std::string id = loadFig2(session);
  {
    SweepRequest request;
    request.graphId = id;
    request.axes.push_back(core::SweepAxis::range("p", 1, 2));
    request.axes.push_back(core::SweepAxis::range("p", 3, 4));
    EXPECT_EQ(session.sweep(request).status, Status::InvalidRequest);
  }
  {
    SweepRequest request;
    request.graphId = id;
    request.axes.push_back(core::SweepAxis::range("zz", 1, 2));
    EXPECT_EQ(session.sweep(request).status, Status::InvalidRequest);
  }
}

TEST(ApiSweep, ZeroPesIsInvalidRequest) {
  // Like map: a platform without PEs is a usage error (exit 2), not one
  // failed point per grid point.
  Session session;
  SweepRequest request;
  request.graphId = loadFig2(session);
  request.axes.push_back(core::SweepAxis::range("p", 1, 4));
  request.pes = 0;
  const SweepResponse response = session.sweep(request);
  EXPECT_EQ(response.status, Status::InvalidRequest);
  EXPECT_EQ(exitCode(response.status), 2);
  EXPECT_FALSE(response.ran);
  EXPECT_EQ(response.firstError(), "platform must have at least one PE");
}

TEST(ApiSweep, EmptyGridIsRefusedWithEmptySweepDiagnostic) {
  Session session;
  SweepRequest request;
  request.graphId = loadFig2(session);
  request.axes.push_back(core::SweepAxis::range("p", 9, 3));  // lo > hi
  const SweepResponse response = session.sweep(request);
  EXPECT_EQ(response.status, Status::InvalidRequest);  // CLI exit 2
  EXPECT_EQ(exitCode(response.status), 2);
  EXPECT_TRUE(hasDiagnostic(response, "empty-sweep"));
  EXPECT_FALSE(response.ran);
  // The payload is omitted: an empty sweep must not serialize a
  // success-looking document (the BatchResponse::toJson rule).
  const std::string doc = response.toJson().pretty();
  EXPECT_EQ(doc.find("\"sweep\""), std::string::npos);
  EXPECT_NE(doc.find("empty-sweep"), std::string::npos);
}

TEST(ApiSweep, SuccessfulSweepSerializesThePayload) {
  Session session;
  SweepRequest request;
  request.graphId = loadFig2(session);
  request.axes.push_back(core::SweepAxis::range("p", 1, 4));
  const SweepResponse response = session.sweep(request);
  EXPECT_EQ(response.status, Status::Ok);
  EXPECT_TRUE(response.ran);
  EXPECT_EQ(response.result.bounded(), 4u);
  const std::string doc = response.toJson().pretty();
  EXPECT_NE(doc.find("\"sweep\""), std::string::npos);
  EXPECT_NE(doc.find("\"pareto\""), std::string::npos);
}

TEST(ApiSweep, TruncationIsAnExplicitWarning) {
  Session session;
  SweepRequest request;
  request.graphId = loadFig2(session);
  request.axes.push_back(core::SweepAxis::range("p", 1, 100));
  request.maxPoints = 7;
  const SweepResponse response = session.sweep(request);
  EXPECT_EQ(response.status, Status::Ok);  // warning, not an error
  EXPECT_TRUE(hasDiagnostic(response, "sweep-truncated"));
  EXPECT_EQ(response.result.points.size(), 7u);
  EXPECT_TRUE(response.result.truncated);
}

TEST(ApiSweep, UnsweptUnfixedParameterGetsANote) {
  Session session;
  LoadRequest load;
  load.text = kTwoParam;
  const LoadResponse loaded = session.load(load);
  ASSERT_TRUE(loaded.ok());

  SweepRequest request;
  request.graphId = loaded.id;
  request.axes.push_back(core::SweepAxis::list("p", {1, 2}));
  const SweepResponse response = session.sweep(request);
  EXPECT_EQ(response.status, Status::Ok);
  ASSERT_TRUE(hasDiagnostic(response, "unbound-parameter"));
  // The note names q (defaulted), never the swept p.
  for (const Diagnostic& d : response.diagnostics) {
    if (d.code != "unbound-parameter") continue;
    EXPECT_NE(d.message.find("'q'"), std::string::npos);
    EXPECT_EQ(d.message.find("'p'"), std::string::npos);
  }
  // Fixing q instead silences the note.
  SweepRequest fixedRequest = request;
  fixedRequest.fixed.bind("q", 3);
  const SweepResponse fixedResponse = session.sweep(fixedRequest);
  EXPECT_FALSE(hasDiagnostic(fixedResponse, "unbound-parameter"));
}

TEST(ApiSweep, PerPointFailuresBecomeSweepPointDiagnostics) {
  Session session;
  LoadRequest load;
  load.text = R"(
graph neg {
  param p;
  kernel A { out o rates [3-p]; }
  kernel B { in i rates [1]; }
  channel e from A.o to B.i;
}
)";
  const LoadResponse loaded = session.load(load);
  ASSERT_TRUE(loaded.ok());
  SweepRequest request;
  request.graphId = loaded.id;
  request.axes.push_back(core::SweepAxis::list("p", {1, 2, 4}));
  const SweepResponse response = session.sweep(request);
  EXPECT_EQ(response.status, Status::InputError);
  EXPECT_TRUE(hasDiagnostic(response, "sweep-point"));
  EXPECT_TRUE(response.ran);
  EXPECT_EQ(response.result.analyzed(), 2u);
  EXPECT_EQ(response.result.failed(), 1u);
}

TEST(ApiSweep, PointsAgreeWithFacadeAnalyzeAtTheSameBinding) {
  Session session;
  const std::string id = loadFig2(session);
  SweepRequest request;
  request.graphId = id;
  request.axes.push_back(core::SweepAxis::list("p", {1, 2, 5}));
  request.keepReports = true;
  const SweepResponse response = session.sweep(request);
  ASSERT_TRUE(response.ran);
  const graph::Graph* g = session.graph(id);
  ASSERT_NE(g, nullptr);
  for (const core::SweepPoint& point : response.result.points) {
    ASSERT_TRUE(point.ok);
    AnalyzeRequest analyzeRequest;
    analyzeRequest.graphId = id;
    analyzeRequest.bindings = point.bindings;
    const AnalyzeResponse direct = session.analyze(analyzeRequest);
    ASSERT_TRUE(direct.analysisRan);
    EXPECT_EQ(point.report->toJson(*g).pretty(),
              direct.report.toJson(*g).pretty());
  }
}

TEST(ApiSweep, ReusesTheSessionMemoizedContext) {
  Session session;
  const std::string id = loadFig2(session);
  // First request builds the context lazily...
  SweepRequest request;
  request.graphId = id;
  request.axes.push_back(core::SweepAxis::range("p", 1, 3));
  ASSERT_TRUE(session.sweep(request).ran);
  const core::AnalysisContext* ctx = session.context(id);
  ASSERT_NE(ctx, nullptr);
  // ... and every later request (sweep or analyze) reuses that object.
  ASSERT_TRUE(session.sweep(request).ran);
  EXPECT_EQ(session.context(id), ctx);
  AnalyzeRequest analyzeRequest;
  analyzeRequest.graphId = id;
  EXPECT_TRUE(session.analyze(analyzeRequest).analysisRan);
  EXPECT_EQ(session.context(id), ctx);
}

TEST(ApiSweep, JobCountDoesNotChangeTheDocument) {
  Session session;
  const std::string id = loadFig2(session);
  SweepRequest request;
  request.graphId = id;
  request.axes.push_back(core::SweepAxis::range("p", 1, 12));
  request.jobs = 1;
  const std::string serial = session.sweep(request).result.toJson().pretty();
  request.jobs = 8;
  const std::string parallel =
      session.sweep(request).result.toJson().pretty();
  EXPECT_EQ(serial, parallel);
}

// ---- Rate-expression parse positions through the façade ------------------

TEST(ApiLoad, RateExpressionErrorPointsAtTheRealFileLine) {
  Session session;
  LoadRequest load;
  load.text =
      "graph bad {\n"                        // line 1
      "  param p;\n"                         // line 2
      "  kernel A { out o rates [p]; }\n"    // line 3
      "  kernel B { in i rates [2+*3]; }\n"  // line 4: '*' at column 28
      "  channel e1 from A.o to B.i;\n"
      "}\n";
  const LoadResponse response = session.load(load);
  EXPECT_EQ(response.status, Status::InputError);
  ASSERT_FALSE(response.diagnostics.empty());
  const Diagnostic& d = response.diagnostics.front();
  EXPECT_EQ(d.code, "parse-error");
  EXPECT_EQ(d.line, 4);
  EXPECT_EQ(d.column, 28);
}

}  // namespace
}  // namespace tpdf::api
