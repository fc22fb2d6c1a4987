// JSON rendering of the façade responses (requests.hpp).
//
// Every response document leads with the same two members — "status"
// and "diagnostics" — followed by the operation's payload; `tpdfc
// --json` and `tpdfd` write these members straight into their envelope.
// Payload members are emitted only when the operation actually produced
// them, so a failed request never serializes half-initialized reports.
#include "api/requests.hpp"

namespace tpdf::api {

namespace {

/// True when the operation ran far enough for result payloads to exist.
bool ran(const Response& response) {
  return response.status == Status::Ok ||
         response.status == Status::AnalysisNegative;
}

}  // namespace

void LoadResponse::write(support::json::Writer& w) const {
  Response::write(w);
  if (ok()) {
    w.member("id", id).member("graph", graphName);
    w.member("actors", actorCount).member("channels", channelCount);
    w.key("params").beginArray();
    for (const std::string& p : params) w.value(p);
    w.endArray();
  }
}

void AnalyzeResponse::write(support::json::Writer& w,
                            const graph::Graph* g) const {
  Response::write(w);
  w.member("graphId", graphId);
  if (analysisRan && g != nullptr) report.write(w.key("report"), *g);
}

void ScheduleResponse::write(support::json::Writer& w,
                             const graph::Graph* g) const {
  Response::write(w);
  w.member("graphId", graphId);
  if (!ran(*this) || g == nullptr) return;
  bindings.write(w.key("bindings"));
  w.member("live", result.live);
  if (result.live) {
    result.schedule.write(w.key("schedule"), *g);
    w.key("q").beginArray();
    for (std::size_t i = 0; i < result.q.size(); ++i) {
      w.beginObject().member("actor", g->actors()[i].name);
      w.member("q", result.q[i]).endObject();
    }
    w.endArray();
  }
  if (buffersComputed) buffers.write(w.key("buffers"), *g);
}

void BufferResponse::write(support::json::Writer& w,
                           const graph::Graph* g) const {
  Response::write(w);
  w.member("graphId", graphId);
  if (!ran(*this) || g == nullptr) return;
  bindings.write(w.key("bindings"));
  report.write(w.key("buffers"), *g);
}

void MapContention::write(support::json::Writer& w) const {
  w.beginObject().key("linkUtilization").beginArray();
  for (const LinkUse& l : links) {
    w.beginObject().member("link", l.link).member("transfers", l.transfers);
    w.member("busy", l.busy).member("utilization", l.utilization);
    w.endObject();
  }
  w.endArray().member("maxContendedLink", maxContendedLink);
  w.member("idealPeriod", idealPeriod);
  if (simulatedPeriod > 0.0) {
    w.member("simulatedPeriod", simulatedPeriod);
    w.member("uncontendedPeriod", uncontendedPeriod);
  }
  w.member("contentionSlowdown", slowdown).endObject();
}

void MapResponse::write(support::json::Writer& w) const {
  Response::write(w);
  w.member("graphId", graphId);
  if (!ran(*this) || !period.has_value()) return;
  bindings.write(w.key("bindings"));
  period->write(w.key("period"));
  schedule.write(w.key("mapping"), *period);
  // The platform/contention block exists only for non-ideal platforms,
  // so default (and explicitly ideal) requests stay byte-identical to
  // the pre-platform report (tests/platform_golden_test.cpp).
  if (contention.has_value()) {
    contention->spec.write(w.key("platform"), contention->pes);
    contention->write(w.key("contention"));
  }
}

void SimulateResponse::write(support::json::Writer& w,
                             const graph::Graph* g) const {
  Response::write(w);
  w.member("graphId", graphId);
  if (!simulated || g == nullptr) return;
  bindings.write(w.key("bindings"));
  result.write(w.key("sim"), *g);
}

void SweepResponse::write(support::json::Writer& w) const {
  Response::write(w);
  w.member("graphId", graphId);
  // Same rule as the batch payload: a sweep that never enumerated a
  // point (unknown graph, empty grid, invalid axes) must not serialize
  // an empty-but-clean-looking result — status, the `empty-sweep` /
  // `invalid-request` diagnostic and exit 2 tell the story instead.
  if (!ran || result.points.empty()) return;
  w.member("jobs", jobs).member("elapsedMs", elapsedMs);
  result.write(w.key("sweep"));
}

void BatchResponse::write(support::json::Writer& w) const {
  Response::write(w);
  // The batch payload is meaningful whenever entries were processed —
  // including runs where some entries failed (status input-error with
  // batch-entry diagnostics).  A request that never ran (bad directory,
  // nothing to do) must not serialize an empty-but-clean-looking batch.
  if (!result.entries.empty()) {
    w.member("inputs", inputCount).member("jobs", jobs);
    w.member("elapsedMs", elapsedMs);
    result.write(w.key("batch"));
  }
}

void VerifyResponse::write(support::json::Writer& w) const {
  Response::write(w);
  // Same rule as batch: the payload is meaningful whenever graphs were
  // cross-checked, including runs that found discrepancies or skipped
  // unloadable files; a request that never ran serializes status +
  // diagnostics only.
  if (!report.verdicts.empty()) {
    w.member("inputs", inputCount).member("elapsedMs", elapsedMs);
    report.write(w.key("verify"));
  }
  if (faultInjections > 0) w.member("faultInjections", faultInjections);
}

}  // namespace tpdf::api
