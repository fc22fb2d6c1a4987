// tpdfc — the TPDF analyzer command line.
//
// A thin shell over the tpdf::api service façade (api/session.hpp):
// every subcommand builds a request, runs it through an api::Session,
// and renders the response as human text or — with the global --json
// flag — as one stable machine-readable JSON document on stdout.
//
//   tpdfc analyze  graph.tpdf [p=4 ...]    consistency/safety/liveness/
//                                          boundedness report
//   tpdfc schedule graph.tpdf [p=4 ...]    one-iteration schedule + buffer
//                                          sizing at a parameter valuation
//   tpdfc map      graph.tpdf pes=4 [..]   canonical period + list schedule
//                                          on an MPPA-like platform
//   tpdfc sim      graph.tpdf [p=4 ...]    discrete-event simulation
//                  [--iterations N] [--trace]
//   tpdfc dot      graph.tpdf              Graphviz rendering
//   tpdfc echo     graph.tpdf              parse + pretty-print round trip
//   tpdfc batch    dir [--jobs N] [p=4..]  analyze every .tpdf in a
//                                          directory on a thread pool
//                                          (`tpdfc --batch dir` still works)
//   tpdfc sweep    graph.tpdf p=1:256[:s]  design-space exploration: analyze
//                  [q=1,2,4] [b=8] [--jobs N] [--cap N] [--analysis-only]
//                                          the cartesian parameter grid over
//                                          one shared analysis context, with
//                                          per-point buffer totals + period
//                                          and the Pareto frontier
//   tpdfc verify   dir|graph.tpdf          differential verification: cross-
//                  [--iterations N]        check the static verdicts against
//                  [--negative-selftest]   the simulator over every .tpdf
//                  [--fault-sweep]         under the directory (recursive);
//                  [--fault-cap N]         any discrepancy exits 1 with a
//                                          replayable graph dump;
//                                          --fault-sweep injects a
//                                          deterministic fault at every
//                                          checkpoint and requires a
//                                          structured diagnostic each time
//   tpdfc scenarios dir                    regenerate the scenario corpus
//                                          (examples/graphs/scenarios/)
//   tpdfc version                          semver + git describe
//
// Client mode: --connect <addr> forwards the subcommand to a running
// tpdfd daemon (unix:/path, tcp:host:port, or a bare socket path)
// instead of running in-process — graph files are sent as inline text,
// so identical inputs from any number of clients share the daemon's
// cached analysis state.  The daemon's envelope prints on stdout and
// its status maps onto the same exit codes.  `tpdfc ping|stats
// --connect <addr>` probe a daemon; `tpdfc loadtest graph.tpdf
// --connect <addr> [--clients N] [--requests M] [--cold-every K]`
// drives a load test and reports latency percentiles, throughput and
// the server-side cache hit rate.
//
// Parameters are given as name=value pairs; unbound parameters default
// to 2 for concrete steps (reported as a note diagnostic).
//
// Global resource governance: --timeout-ms N arms a wall-clock deadline
// and --max-work N a work-unit cap on any analysis-running command.  A
// tripped limit is the stable `resource-limit` outcome (exit 4); for
// sweep/batch/verify the limits apply PER point/entry/file and the run
// continues with partial results.
//
// Exit codes (stable contract, see docs/api.md):
//   0  the request ran and the verdict is positive (analyze: bounded)
//   1  the request ran but the verdict is negative (not bounded,
//      deadlock, no schedule, simulation failure)
//   2  usage / invalid request
//   3  input error (unreadable file, parse error, model error) or an
//      internal fault
//   4  resource limit (deadline, work budget, or cancellation) — the
//      analysis was cut off, not judged
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "api/diagnostics.hpp"
#include "api/session.hpp"
#include "api/version.hpp"
#include "apps/scenarios.hpp"
#include "core/differential.hpp"
#include "core/sweep.hpp"
#include "io/format.hpp"
#include "serve/client.hpp"
#include "support/error.hpp"
#include "support/json.hpp"

using namespace tpdf;

namespace {

constexpr const char* kUsage =
    "usage: tpdfc <analyze|schedule|map|sim|dot|echo> <file.tpdf> "
    "[name=value ...] [pes=N] [--json]\n"
    "       tpdfc map|sim ... [--platform kind[:size][,bw=X][,lat=Y]]\n"
    "             (kind: crossbar|bus|ring|mesh; e.g. mesh:4x4,bw=8,lat=2)\n"
    "       tpdfc sim <file.tpdf> [name=value ...] [--iterations N] "
    "[--trace] [--json]\n"
    "       tpdfc batch <dir> [--jobs N] [name=value ...] [--json]\n"
    "       tpdfc verify <dir|file.tpdf> [name=value ...] [--iterations N]\n"
    "             [--negative-selftest] [--fault-sweep] [--fault-cap N] "
    "[--json]\n"
    "       tpdfc scenarios <dir> [--json]\n"
    "       tpdfc sweep <file.tpdf> name=lo:hi[:step] [name=v1,v2,...] "
    "[name=value ...] [pes=N]\n"
    "             [--jobs N] [--cap N] [--analysis-only] [--json]\n"
    "             [--platform <spec>] [--link-bw v1,v2,...] "
    "[--topologies spec1;spec2]\n"
    "       tpdfc version | --version\n"
    "       tpdfc <analyze|schedule|map|sim|sweep|batch|verify|load> ... "
    "--connect <addr>\n"
    "             forward the request to a tpdfd daemon "
    "(unix:/path | tcp:host:port)\n"
    "       tpdfc ping|stats --connect <addr>        probe a daemon\n"
    "       tpdfc loadtest <file.tpdf> --connect <addr> [--clients N]\n"
    "             [--requests M] [--cold-every K] [--json]\n"
    "global: [--timeout-ms N] [--max-work N] resource limits (per\n"
    "        point/entry/file for sweep/batch/verify)\n"
    "exit codes: 0 ok/bounded, 1 analysis negative, 2 usage, "
    "3 input/parse error,\n"
    "            4 resource limit (deadline/work budget tripped)\n";

struct Cli {
  std::string command;
  std::string input;  // graph file, or directory for batch/verify/scenarios
  bool json = false;
  bool trace = false;
  bool analysisOnly = false;
  /// verify: deliberately under-size every buffer capacity so the
  /// harness must report discrepancies (negative self-test).
  bool negativeSelftest = false;
  /// verify: fault-injection self-test (a fault at every checkpoint
  /// must surface as a structured diagnostic).
  bool faultSweep = false;
  /// verify: cap on injection points per file (0 = every checkpoint).
  std::int64_t faultCap = 0;
  /// Global resource limits (0 = unlimited); per unit for the
  /// multi-input drivers.
  std::int64_t timeoutMs = 0;
  std::int64_t maxWork = 0;
  std::int64_t iterations = 1;
  /// True when --iterations was given (verify defaults differ from sim).
  bool iterationsSet = false;
  std::size_t pes = 4;
  std::size_t jobs = 0;
  std::size_t cap = core::SweepSpec::kDefaultMaxPoints;
  /// name=value pairs, validated but not yet bound (binding can reject
  /// non-positive values, which must surface as a usage diagnostic).
  std::vector<std::pair<std::string, std::int64_t>> bindings;
  /// Swept parameter axes (sweep command: name=lo:hi[:step] / name=v1,v2).
  std::vector<core::SweepAxis> axes;
  /// Platform spec (--platform, e.g. "mesh:4x4,bw=8,lat=2"); empty =
  /// the legacy ideal crossbar over `pes`.
  std::string platform;
  /// Sweep platform axes: --link-bw v1,v2,... and --topologies
  /// spec1;spec2;... (';'-separated because specs contain commas).
  std::vector<double> linkBandwidths;
  std::vector<std::string> topologies;
  /// Client mode: forward the command to this tpdfd address instead of
  /// running in-process (empty = local).
  std::string connect;
  /// loadtest knobs.
  std::size_t clients = 4;
  std::size_t requests = 50;
  /// Every K-th request per client is made cache-cold by appending a
  /// unique comment to the graph text (0 = all requests hot).
  std::size_t coldEvery = 0;
};

/// Writes doc.pretty() to stdout in 64 KiB pieces instead of rendering
/// it into one string first.
void printPretty(const support::json::Value& doc) {
  doc.prettyTo([](std::string_view chunk) {
    std::fwrite(chunk.data(), 1, chunk.size(), stdout);
  });
}

/// Prints the final document: the envelope identifies the tool and the
/// command, then the response members (status, diagnostics, payload)
/// follow verbatim.  The document is taken by value and its members are
/// moved, not copied, into the envelope (a map or sim document can be
/// tens of megabytes), and the envelope is streamed to stdout.
void emitJson(const Cli& cli, support::json::Value responseDoc) {
  auto envelope = support::json::Value::object();
  envelope.set("tool", "tpdfc");
  envelope.set("version", api::version().semver);
  envelope.set("command", cli.command);
  for (auto& [key, value] : responseDoc.members()) {
    envelope.set(key, std::move(value));
  }
  printPretty(envelope);
}

/// Text mode: diagnostics go to stderr, one line each.
void emitDiagnostics(const api::Response& response) {
  for (const api::Diagnostic& d : response.diagnostics) {
    std::fprintf(stderr, "tpdfc: %s\n", d.toString().c_str());
  }
}

/// Renders a response whose text payload was already printed (or that
/// has none), returning the documented exit code.  `toJson` builds the
/// response document and runs only under --json: text mode never builds
/// a document it would not print.
template <typename ToJson>
int finish(const Cli& cli, const api::Response& response, ToJson&& toJson) {
  if (cli.json) {
    emitJson(cli, toJson());
  } else {
    emitDiagnostics(response);
  }
  return api::exitCode(response.status);
}

int usageError(const Cli& cli, const std::string& message) {
  api::Response response;
  response.fail(api::Status::InvalidRequest, "invalid-request", message);
  if (cli.json) {
    auto doc = support::json::Value::object();
    doc.set("status", toString(response.status));
    doc.set("diagnostics", response.diagnosticsJson());
    emitJson(cli, std::move(doc));
  }
  std::fprintf(stderr, "tpdfc: %s\n%s", message.c_str(), kUsage);
  return api::exitCode(response.status);
}

bool parseInt(const std::string& text, std::int64_t& out) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  out = std::strtoll(text.c_str(), &end, 10);
  return errno != ERANGE && end != nullptr && *end == '\0';
}

/// Builds an Environment from the CLI pairs; a non-positive value is
/// reported as a usage diagnostic on `response`.
bool bindAll(const Cli& cli, symbolic::Environment& env,
             api::Response& response) {
  for (const auto& [name, value] : cli.bindings) {
    try {
      env.bind(name, value);
    } catch (const support::Error& e) {
      response.fail(api::Status::InvalidRequest, "invalid-request", e.what());
      return false;
    }
  }
  return true;
}

/// The global --timeout-ms/--max-work flags as request limits.
api::ResourceLimits limitsOf(const Cli& cli) {
  api::ResourceLimits limits;
  limits.timeoutMs = cli.timeoutMs;
  limits.maxWork = cli.maxWork;
  return limits;
}

int runVersion(const Cli& cli) {
  if (cli.json) {
    auto doc = support::json::Value::object();
    doc.set("status", "ok");
    doc.set("diagnostics", support::json::Value::array());
    doc.set("release", api::version().toJson());
    emitJson(cli, std::move(doc));
  } else {
    std::printf("%s\n", api::version().toString().c_str());
  }
  return 0;
}

int runBatch(const Cli& cli) {
  api::BatchRequest request;
  request.directory = cli.input;
  request.jobs = cli.jobs;
  request.limits = limitsOf(cli);
  {
    api::Response usage;
    if (!bindAll(cli, request.bindings, usage)) {
      return usageError(cli, usage.firstError());
    }
  }
  api::Session session;
  const api::BatchResponse response = session.batch(request);
  if (cli.json) {
    emitJson(cli, response.toJson());
    return api::exitCode(response.status);
  }
  emitDiagnostics(response);
  if (response.inputCount > 0) {
    const core::BatchResult& result = response.result;
    std::printf("batch: %zu graphs from %s\n", result.entries.size(),
                cli.input.c_str());
    std::printf("  bounded:     %zu\n", result.bounded());
    std::printf("  not bounded: %zu\n", result.analyzed() - result.bounded());
    std::printf("  errors:      %zu\n", result.failed());
    if (cli.jobs == 0) {
      std::printf("  elapsed:     %.1f ms (auto jobs)\n", response.elapsedMs);
    } else {
      std::printf("  elapsed:     %.1f ms (%zu jobs)\n", response.elapsedMs,
                  cli.jobs);
    }
  }
  return api::exitCode(response.status);
}

int runVerify(const Cli& cli) {
  api::VerifyRequest request;
  // A single .tpdf replay file is accepted in place of a corpus
  // directory (the replay workflow of docs/differential-testing.md).
  if (std::filesystem::is_directory(cli.input)) {
    request.directory = cli.input;
  } else {
    request.files.push_back(cli.input);
  }
  if (cli.iterationsSet) request.options.iterations = cli.iterations;
  request.options.tamperBufferCapacities = cli.negativeSelftest;
  request.limits = limitsOf(cli);
  request.faultSweep = cli.faultSweep;
  request.faultSweepLimit = cli.faultCap;
  {
    api::Response usage;
    if (!bindAll(cli, request.bindings, usage)) {
      return usageError(cli, usage.firstError());
    }
  }
  api::Session session;
  const api::VerifyResponse response = session.verify(request);
  if (cli.json) {
    emitJson(cli, response.toJson());
    return api::exitCode(response.status);
  }
  emitDiagnostics(response);
  const core::DiffReport& report = response.report;
  if (!report.verdicts.empty()) {
    std::size_t skipped = 0;
    for (const core::GraphVerdict& v : report.verdicts) {
      skipped += v.skipped.size();
    }
    std::printf("verify: %zu graphs from %s\n", report.verdicts.size(),
                cli.input.c_str());
    std::printf("  checks run:    %zu\n", report.checksRun());
    std::printf("  skipped:       %zu\n", skipped);
    std::printf("  discrepancies: %zu\n", report.records.size());
    if (!report.records.empty()) {
      std::printf("re-run with --json for replayable graph dumps\n");
    }
  }
  return api::exitCode(response.status);
}

int runScenarios(const Cli& cli) {
  try {
    apps::writeScenarioFiles(cli.input);
  } catch (const std::exception& e) {
    api::Response response;
    response.fail(api::Status::InputError, "io-error", e.what(), cli.input);
    if (cli.json) {
      auto doc = support::json::Value::object();
      doc.set("status", toString(response.status));
      doc.set("diagnostics", response.diagnosticsJson());
      emitJson(cli, std::move(doc));
    }
    std::fprintf(stderr, "tpdfc: %s\n", e.what());
    return api::exitCode(response.status);
  }
  const std::vector<apps::Scenario> corpus = apps::scenarioCorpus();
  if (cli.json) {
    auto doc = support::json::Value::object();
    doc.set("status", "ok");
    doc.set("diagnostics", support::json::Value::array());
    doc.set("directory", cli.input);
    auto list = support::json::Value::array();
    for (const apps::Scenario& s : corpus) {
      auto entry = support::json::Value::object();
      entry.set("name", s.name);
      entry.set("family", s.family);
      entry.set("file", cli.input + "/" + s.name + ".tpdf");
      list.push(std::move(entry));
    }
    doc.set("scenarios", std::move(list));
    emitJson(cli, std::move(doc));
  } else {
    std::printf("wrote %zu scenario graphs to %s\n", corpus.size(),
                cli.input.c_str());
  }
  return 0;
}

/// "1,2,3" or "1,2,3,..,64" — the sweep's text rendering of an axis.
/// Lists the actual values (a list axis is not a contiguous range, so
/// "[lo..hi]" would misstate which points were analyzed).
std::string axisValuesText(const core::SweepAxis& axis) {
  constexpr std::size_t kShown = 8;
  std::string out;
  const std::size_t shown = std::min(axis.values.size(), kShown);
  for (std::size_t i = 0; i < shown; ++i) {
    if (i != 0) out += ",";
    out += std::to_string(axis.values[i]);
  }
  if (shown < axis.values.size()) {
    out += ",..," + std::to_string(axis.values.back());
  }
  return out;
}

/// "p=4 q=2" — the sweep's text rendering of one point's bindings.
std::string bindingsText(const symbolic::Environment& env) {
  std::string out;
  for (const auto& [name, value] : env.bindings()) {
    if (!out.empty()) out += " ";
    out += name + "=" + std::to_string(value);
  }
  return out;
}

int runSweep(const Cli& cli, api::Session& session, const std::string& id) {
  api::SweepRequest request;
  request.graphId = id;
  request.limits = limitsOf(cli);
  request.axes = cli.axes;
  request.jobs = cli.jobs;
  request.pes = cli.pes;
  request.platform = cli.platform;
  request.linkBandwidths = cli.linkBandwidths;
  request.topologies = cli.topologies;
  request.maxPoints = cli.cap;
  if (cli.analysisOnly) {
    request.computeBuffers = false;
    request.computePeriod = false;
  }
  {
    api::Response usage;
    if (!bindAll(cli, request.fixed, usage)) {
      return usageError(cli, usage.firstError());
    }
  }
  const api::SweepResponse response = session.sweep(request);
  if (!cli.json && response.ran) {
    const core::SweepResult& r = response.result;
    std::printf("sweep: %zu points over graph '%s'", r.points.size(),
                response.graphName.c_str());
    if (r.truncated) {
      std::printf(" (grid %zu, truncated)", r.gridSize);
    }
    std::printf("\n");
    for (const core::SweepAxis& axis : r.axes) {
      std::printf("  axis %-8s %zu values [%s]\n", axis.param.c_str(),
                  axis.values.size(), axisValuesText(axis).c_str());
    }
    std::printf("  bounded:     %zu\n", r.bounded());
    std::printf("  not bounded: %zu\n", r.analyzed() - r.bounded());
    std::printf("  errors:      %zu\n", r.failed());
    if (cli.jobs == 0) {
      std::printf("  elapsed:     %.1f ms (auto jobs)\n", response.elapsedMs);
    } else {
      std::printf("  elapsed:     %.1f ms (%zu jobs)\n", response.elapsedMs,
                  cli.jobs);
    }
    if (!r.frontier.empty()) {
      std::printf("pareto frontier (buffer total vs. period):\n");
      for (const std::size_t i : r.frontier) {
        const core::SweepPoint& p = r.points[i];
        std::printf("  %-24s buffers=%-8lld period=%g\n",
                    bindingsText(p.bindings).c_str(),
                    static_cast<long long>(p.bufferTotal), p.period);
      }
    }
  }
  return finish(cli, response, [&] { return response.toJson(); });
}

int runAnalyze(const Cli& cli, api::Session& session, const std::string& id) {
  api::AnalyzeRequest request;
  request.graphId = id;
  request.limits = limitsOf(cli);
  {
    api::Response usage;
    if (!bindAll(cli, request.bindings, usage)) {
      return usageError(cli, usage.firstError());
    }
  }
  const api::AnalyzeResponse response = session.analyze(request);
  if (!cli.json && response.analysisRan) {
    std::printf("%s", response.report.toString(*session.graph(id)).c_str());
  }
  return finish(cli, response,
                [&] { return response.toJson(session.graph(id)); });
}

int runSchedule(const Cli& cli, api::Session& session, const std::string& id) {
  api::ScheduleRequest request;
  request.graphId = id;
  request.limits = limitsOf(cli);
  {
    api::Response usage;
    if (!bindAll(cli, request.bindings, usage)) {
      return usageError(cli, usage.firstError());
    }
  }
  const api::ScheduleResponse response = session.schedule(request);
  if (!cli.json) {
    const graph::Graph* g = session.graph(id);
    if (response.result.live && g != nullptr) {
      std::printf("schedule: %s\n",
                  response.result.schedule.toString(*g).c_str());
      if (response.buffersComputed) {
        std::printf("buffers:  %lld tokens total\n",
                    static_cast<long long>(response.buffers.total()));
        for (const graph::Channel& c : g->channels()) {
          std::printf("  %-12s %lld\n", c.name.str().c_str(),
                      static_cast<long long>(response.buffers.of(c.id)));
        }
      }
    } else if (!response.result.live && response.status ==
                                            api::Status::AnalysisNegative) {
      std::printf("no schedule: %s\n", response.result.diagnostic.c_str());
    }
  }
  return finish(cli, response,
                [&] { return response.toJson(session.graph(id)); });
}

int runMap(const Cli& cli, api::Session& session, const std::string& id) {
  api::MapRequest request;
  request.graphId = id;
  request.pes = cli.pes;
  request.platform = cli.platform;
  request.limits = limitsOf(cli);
  {
    api::Response usage;
    if (!bindAll(cli, request.bindings, usage)) {
      return usageError(cli, usage.firstError());
    }
  }
  const api::MapResponse response = session.map(request);
  if (!cli.json && response.period.has_value()) {
    std::printf("canonical period: %zu occurrences\n",
                response.period->size());
    std::printf("%s", response.schedule.toString(*response.period).c_str());
  }
  return finish(cli, response, [&] { return response.toJson(); });
}

int runSim(const Cli& cli, api::Session& session, const std::string& id) {
  api::SimulateRequest request;
  request.graphId = id;
  request.limits = limitsOf(cli);
  request.platform = cli.platform;
  request.options.iterations = cli.iterations;
  request.options.recordTrace = cli.trace;
  {
    api::Response usage;
    if (!bindAll(cli, request.bindings, usage)) {
      return usageError(cli, usage.firstError());
    }
  }
  const api::SimulateResponse response = session.simulate(request);
  if (!cli.json && response.simulated) {
    const sim::SimResult& r = response.result;
    std::printf("simulated %lld firings to t=%g (%s)\n",
                static_cast<long long>(r.totalFirings), r.endTime,
                r.returnedToInitialState ? "returned to initial state"
                                         : "did not return to initial state");
    if (cli.trace) {
      std::printf("%s", r.renderTrace(*session.graph(id)).c_str());
    }
  }
  return finish(cli, response,
                [&] { return response.toJson(session.graph(id)); });
}

int runDot(const Cli& cli, api::Session& session, const std::string& id) {
  const graph::Graph& g = *session.graph(id);
  if (cli.json) {
    auto doc = support::json::Value::object();
    doc.set("status", "ok");
    doc.set("diagnostics", support::json::Value::array());
    doc.set("dot", g.toDot());
    emitJson(cli, std::move(doc));
  } else {
    std::printf("%s", g.toDot().c_str());
  }
  return 0;
}

int runEcho(const Cli& cli, api::Session& session, const std::string& id) {
  const graph::Graph& g = *session.graph(id);
  if (cli.json) {
    auto doc = support::json::Value::object();
    doc.set("status", "ok");
    doc.set("diagnostics", support::json::Value::array());
    doc.set("tpdf", io::writeGraph(g));
    doc.set("graph", io::toJson(g));
    emitJson(cli, std::move(doc));
  } else {
    std::printf("%s", io::writeGraph(g).c_str());
  }
  return 0;
}

// ---- client mode (--connect): forward requests to a tpdfd daemon ----

/// Reads the whole file; failures become an input-error diagnostic.
bool slurpFile(const std::string& path, std::string& out,
               api::Response& bad) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    bad.fail(api::Status::InputError, "io-error",
             "cannot open '" + path + "'", path);
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

/// Prints a daemon envelope and maps its status onto the exit-code
/// contract (an unparseable response is an internal error: exit 3).
int emitEnvelope(const std::string& line) {
  try {
    const support::json::Value doc = support::json::parse(line);
    printPretty(doc);
    const support::json::Value* status = doc.find("status");
    if (status != nullptr && status->isString()) {
      if (const auto s = api::statusFromString(status->asString())) {
        return api::exitCode(*s);
      }
    }
    return api::exitCode(api::Status::InternalError);
  } catch (const support::Error&) {
    std::printf("%s\n", line.c_str());
    return api::exitCode(api::Status::InternalError);
  }
}

int transportError(const Cli& cli, const std::string& what) {
  api::Response response;
  response.fail(api::Status::InputError, "connect-error", what, cli.connect);
  if (cli.json) {
    auto doc = support::json::Value::object();
    doc.set("status", toString(response.status));
    doc.set("diagnostics", response.diagnosticsJson());
    emitJson(cli, std::move(doc));
  }
  std::fprintf(stderr, "tpdfc: %s\n", what.c_str());
  return api::exitCode(response.status);
}

/// Builds the wire request for the current command; false with a usage
/// message when the command cannot be forwarded.
bool buildWireRequest(const Cli& cli, support::json::Value& request,
                      api::Response& bad, std::string& usage) {
  const std::string command = cli.command == "sim" ? "simulate" : cli.command;
  request = support::json::Value::object();
  request.set("command", command);

  if (command == "ping" || command == "stats") return true;

  if (command == "batch" || command == "verify") {
    // Corpus paths are server-side: the daemon scans its own filesystem.
    if (command == "verify" && !std::filesystem::is_directory(cli.input)) {
      auto files = support::json::Value::array();
      files.push(cli.input);
      request.set("files", std::move(files));
    } else {
      request.set("directory", cli.input);
    }
  } else if (command == "analyze" || command == "schedule" ||
             command == "map" || command == "simulate" ||
             command == "sweep" || command == "load") {
    // Graph files travel as inline text so identical sources share the
    // daemon's cached analysis state regardless of client-side paths.
    std::string text;
    if (!slurpFile(cli.input, text, bad)) return true;  // bad carries it
    request.set("graph", std::move(text));
  } else {
    usage = "command '" + cli.command + "' is not supported over --connect";
    return false;
  }

  if (!cli.bindings.empty()) {
    auto bindings = support::json::Value::object();
    for (const auto& [name, value] : cli.bindings) {
      bindings.set(name, value);
    }
    request.set("bindings", std::move(bindings));
  }
  if (cli.timeoutMs > 0 || cli.maxWork > 0) {
    auto limits = support::json::Value::object();
    if (cli.timeoutMs > 0) limits.set("timeout-ms", cli.timeoutMs);
    if (cli.maxWork > 0) limits.set("max-work", cli.maxWork);
    request.set("limits", std::move(limits));
  }
  if (command == "map") request.set("pes", static_cast<std::int64_t>(cli.pes));
  if (command == "simulate") request.set("iterations", cli.iterations);
  if ((command == "map" || command == "simulate" || command == "sweep") &&
      !cli.platform.empty()) {
    request.set("platform", cli.platform);
  }
  if (command == "sweep") {
    auto axes = support::json::Value::object();
    for (const core::SweepAxis& axis : cli.axes) {
      std::string values;
      for (std::size_t i = 0; i < axis.values.size(); ++i) {
        if (i != 0) values += ",";
        values += std::to_string(axis.values[i]);
      }
      axes.set(axis.param, values);
    }
    request.set("axes", std::move(axes));
    request.set("max-points", static_cast<std::int64_t>(cli.cap));
    if (cli.jobs > 0) request.set("jobs", static_cast<std::int64_t>(cli.jobs));
    request.set("pes", static_cast<std::int64_t>(cli.pes));
    if (!cli.linkBandwidths.empty()) {
      auto bws = support::json::Value::array();
      for (const double bw : cli.linkBandwidths) bws.push(bw);
      request.set("link-bandwidths", std::move(bws));
    }
    if (!cli.topologies.empty()) {
      auto topos = support::json::Value::array();
      for (const std::string& t : cli.topologies) topos.push(t);
      request.set("topologies", std::move(topos));
    }
  }
  if ((command == "batch") && cli.jobs > 0) {
    request.set("jobs", static_cast<std::int64_t>(cli.jobs));
  }
  return true;
}

int runLoadtest(const Cli& cli) {
  std::string text;
  {
    api::Response bad;
    if (!slurpFile(cli.input, text, bad)) {
      if (cli.json) {
        auto doc = support::json::Value::object();
        doc.set("status", toString(bad.status));
        doc.set("diagnostics", bad.diagnosticsJson());
        emitJson(cli, std::move(doc));
      }
      std::fprintf(stderr, "tpdfc: %s\n", bad.firstError().c_str());
      return api::exitCode(bad.status);
    }
  }

  struct Sample {
    double latencyUs = 0;
    double analysisUs = 0;
    bool cached = false;
    bool ok = false;
  };
  std::vector<std::vector<Sample>> perClient(cli.clients);
  std::mutex errorMutex;
  std::string firstError;

  const auto wallStart = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(cli.clients);
  for (std::size_t c = 0; c < cli.clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        serve::Client client = serve::Client::connect(cli.connect);
        perClient[c].reserve(cli.requests);
        for (std::size_t i = 0; i < cli.requests; ++i) {
          std::string body = text;
          if (cli.coldEvery != 0 && i % cli.coldEvery == 0) {
            // A unique trailing comment changes the content hash but
            // not the graph: a guaranteed cache-cold request.
            body += "\n# cold " + std::to_string(c) + "-" +
                    std::to_string(i) + "\n";
          }
          auto request = support::json::Value::object();
          request.set("command", "analyze");
          request.set("graph", std::move(body));
          if (cli.timeoutMs > 0 || cli.maxWork > 0) {
            auto limits = support::json::Value::object();
            if (cli.timeoutMs > 0) limits.set("timeout-ms", cli.timeoutMs);
            if (cli.maxWork > 0) limits.set("max-work", cli.maxWork);
            request.set("limits", std::move(limits));
          }
          const auto start = std::chrono::steady_clock::now();
          const std::string reply = client.request(request.dump());
          Sample sample;
          sample.latencyUs = std::chrono::duration<double, std::micro>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
          const support::json::Value doc = support::json::parse(reply);
          const support::json::Value* status = doc.find("status");
          sample.ok = status != nullptr && status->isString() &&
                      status->asString() == "ok";
          if (const support::json::Value* serveInfo = doc.find("serve")) {
            if (const auto* cached = serveInfo->find("cached")) {
              sample.cached = cached->isBool() && cached->asBool();
            }
            if (const auto* us = serveInfo->find("analysisUs")) {
              sample.analysisUs =
                  us->isDouble() ? us->asDouble()
                                 : static_cast<double>(us->asInt());
            }
          }
          perClient[c].push_back(sample);
        }
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(errorMutex);
        if (firstError.empty()) firstError = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsedMs = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - wallStart)
                               .count();

  if (!firstError.empty()) return transportError(cli, firstError);

  std::vector<Sample> samples;
  for (const auto& list : perClient) {
    samples.insert(samples.end(), list.begin(), list.end());
  }
  if (samples.empty()) return transportError(cli, "no samples collected");

  std::vector<double> latencies;
  latencies.reserve(samples.size());
  std::size_t okCount = 0;
  std::size_t cachedCount = 0;
  double analysisSum = 0;
  double analysisHotSum = 0;
  std::size_t analysisHotCount = 0;
  for (const Sample& s : samples) {
    latencies.push_back(s.latencyUs);
    okCount += s.ok ? 1 : 0;
    cachedCount += s.cached ? 1 : 0;
    analysisSum += s.analysisUs;
    if (s.cached) {
      analysisHotSum += s.analysisUs;
      ++analysisHotCount;
    }
  }
  std::sort(latencies.begin(), latencies.end());
  const auto percentile = [&](double p) {
    const std::size_t index = std::min(
        latencies.size() - 1,
        static_cast<std::size_t>(p * static_cast<double>(latencies.size())));
    return latencies[index];
  };
  const double throughput =
      elapsedMs > 0 ? static_cast<double>(samples.size()) * 1000.0 / elapsedMs
                    : 0.0;
  const double hitRate =
      static_cast<double>(cachedCount) / static_cast<double>(samples.size());
  const double hotAnalysisUs =
      analysisHotCount > 0
          ? analysisHotSum / static_cast<double>(analysisHotCount)
          : 0.0;

  // One follow-up probe for the server-wide cache counters.
  support::json::Value cacheStats = support::json::Value::object();
  try {
    serve::Client probe = serve::Client::connect(cli.connect);
    auto statsRequest = support::json::Value::object();
    statsRequest.set("command", "stats");
    const support::json::Value doc =
        support::json::parse(probe.request(statsRequest.dump()));
    if (const auto* cache = doc.find("cache")) cacheStats = *cache;
  } catch (const std::exception&) {
    // Stats are best-effort; the load numbers above already stand.
  }

  api::Response response;
  if (okCount != samples.size()) {
    response.fail(api::Status::AnalysisNegative, "loadtest-failures",
                  std::to_string(samples.size() - okCount) + " of " +
                      std::to_string(samples.size()) +
                      " requests did not return ok");
  }

  auto doc = support::json::Value::object();
  doc.set("status", toString(response.status));
  doc.set("diagnostics", response.diagnosticsJson());
  doc.set("clients", static_cast<std::int64_t>(cli.clients));
  doc.set("requestsPerClient", static_cast<std::int64_t>(cli.requests));
  doc.set("requests", static_cast<std::int64_t>(samples.size()));
  doc.set("elapsedMs", elapsedMs);
  doc.set("throughputRps", throughput);
  auto latency = support::json::Value::object();
  latency.set("p50Us", percentile(0.50));
  latency.set("p90Us", percentile(0.90));
  latency.set("p99Us", percentile(0.99));
  latency.set("maxUs", latencies.back());
  doc.set("latency", std::move(latency));
  doc.set("cacheHitRate", hitRate);
  doc.set("serverAnalysisUsMean",
          analysisSum / static_cast<double>(samples.size()));
  doc.set("serverAnalysisUsHot", hotAnalysisUs);
  doc.set("cache", std::move(cacheStats));

  if (!cli.json) {
    std::printf("loadtest: %zu clients x %zu requests against %s\n",
                cli.clients, cli.requests, cli.connect.c_str());
    std::printf("  throughput:  %.0f req/s (%.1f ms wall)\n", throughput,
                elapsedMs);
    std::printf("  latency us:  p50=%.0f p90=%.0f p99=%.0f max=%.0f\n",
                percentile(0.50), percentile(0.90), percentile(0.99),
                latencies.back());
    std::printf("  cache hits:  %.1f%% of requests\n", hitRate * 100.0);
    std::printf("  server cost: %.1f us/request hot (%.1f us mean)\n",
                hotAnalysisUs,
                analysisSum / static_cast<double>(samples.size()));
  }
  return finish(cli, response, [&] { return std::move(doc); });
}

int runConnect(const Cli& cli) {
  if (cli.command == "loadtest") return runLoadtest(cli);
  support::json::Value request;
  api::Response bad;
  std::string usage;
  if (!buildWireRequest(cli, request, bad, usage)) {
    return usageError(cli, usage);
  }
  if (!bad.ok()) {
    if (cli.json) {
      auto doc = support::json::Value::object();
      doc.set("status", toString(bad.status));
      doc.set("diagnostics", bad.diagnosticsJson());
      emitJson(cli, std::move(doc));
    }
    std::fprintf(stderr, "tpdfc: %s\n", bad.firstError().c_str());
    return api::exitCode(bad.status);
  }
  try {
    serve::Client client = serve::Client::connect(cli.connect);
    return emitEnvelope(client.request(request.dump()));
  } catch (const support::Error& e) {
    return transportError(cli, e.what());
  }
}

int run(const Cli& cli) {
  if (cli.command == "version") return runVersion(cli);
  if (!cli.connect.empty() || cli.command == "loadtest" ||
      cli.command == "ping" || cli.command == "stats") {
    return runConnect(cli);
  }
  if (cli.command == "batch") return runBatch(cli);
  if (cli.command == "verify") return runVerify(cli);
  if (cli.command == "scenarios") return runScenarios(cli);

  api::Session session;
  api::LoadRequest loadRequest;
  loadRequest.path = cli.input;
  const api::LoadResponse loaded = session.load(loadRequest);
  if (!loaded.ok()) {
    return finish(cli, loaded, [&] { return loaded.toJson(); });
  }

  if (cli.command == "analyze") return runAnalyze(cli, session, loaded.id);
  if (cli.command == "sweep") return runSweep(cli, session, loaded.id);
  if (cli.command == "schedule") return runSchedule(cli, session, loaded.id);
  if (cli.command == "map") return runMap(cli, session, loaded.id);
  if (cli.command == "sim") return runSim(cli, session, loaded.id);
  if (cli.command == "dot") return runDot(cli, session, loaded.id);
  if (cli.command == "echo") return runEcho(cli, session, loaded.id);
  return usageError(cli, "unknown command '" + cli.command + "'");
}

/// Returns false on malformed arguments; `error` explains why.
///
/// Positional layout mirrors the pre-façade CLI: the first non-flag
/// token is the command, the second is the input path — always, even
/// when the path contains '=' — and only tokens *after* the input are
/// parsed as name=value bindings.
bool parseArgs(int argc, char** argv, Cli& cli, std::string& error) {
  bool haveCommand = false;
  bool haveInput = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      cli.json = true;
    } else if (arg == "--trace") {
      cli.trace = true;
    } else if (arg == "--version") {
      cli.command = "version";
      haveCommand = true;
    } else if (arg == "--batch") {
      // Back-compat spelling of the batch subcommand.
      cli.command = "batch";
      haveCommand = true;
    } else if (arg == "--analysis-only") {
      cli.analysisOnly = true;
    } else if (arg == "--negative-selftest") {
      cli.negativeSelftest = true;
    } else if (arg == "--fault-sweep") {
      cli.faultSweep = true;
    } else if (arg == "--connect") {
      if (i + 1 >= argc) {
        error = "--connect needs a daemon address (unix:/path or "
                "tcp:host:port)";
        return false;
      }
      cli.connect = argv[++i];
    } else if (arg == "--platform") {
      if (i + 1 >= argc) {
        error = "--platform needs a spec "
                "(kind[:size][,bw=X][,lat=Y], e.g. mesh:4x4,bw=8,lat=2)";
        return false;
      }
      cli.platform = argv[++i];
    } else if (arg == "--link-bw") {
      if (i + 1 >= argc) {
        error = "--link-bw needs a comma-separated list of bandwidths";
        return false;
      }
      const std::string list = argv[++i];
      for (std::size_t pos = 0; pos <= list.size();) {
        std::size_t comma = list.find(',', pos);
        if (comma == std::string::npos) comma = list.size();
        const std::string item = list.substr(pos, comma - pos);
        char* end = nullptr;
        const double bw = std::strtod(item.c_str(), &end);
        if (item.empty() || end == nullptr || *end != '\0' || !(bw > 0.0)) {
          error = "--link-bw values must be positive numbers, got '" +
                  item + "'";
          return false;
        }
        cli.linkBandwidths.push_back(bw);
        pos = comma + 1;
      }
    } else if (arg == "--topologies") {
      if (i + 1 >= argc) {
        error = "--topologies needs a ';'-separated list of platform specs";
        return false;
      }
      const std::string list = argv[++i];
      for (std::size_t pos = 0; pos <= list.size();) {
        std::size_t semi = list.find(';', pos);
        if (semi == std::string::npos) semi = list.size();
        const std::string item = list.substr(pos, semi - pos);
        if (item.empty()) {
          error = "--topologies has an empty spec entry";
          return false;
        }
        cli.topologies.push_back(item);
        pos = semi + 1;
      }
    } else if (arg == "--clients" || arg == "--requests" ||
               arg == "--cold-every") {
      if (i + 1 >= argc) {
        error = arg + " needs a value";
        return false;
      }
      std::int64_t value = 0;
      if (!parseInt(argv[++i], value) || value <= 0) {
        error = arg + " must be a positive integer";
        return false;
      }
      if (arg == "--clients") {
        cli.clients = static_cast<std::size_t>(value);
      } else if (arg == "--requests") {
        cli.requests = static_cast<std::size_t>(value);
      } else {
        cli.coldEvery = static_cast<std::size_t>(value);
      }
    } else if (arg == "--jobs" || arg == "--iterations" || arg == "--cap" ||
               arg == "--timeout-ms" || arg == "--max-work" ||
               arg == "--fault-cap") {
      if (i + 1 >= argc) {
        error = arg + " needs a value";
        return false;
      }
      std::int64_t value = 0;
      if (!parseInt(argv[++i], value) || value <= 0) {
        error = arg + " must be a positive integer";
        return false;
      }
      if (arg == "--jobs") {
        cli.jobs = static_cast<std::size_t>(value);
      } else if (arg == "--cap") {
        cli.cap = static_cast<std::size_t>(value);
      } else if (arg == "--timeout-ms") {
        cli.timeoutMs = value;
      } else if (arg == "--max-work") {
        cli.maxWork = value;
      } else if (arg == "--fault-cap") {
        cli.faultCap = value;
      } else {
        // The simulator hard-caps total firings at 1'000'000, so more
        // iterations than that can never complete — and an unbounded
        // value would overflow the per-actor firing limit (q * N).
        if (value > 1'000'000) {
          error = "--iterations must be at most 1000000";
          return false;
        }
        cli.iterations = value;
        cli.iterationsSet = true;
      }
    } else if (arg.size() >= 2 && arg[0] == '-' && arg[1] == '-') {
      error = "unknown flag '" + arg + "'";
      return false;
    } else if (!haveCommand) {
      cli.command = arg;
      haveCommand = true;
    } else if (!haveInput && cli.command != "version") {
      cli.input = arg;
      haveInput = true;
    } else if (arg.find('=') != std::string::npos) {
      const auto eq = arg.find('=');
      const std::string name = arg.substr(0, eq);
      const std::string spec = arg.substr(eq + 1);
      if (name.empty()) {
        error = "malformed name=value pair '" + arg + "'";
        return false;
      }
      // Sweep axes: a value with ':' (range) or ',' (list) names a swept
      // parameter; a plain integer stays a fixed binding.  `pes` is the
      // platform width, not a graph parameter — never an axis.
      if (cli.command == "sweep" && spec.find_first_of(":,") !=
                                        std::string::npos) {
        if (name == "pes") {
          error = "pes cannot be swept (it is the platform width); "
                  "use pes=N";
          return false;
        }
        try {
          cli.axes.push_back(core::SweepAxis::parse(name, spec));
        } catch (const support::Error& e) {
          error = e.what();
          return false;
        }
        continue;
      }
      std::int64_t value = 0;
      if (!parseInt(spec, value)) {
        error = "malformed name=value pair '" + arg + "'";
        return false;
      }
      if (name == "pes") {
        if (value <= 0) {
          error = "pes must be a positive integer";
          return false;
        }
        cli.pes = static_cast<std::size_t>(value);
      } else {
        cli.bindings.emplace_back(name, value);
      }
    } else {
      error = "unexpected argument '" + arg + "'";
      return false;
    }
  }

  if (!haveCommand) {
    error = "missing command";
    return false;
  }
  if (cli.command == "version") {
    return true;
  }
  if (cli.command == "ping" || cli.command == "stats") {
    // Daemon probes: no input file, but a daemon to talk to.
    if (cli.connect.empty()) {
      error = cli.command + " needs --connect <addr>";
      return false;
    }
    return true;
  }
  if (cli.command == "loadtest" && cli.connect.empty()) {
    error = "loadtest needs --connect <addr>";
    return false;
  }
  if (!haveInput) {
    if (cli.command == "batch" || cli.command == "verify") {
      error = cli.command + " needs a directory";
    } else if (cli.command == "scenarios") {
      error = "scenarios needs an output directory";
    } else {
      error = "missing input file";
    }
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  std::string error;
  if (!parseArgs(argc, argv, cli, error)) {
    return usageError(cli, error);
  }
  return run(cli);
}
