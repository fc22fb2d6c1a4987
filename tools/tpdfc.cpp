// tpdfc — the TPDF analyzer command line.
//
// A thin shell over the tpdf::api service façade (api/session.hpp):
// every subcommand builds a request, runs it through an api::Session,
// and renders the response as human text or — with the global --json
// flag — as one stable machine-readable JSON document on stdout.
//
//   analyze   consistency/safety/liveness/boundedness report
//   schedule  one-iteration schedule + buffer sizing at a valuation
//   map       canonical period + list schedule on a platform
//   sim       discrete-event simulation
//   sweep     design-space exploration over a parameter grid
//   batch     analyze every .tpdf in a directory on a thread pool
//   verify    differential sim-vs-static verification of a corpus
//   dot, echo, scenarios, version
// (flags in kUsage below; docs/api.md and README.md describe each one).
//
// Client mode: --connect <addr> forwards the subcommand to a running
// tpdfd daemon (unix:/path, tcp:host:port, or a bare socket path)
// instead of running in-process.  It sends the request document it
// would execute locally, with graph files as inline text, so identical
// inputs from any number of clients share the daemon's cached analysis
// state.  The daemon's envelope prints on stdout and its status maps
// onto the same exit codes.  `tpdfc ping|stats --connect <addr>` probe
// a daemon; `tpdfc loadtest` drives a load test and reports latency
// percentiles, throughput and the server-side cache hit rate.
//
// Parameters are given as name=value pairs; unbound parameters default
// to 2 for concrete steps (reported as a note diagnostic).  Every request
// flag and name=value word is a field of the request schema
// (api/requests.hpp): tpdfc maps argv onto the same document tpdfd
// accepts, so a field has one spelling, type and rule on both surfaces.
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
// Whatever the outcome, a failed write to stdout (a full disk, a closed
// pipe) turns the exit code into 3 with a "write error on stdout"
// message on stderr.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <variant>
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
    "       tpdfc schedule ... [--policy eager|min-occupancy] [--no-buffers]\n"
    "       tpdfc map|sim ... [--platform kind[:size][,bw=X][,lat=Y]]\n"
    "             (kind: crossbar|bus|ring|mesh; e.g. mesh:4x4,bw=8,lat=2)\n"
    "       tpdfc sim <file.tpdf> [name=value ...] [--iterations N] "
    "[--trace]\n"
    "             [--max-firings N] [--json]\n"
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
  /// Request flags with their values and the name=value words after the
  /// input, in argv order: api::argvToJson maps them onto the command's
  /// request fields (api/requests.hpp).
  std::vector<std::string> args;
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

using support::json::Writer;

/// Pretty JSON goes to stdout in 64 KiB chunks, never as one string.
const support::json::ChunkOut kStdout = [](std::string_view chunk) {
  std::fwrite(chunk.data(), 1, chunk.size(), stdout);
};

/// Prints the final document, streamed: the envelope identifies the tool
/// and the command, then `write` puts the response members (status,
/// diagnostics, payload) straight into it — no document is built first
/// (a map or sim envelope can be tens of megabytes).
template <typename Members>
void emitJson(const Cli& cli, Members&& write) {
  Writer w(support::json::Layout::Pretty, &kStdout);
  api::beginEnvelope(w, "tpdfc", cli.command);
  write(w);
  w.endObject().finish();
}

/// Text mode: diagnostics go to stderr, one line each.
void emitDiagnostics(const api::Response& response) {
  for (const api::Diagnostic& d : response.diagnostics) {
    std::fprintf(stderr, "tpdfc: %s\n", d.toString().c_str());
  }
}

/// Renders a response whose text payload was already printed (or that
/// has none), returning the documented exit code.  `write` puts the
/// response members and runs only under --json.
template <typename Members>
int finish(const Cli& cli, const api::Response& response, Members&& write) {
  if (cli.json) {
    emitJson(cli, write);
  } else {
    emitDiagnostics(response);
  }
  return api::exitCode(response.status);
}

/// A request that failed before producing a payload: its status and
/// diagnostics under --json, `text` on stderr.  Returns the exit code.
int failed(const Cli& cli, const api::Response& response,
           const std::string& text) {
  if (cli.json) emitJson(cli, [&](Writer& w) { response.write(w); });
  std::fprintf(stderr, "tpdfc: %s", text.c_str());
  return api::exitCode(response.status);
}

int usageError(const Cli& cli, const std::string& message) {
  api::Response response;
  response.fail(api::Status::InvalidRequest, "invalid-request", message);
  return failed(cli, response, message + "\n" + kUsage);
}

bool parseInt(const std::string& text, std::int64_t& out) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  out = std::strtoll(text.c_str(), &end, 10);
  return errno != ERANGE && end != nullptr && *end == '\0';
}

/// The batch/sweep text footer: wall time and the requested job count.
void printElapsed(double elapsedMs, std::size_t jobs) {
  if (jobs == 0) {
    std::printf("  elapsed:     %.1f ms (auto jobs)\n", elapsedMs);
  } else {
    std::printf("  elapsed:     %.1f ms (%zu jobs)\n", elapsedMs, jobs);
  }
}

int runVersion(const Cli& cli) {
  if (cli.json) {
    emitJson(cli, [](Writer& w) {
      api::Response().write(w);
      api::version().write(w.key("release"));
    });
  } else {
    std::printf("%s\n", api::version().toString().c_str());
  }
  return 0;
}

int runRequest(const Cli& cli, api::Session& session,
               const api::BatchRequest& request) {
  const api::BatchResponse response = session.batch(request);
  if (cli.json) {
    emitJson(cli, [&](Writer& w) { response.write(w); });
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
    printElapsed(response.elapsedMs, response.jobs);
  }
  return api::exitCode(response.status);
}

int runRequest(const Cli& cli, api::Session& session,
               const api::VerifyRequest& request) {
  const api::VerifyResponse response = session.verify(request);
  if (cli.json) {
    emitJson(cli, [&](Writer& w) { response.write(w); });
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
    return failed(cli, response, std::string(e.what()) + "\n");
  }
  const std::vector<apps::Scenario> corpus = apps::scenarioCorpus();
  if (cli.json) {
    emitJson(cli, [&](Writer& w) {
      api::Response().write(w);
      w.member("directory", cli.input).key("scenarios").beginArray();
      for (const apps::Scenario& s : corpus) {
        w.beginObject().member("name", s.name).member("family", s.family);
        w.member("file", cli.input + "/" + s.name + ".tpdf").endObject();
      }
      w.endArray();
    });
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

int runRequest(const Cli& cli, api::Session& session,
               const api::SweepRequest& request) {
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
    printElapsed(response.elapsedMs, response.jobs);
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
  return finish(cli, response, [&](Writer& w) { response.write(w); });
}

int runRequest(const Cli& cli, api::Session& session,
               const api::AnalyzeRequest& request) {
  const std::string& id = request.graphId;
  const api::AnalyzeResponse response = session.analyze(request);
  if (!cli.json && response.analysisRan) {
    std::printf("%s", response.report.toString(*session.graph(id)).c_str());
  }
  return finish(cli, response,
                [&](Writer& w) { response.write(w, session.graph(id)); });
}

int runRequest(const Cli& cli, api::Session& session,
               const api::ScheduleRequest& request) {
  const std::string& id = request.graphId;
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
                [&](Writer& w) { response.write(w, session.graph(id)); });
}

int runRequest(const Cli& cli, api::Session& session,
               const api::MapRequest& request) {
  const api::MapResponse response = session.map(request);
  if (!cli.json && response.period.has_value()) {
    std::printf("canonical period: %zu occurrences\n",
                response.period->size());
    std::printf("%s", response.schedule.toString(*response.period).c_str());
  }
  return finish(cli, response, [&](Writer& w) { response.write(w); });
}

int runRequest(const Cli& cli, api::Session& session,
               const api::SimulateRequest& request) {
  const std::string& id = request.graphId;
  const api::SimulateResponse response = session.simulate(request);
  if (!cli.json && response.simulated) {
    const sim::SimResult& r = response.result;
    std::printf("simulated %lld firings to t=%g (%s)\n",
                static_cast<long long>(r.totalFirings), r.endTime,
                r.returnedToInitialState ? "returned to initial state"
                                         : "did not return to initial state");
    if (request.options.recordTrace) {
      std::printf("%s", r.renderTrace(*session.graph(id)).c_str());
    }
  }
  return finish(cli, response,
                [&](Writer& w) { response.write(w, session.graph(id)); });
}

int runDot(const Cli& cli, api::Session& session, const std::string& id) {
  const graph::Graph& g = *session.graph(id);
  if (cli.json) {
    emitJson(cli, [&](Writer& w) {
      api::Response().write(w);
      w.member("dot", g.toDot());
    });
  } else {
    std::printf("%s", g.toDot().c_str());
  }
  return 0;
}

int runEcho(const Cli& cli, api::Session& session, const std::string& id) {
  const graph::Graph& g = *session.graph(id);
  if (cli.json) {
    emitJson(cli, [&](Writer& w) {
      api::Response().write(w);
      w.member("tpdf", io::writeGraph(g));
      io::writeJson(w.key("graph"), g);
    });
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
    doc.prettyTo(kStdout);
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
  return failed(cli, response, what + "\n");
}

/// Sends `request` (an analyze document) with `text` as its inline graph
/// from cli.clients concurrent connections.
int runLoadtest(const Cli& cli, const support::json::Value& request,
                const std::string& text) {
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
          support::json::Value line = request;
          line.set("graph", std::move(body));
          const auto start = std::chrono::steady_clock::now();
          const std::string reply = client.request(line.dump());
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
  return finish(cli, response, [&](Writer& w) {
    response.write(w);
    w.member("clients", cli.clients).member("requestsPerClient", cli.requests);
    w.member("requests", samples.size()).member("elapsedMs", elapsedMs);
    w.member("throughputRps", throughput).key("latency").beginObject();
    w.member("p50Us", percentile(0.50)).member("p90Us", percentile(0.90));
    w.member("p99Us", percentile(0.99)).member("maxUs", latencies.back());
    w.endObject().member("cacheHitRate", hitRate);
    w.member("serverAnalysisUsMean",
             analysisSum / static_cast<double>(samples.size()));
    w.member("serverAnalysisUsHot", hotAnalysisUs).member("cache", cacheStats);
  });
}

/// Forwards the command to a tpdfd daemon: the request document tpdfc
/// would execute locally (api::toJson), with the graph file as inline
/// text so identical sources share the daemon's cache whatever their
/// client-side paths.  Corpus paths (batch, verify) stay server-side.
int runConnect(const Cli& cli, const std::optional<api::Request>& request) {
  const bool probe = cli.command == "ping" || cli.command == "stats";
  if (!probe && !request.has_value() && cli.command != "load") {
    return usageError(cli, "command '" + cli.command +
                               "' is not supported over --connect");
  }
  support::json::Value wire = support::json::Value::object();
  if (request.has_value()) {
    wire = api::toJson(*request);
  } else {
    wire.set("command", cli.command);
  }
  std::string text;
  if (!probe && cli.command != "batch" && cli.command != "verify") {
    api::Response bad;
    if (!slurpFile(cli.input, text, bad)) {
      return failed(cli, bad, bad.firstError() + "\n");
    }
    if (cli.command == "loadtest") return runLoadtest(cli, wire, text);
    wire.set("graph", std::move(text));
  }
  try {
    serve::Client client = serve::Client::connect(cli.connect);
    return emitEnvelope(client.request(wire.dump()));
  } catch (const support::Error& e) {
    return transportError(cli, e.what());
  }
}

/// The wire command of a tpdfc subcommand that runs a request ("" for
/// the others); loadtest sends analyze requests.
std::string_view wireCommand(const std::string& command) {
  if (command == "sim") return "simulate";
  if (command == "loadtest") return "analyze";
  for (const std::string_view c :
       {"analyze", "schedule", "map", "sweep", "batch", "verify"}) {
    if (command == c) return c;
  }
  return "";
}

int run(const Cli& cli) {
  support::json::Value doc;
  std::string error;
  const std::string_view wire = wireCommand(cli.command);
  if (!api::argvToJson(wire, cli.input, cli.args, doc, error)) {
    return usageError(cli, error);
  }
  std::optional<api::Request> request = api::requestFor(wire);
  if (request.has_value()) {
    api::Response bad;
    api::fromJson(doc, *request, bad);
    if (!bad.ok()) return usageError(cli, bad.firstError());
  }

  if (cli.command == "version") return runVersion(cli);
  if (!cli.connect.empty() || cli.command == "loadtest" ||
      cli.command == "ping" || cli.command == "stats") {
    return runConnect(cli, request);
  }
  if (cli.command == "scenarios") return runScenarios(cli);

  api::Session session;
  std::string id;  // the loaded graph; batch and verify read a corpus
  if (cli.command != "batch" && cli.command != "verify") {
    api::LoadRequest loadRequest;
    loadRequest.path = cli.input;
    const api::LoadResponse loaded = session.load(loadRequest);
    if (!loaded.ok()) {
      return finish(cli, loaded, [&](Writer& w) { loaded.write(w); });
    }
    id = loaded.id;
    if (cli.command == "dot") return runDot(cli, session, id);
    if (cli.command == "echo") return runEcho(cli, session, id);
  }
  if (!request.has_value()) {
    return usageError(cli, "unknown command '" + cli.command + "'");
  }
  return std::visit(
      [&](auto& r) {
        if constexpr (requires { runRequest(cli, session, r); }) {
          if constexpr (requires { r.graphId; }) r.graphId = id;
          return runRequest(cli, session, r);
        } else {
          return usageError(cli, "unknown command '" + cli.command + "'");
        }
      },
      *request);
}

/// Returns false on malformed arguments; `error` explains why.
///
/// Positional layout mirrors the pre-façade CLI: the first non-flag
/// token is the command, the second is the input path — always, even
/// when the path contains '=' — and only tokens *after* the input are
/// request words (name=value).  Request flags may appear anywhere.
bool parseArgs(int argc, char** argv, Cli& cli, std::string& error) {
  bool haveCommand = false;
  bool haveInput = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      cli.json = true;
    } else if (arg == "--version") {
      cli.command = "version";
      haveCommand = true;
    } else if (arg == "--batch") {
      // Back-compat spelling of the batch subcommand.
      cli.command = "batch";
      haveCommand = true;
    } else if (arg == "--connect" || arg == "--clients" ||
               arg == "--requests" || arg == "--cold-every") {
      if (i + 1 >= argc) {
        error = arg == "--connect" ? "--connect needs a daemon address "
                                     "(unix:/path or tcp:host:port)"
                                   : arg + " needs a value";
        return false;
      }
      const std::string value = argv[++i];
      std::int64_t n = 0;
      if (arg == "--connect") {
        cli.connect = value;
      } else if (!parseInt(value, n) || n <= 0) {
        error = arg + " must be a positive integer";
        return false;
      } else {
        (arg == "--clients"    ? cli.clients
         : arg == "--requests" ? cli.requests
                               : cli.coldEvery) = static_cast<std::size_t>(n);
      }
    } else if (arg.starts_with("--")) {
      // A request flag; the schema knows whether it takes a value.
      cli.args.push_back(arg);
      if (api::flagTakesValue(arg) && i + 1 < argc) {
        cli.args.push_back(argv[++i]);
      }
    } else if (!haveCommand) {
      cli.command = arg;
      haveCommand = true;
    } else if (!haveInput && cli.command != "version") {
      cli.input = arg;
      haveInput = true;
    } else {
      cli.args.push_back(arg);
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
  const int code =
      parseArgs(argc, argv, cli, error) ? run(cli) : usageError(cli, error);
  // Output that never reached its destination (a full disk, a closed
  // pipe) is an input/output failure, not the verdict the code reports.
  // errno still holds the failed write's reason when an earlier write,
  // not this flush, failed.
  if (std::fflush(stdout) != 0 || std::ferror(stdout) != 0) {
    std::fprintf(stderr, "tpdfc: write error on stdout: %s\n",
                 std::strerror(errno != 0 ? errno : EIO));
    return api::exitCode(api::Status::InputError);
  }
  return code;
}
