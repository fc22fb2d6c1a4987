// tpdfbench — the compiled half of the end-to-end benchmark, invoked by
// run.py.  It generates the benchmark's inputs, drives a running
// tpdfd as a closed-loop client, and replays a workload's requests
// in-process with one span around every call into a layer's public
// function, so per-layer self times are measured from outside the
// program, without any instrumentation inside src/.
//
//   tpdfbench gen-chain <actors> <seed> <out.tpdf>
//   tpdfbench client <socket> <plan> <requests-per-connection> <slices> <out.json>
//   tpdfbench trace-cli <analyze.tpdf> <map.tpdf> <platform> <seconds> <out.json>
//   tpdfbench trace-sweep <graph.tpdf> <sweep.json> <seconds> <out.json>
//   tpdfbench trace-serve <plan> <requests> <out.json>
//   tpdfbench calibrate <rounds>
//
// A plan (written by run.py) lists the corpus files and each
// connection's request sequence:
//   graph <index> <path>
//   req <connection> <graph-index> <variant 0|1> <kind> <json-template>
// The template is a request object without its "graph" member; the
// client appends the graph's text, plus a never-seen comment line when
// the variant flag is set, so the daemon's cache admits a new entry.
//
// Every trace-* command runs three passes over the same requests:
//   layers   traced: a root span per request ("req.<kind>") whose
//            children are the layer calls the api::Session method makes
//   plain    the same calls with tracing off (trace overhead)
//   session  the api::Session / serve::ClientSession call as a whole
// and writes every span (name, start, end, parent, request) when it ends.
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "api/requests.hpp"
#include "api/session.hpp"
#include "api/version.hpp"
#include "apps/randomgraphs.hpp"
#include "core/analysis.hpp"
#include "core/context.hpp"
#include "core/liveness.hpp"
#include "core/model.hpp"
#include "core/safety.hpp"
#include "core/sweep.hpp"
#include "csdf/buffer.hpp"
#include "csdf/liveness.hpp"
#include "graph/rates.hpp"
#include "io/format.hpp"
#include "platform/spec.hpp"
#include "platform/topology.hpp"
#include "sched/canonical.hpp"
#include "sched/list.hpp"
#include "sched/platform.hpp"
#include "serve/cache.hpp"
#include "serve/protocol.hpp"
#include "sim/simulator.hpp"
#include "support/json.hpp"
#include "symbolic/env.hpp"

using namespace tpdf;
using Json = support::json::Value;
using Clock = std::chrono::steady_clock;

namespace {

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open '" + path + "'");
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void writeFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) throw std::runtime_error("cannot write '" + path + "'");
}

/// Process CPU time (user + system), seconds.
double cpuSeconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) * 1e-6;
}

/// Resident set size now, in bytes (from /proc/self/statm).
double residentBytes() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0;
  long resident = 0;
  statm >> pages >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE));
}

// ---- spans ---------------------------------------------------------------

/// In-memory span recorder.  Spans nest by call order on one thread; a
/// disabled tracer records nothing, which is how the plain pass measures
/// the tracing overhead.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start;
    std::int64_t end;
    int parent;
    int request;
  };

  bool enabled = true;
  int request = -1;

  int open(const char* name) {
    if (!enabled) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, nowNs(), 0, parent, request});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int index) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end = nowNs();
    stack_.pop_back();
  }

  /// Runs `fn` inside a span named `name` and returns its result.
  template <typename Fn>
  decltype(auto) span(const char* name, Fn&& fn) {
    struct Guard {
      Tracer& t;
      int index;
      ~Guard() { t.close(index); }
    } guard{*this, open(name)};
    return fn();
  }

  void count(std::string_view key, double amount) {
    if (enabled) slot(key) += amount;
  }
  void setMax(std::string_view key, double value) {
    if (enabled) slot(key) = std::max(slot(key), value);
  }

  Json toJson() const {
    auto spans = Json::array();
    for (const Span& s : spans_) {
      auto row = Json::array();
      row.push(s.name);
      row.push(s.start);
      row.push(s.end);
      row.push(s.parent);
      row.push(s.request);
      spans.push(std::move(row));
    }
    auto counts = Json::object();
    for (const auto& [key, value] : counts_) counts.set(key, value);
    auto doc = Json::object();
    doc.set("spans", std::move(spans));
    doc.set("counts", std::move(counts));
    return doc;
  }

 private:
  double& slot(std::string_view key) {
    const auto it = counts_.find(key);
    return it != counts_.end() ? it->second : counts_[std::string(key)];
  }

  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::map<std::string, double, std::less<>> counts_;
};

/// The envelope around a response document: pretty-printed as tpdfc
/// --json writes it, one compact line as tpdfd does.
std::string envelope(const char* tool, const std::string& command,
                     Json responseDoc) {
  auto doc = Json::object();
  doc.set("tool", tool);
  doc.set("version", api::version().semver);
  doc.set("command", command);
  for (auto& [key, value] : responseDoc.members()) {
    doc.set(key, std::move(value));
  }
  return std::string_view(tool) == "tpdfd" ? doc.dump() : doc.pretty();
}

/// Renders `response` as its envelope.  The response is consumed inside
/// the span, so freeing it counts as rendering work, not as the caller's.
template <typename Response, typename... GraphArg>
std::string render(Tracer& t, const char* tool, const char* command,
                   Response& response, const GraphArg*... g) {
  return t.span("api.render", [&] {
    const Response consumed = std::move(response);
    return envelope(tool, command, consumed.toJson(g...));
  });
}

/// Every still-unbound parameter at 2, as api::Session does.
symbolic::Environment concretize(const graph::Graph& g,
                                 const symbolic::Environment& env) {
  symbolic::Environment out = env;
  for (const std::string& p : g.params()) {
    if (!out.has(p)) out.bind(p, 2);
  }
  return out;
}

/// A parsed graph with its analysis context, as a Session entry holds it.
struct Loaded {
  std::shared_ptr<core::TpdfGraph> model;
  std::unique_ptr<core::AnalysisContext> ctx;
  /// Rate tables built so far through ctx.rates(), by valuation.
  std::map<std::string, bool> rateTables;
};

/// Frees a request's graph, context and envelope inside a span.
void release(Tracer& t, Loaded& l, std::string& out) {
  t.span("graph.release", [&] {
    l = Loaded{};
    std::string().swap(out);
  });
}

Loaded loadLayers(Tracer& t, const std::string* path, const std::string* text) {
  Loaded out;
  graph::Graph g = t.span("io.read", [&] {
    return path != nullptr ? io::readGraphFile(*path) : io::readGraph(*text);
  });
  out.model = t.span("core.model", [&] {
    return std::make_shared<core::TpdfGraph>(std::move(g));
  });
  t.span("graph.freeze", [&] { out.model->graph().freeze(); });
  const graph::Graph& frozen = out.model->graph();
  t.setMax("graph.frozen_bytes", static_cast<double>(frozen.frozenBytes() +
                                                     frozen.namePoolBytes()));
  t.count("io.read_bytes",
          static_cast<double>(text != nullptr ? text->size()
                                              : std::filesystem::file_size(*path)));
  out.ctx = t.span("core.context", [&] {
    return std::make_unique<core::AnalysisContext>(out.model->graph());
  });
  return out;
}

std::string envKey(const symbolic::Environment& env) {
  std::string key;
  for (const auto& [name, value] : env.bindings()) {
    key += name + "=" + std::to_string(value) + ";";
  }
  return key;
}

/// ctx.rates(env) under a core.rates span, counting first builds.
const graph::EvaluatedRates& ratesOf(Tracer& t, Loaded& l,
                                     const symbolic::Environment& env) {
  if (l.rateTables.emplace(envKey(env), true).second) {
    t.count("core.rate_tables", 1);
  }
  return t.span("core.rates",
                [&]() -> const graph::EvaluatedRates& { return l.ctx->rates(env); });
}

// ---- the Session methods, one layer call at a time ------------------------

std::string analyzeLayers(Tracer& t, Loaded& l, const symbolic::Environment& env,
                          const char* tool) {
  const graph::Graph& g = l.model->graph();
  api::AnalyzeResponse response;
  response.graphId = g.name();
  response.graphName = g.name();
  response.report.repetition = t.span(
      "csdf.repetition", [&] { return l.ctx->repetition(); });
  response.report.safety =
      t.span("core.safety", [&] { return core::checkRateSafety(*l.ctx); });
  // checkLiveness evaluates its sample valuation's rate table through the
  // context; building it first puts that work under core.rates.
  if (response.report.repetition.consistent) ratesOf(t, l, concretize(g, env));
  response.report.liveness = t.span(
      "core.liveness", [&] { return core::checkLiveness(*l.ctx, env, 2); });
  response.analysisRan = true;
  if (!response.report.bounded()) response.status = api::Status::AnalysisNegative;
  return render(t, tool, "analyze", response, &g);
}

csdf::LivenessResult scheduleOf(Tracer& t, Loaded& l,
                                const symbolic::Environment& env,
                                const graph::EvaluatedRates& rates) {
  csdf::LivenessResult live = t.span("csdf.schedule", [&] {
    return csdf::findSchedule(l.ctx->view(), l.ctx->repetition(), env,
                              csdf::SchedulePolicy::Eager, &rates);
  });
  t.count("csdf.schedule_firings", static_cast<double>(live.schedule.size()));
  return live;
}

platform::Topology buildPlatform(Tracer& t, const std::string& spec,
                                 std::size_t pes) {
  return t.span("platform.build", [&] {
    return platform::parsePlatformSpec(spec).spec.build(pes);
  });
}

sim::SimResult simulate(Tracer& t, Loaded& l, const symbolic::Environment& env,
                        sim::SimOptions options) {
  sim::SimResult result = t.span("sim.run", [&] {
    sim::Simulator simulator(*l.model, env, l.ctx.get());
    return simulator.run(options);
  });
  t.count("sim.firings", static_cast<double>(result.totalFirings));
  for (const sim::LinkStats& link : result.links) {
    t.count("sim.link_transfers", static_cast<double>(link.transfers));
  }
  return result;
}

/// Session::map: schedule, canonical period, list schedule and — on a
/// routed platform — the four measuring simulations of its contention
/// report (warm-up and warm-up + window, contended and not).
std::string mapLayers(Tracer& t, Loaded& l, std::size_t pes,
                      const std::string& platformSpec, const char* tool) {
  const graph::Graph& g = l.model->graph();
  const symbolic::Environment env = concretize(g, {});
  std::optional<platform::Topology> fabric;
  if (!platformSpec.empty()) fabric.emplace(buildPlatform(t, platformSpec, pes));
  const csdf::RepetitionVector& rv =
      t.span("csdf.repetition", [&]() -> const csdf::RepetitionVector& {
        return l.ctx->repetition();
      });
  api::MapResponse response;
  response.graphId = g.name();
  response.graphName = g.name();
  response.bindings = env;
  if (rv.consistent) {
    const graph::EvaluatedRates& rates = ratesOf(t, l, env);
    if (scheduleOf(t, l, env, rates).live) {
      const double rssBefore = t.enabled ? residentBytes() : 0.0;
      response.period.emplace(
          t.span("sched.canonical",
                 [&] { return sched::CanonicalPeriod(*l.ctx, env); }));
      if (t.enabled) t.setMax("sched.canonical_rss_bytes", residentBytes() - rssBefore);
      t.count("sched.canonical_nodes",
              static_cast<double>(response.period->size()));
      sched::Platform plat{.peCount = pes};
      if (fabric.has_value() && !fabric->ideal()) {
        plat.peCount = fabric->peCount();
        plat.linkLatency = platform::parsePlatformSpec(platformSpec).spec.latency;
        plat.topology = &*fabric;
      }
      response.schedule = t.span(
          "sched.list", [&] { return sched::listSchedule(*response.period, plat); });
      if (plat.topology != nullptr) {
        const std::int64_t warmup = 2 * static_cast<std::int64_t>(g.actorCount()) + 4;
        const auto perIteration = static_cast<std::int64_t>(response.period->size());
        if (warmup + 8 <= sim::SimOptions{}.maxFirings / perIteration) {
          std::vector<std::size_t> actorPe(g.actorCount());
          for (std::size_t i = 0; i < actorPe.size(); ++i) actorPe[i] = i % plat.peCount;
          for (const bool contended : {true, false}) {
            for (const std::int64_t iterations : {warmup, warmup + 8}) {
              sim::SimOptions o;
              o.iterations = iterations;
              if (contended) {
                o.fabric = plat.topology;
                o.actorPe = actorPe;
              }
              simulate(t, l, env, o);
            }
          }
        }
      }
    }
  }
  return render(t, tool, "map", response);
}

std::string simulateLayers(Tracer& t, Loaded& l, const std::string& platformSpec,
                           std::int64_t iterations, const char* tool) {
  const graph::Graph& g = l.model->graph();
  const symbolic::Environment env = concretize(g, {});
  std::optional<platform::Topology> fabric;
  sim::SimOptions options;
  options.iterations = iterations;
  if (!platformSpec.empty()) {
    fabric.emplace(buildPlatform(t, platformSpec, 4));
    if (!fabric->ideal()) {
      options.fabric = &*fabric;
      options.actorPe.resize(g.actorCount());
      for (std::size_t i = 0; i < g.actorCount(); ++i) {
        options.actorPe[i] = i % fabric->peCount();
      }
    }
  }
  api::SimulateResponse response;
  response.graphId = g.name();
  response.graphName = g.name();
  response.bindings = env;
  response.result = simulate(t, l, env, options);
  response.simulated = true;
  return render(t, tool, "sim", response, &g);
}

std::string scheduleLayers(Tracer& t, Loaded& l, const char* tool) {
  const graph::Graph& g = l.model->graph();
  const symbolic::Environment env = concretize(g, {});
  api::ScheduleResponse response;
  response.graphId = g.name();
  response.graphName = g.name();
  response.bindings = env;
  const graph::EvaluatedRates& rates = ratesOf(t, l, env);
  response.result = scheduleOf(t, l, env, rates);
  if (response.result.live) {
    response.buffers = t.span("csdf.buffers", [&] {
      return csdf::minimumBuffers(l.ctx->view(), l.ctx->repetition(), env,
                                  csdf::SchedulePolicy::MinOccupancy, &rates);
    });
    response.buffersComputed = response.buffers.ok;
  }
  return render(t, tool, "schedule", response, &g);
}

std::string buffersLayers(Tracer& t, Loaded& l, const char* tool) {
  const graph::Graph& g = l.model->graph();
  const symbolic::Environment env = concretize(g, {});
  api::BufferResponse response;
  response.graphId = g.name();
  response.graphName = g.name();
  response.bindings = env;
  const graph::EvaluatedRates& rates = ratesOf(t, l, env);
  response.report = t.span("csdf.buffers", [&] {
    return csdf::minimumBuffers(l.ctx->view(), l.ctx->repetition(), env,
                                csdf::SchedulePolicy::MinOccupancy, &rates);
  });
  return render(t, tool, "buffers", response, &g);
}

/// Runs `pass` until `seconds` elapsed (at least `minRounds` times).
template <typename Fn>
int repeatFor(double seconds, int minRounds, Fn&& pass) {
  const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
  int rounds = 0;
  while (rounds < minRounds || Clock::now() < deadline) {
    pass();
    ++rounds;
  }
  return rounds;
}

// ---- trace-cli -----------------------------------------------------------

/// The three cli-chain commands: analyze <big>, map <small> pes=4 and
/// sim <small> --platform <spec>, each as one request.
int traceCli(const std::string& bigPath, const std::string& smallPath,
             const std::string& platformSpec, double seconds,
             const std::string& outPath) {
  Tracer t;
  double plainNs = 0.0;
  double tracedNs = 0.0;
  auto layersPass = [&] {
    const std::int64_t start = nowNs();
    t.request = 0;
    t.span("req.analyze", [&] {
      Loaded l = loadLayers(t, &bigPath, nullptr);
      std::string out = analyzeLayers(t, l, {}, "tpdfc");
      t.count("api.envelope_bytes", static_cast<double>(out.size()));
      release(t, l, out);
    });
    t.request = 1;
    t.span("req.map", [&] {
      Loaded l = loadLayers(t, &smallPath, nullptr);
      std::string out = mapLayers(t, l, 4, "", "tpdfc");
      t.count("api.envelope_bytes", static_cast<double>(out.size()));
      release(t, l, out);
    });
    t.request = 2;
    t.span("req.sim", [&] {
      Loaded l = loadLayers(t, &smallPath, nullptr);
      std::string out = simulateLayers(t, l, platformSpec, 1, "tpdfc");
      t.count("api.envelope_bytes", static_cast<double>(out.size()));
      release(t, l, out);
    });
    return static_cast<double>(nowNs() - start);
  };
  auto sessionPass = [&] {
    t.request = 0;
    t.span("api.session.analyze", [&] {
      api::Session session;
      const api::LoadResponse loaded = session.load({bigPath, "", ""});
      const api::AnalyzeResponse r = session.analyze({loaded.id, {}, {}});
      const std::string out = envelope("tpdfc", "analyze", r.toJson(session.graph(loaded.id)));
    });
    t.request = 1;
    t.span("api.session.map", [&] {
      api::Session session;
      const api::LoadResponse loaded = session.load({smallPath, "", ""});
      api::MapRequest request;
      request.graphId = loaded.id;
      request.pes = 4;
      const std::string out = envelope("tpdfc", "map", session.map(request).toJson());
    });
    t.request = 2;
    t.span("api.session.sim", [&] {
      api::Session session;
      const api::LoadResponse loaded = session.load({smallPath, "", ""});
      api::SimulateRequest request;
      request.graphId = loaded.id;
      request.platform = platformSpec;
      const api::SimulateResponse r = session.simulate(request);
      const std::string out = envelope("tpdfc", "sim", r.toJson(session.graph(loaded.id)));
    });
  };
  // Plain and traced passes alternate which runs first, so neither
  // always meets the warmer process.
  int round = 0;
  const int rounds = repeatFor(seconds, 2, [&] {
    for (const bool traced : {round % 2 == 0, round % 2 != 0}) {
      t.enabled = traced;
      (traced ? tracedNs : plainNs) += layersPass();
    }
    t.enabled = true;
    sessionPass();
    ++round;
  });
  Json doc = t.toJson();
  doc.set("rounds", rounds);
  doc.set("plain_ns", plainNs);
  doc.set("traced_ns", tracedNs);
  writeFile(outPath, doc.dump());
  return 0;
}

// ---- trace-sweep ---------------------------------------------------------

/// The sweep request as run.py writes it: the tpdfc sweep arguments.
core::SweepSpec parseSweepSpec(const std::string& path) {
  const Json doc = support::json::parse(readFile(path));
  core::SweepSpec spec;
  for (const auto& [param, text] : doc.find("axes")->members()) {
    spec.axes.push_back(core::SweepAxis::parse(param, text.asString()));
  }
  for (const Json& t : doc.find("topologies")->items()) {
    spec.topologies.push_back(t.asString());
  }
  for (const Json& bw : doc.find("link_bandwidths")->items()) {
    spec.linkBandwidths.push_back(bw.isInt() ? static_cast<double>(bw.asInt())
                                             : bw.asDouble());
  }
  spec.jobs = static_cast<std::size_t>(doc.find("jobs")->asInt());
  return spec;
}

/// core::sweep's per-point chain, one call per span, single-threaded:
/// rate table, liveness, buffers, canonical period, list schedule.
void sweepLayers(Tracer& t, Loaded& l, const core::SweepSpec& spec) {
  const graph::Graph& g = l.model->graph();
  const csdf::RepetitionVector& rv =
      t.span("csdf.repetition", [&]() -> const csdf::RepetitionVector& {
        return l.ctx->repetition();
      });
  t.span("core.safety", [&] { core::checkRateSafety(*l.ctx); });
  struct Variant {
    std::size_t pes;
    double latency;
    std::optional<platform::Topology> topology;
  };
  std::vector<Variant> variants;
  for (const std::string& topo : spec.topologies) {
    for (const double bw : spec.linkBandwidths) {
      Variant v{spec.pes, 0.0, std::nullopt};
      t.span("platform.build", [&] {
        platform::PlatformSpec p = platform::parsePlatformSpec(topo).spec;
        p.bandwidth = bw;
        platform::Topology built = p.build(spec.pes);
        v.pes = built.peCount();
        if (!built.ideal()) {
          v.latency = p.latency;
          v.topology.emplace(std::move(built));
        }
      });
      variants.push_back(std::move(v));
    }
  }
  std::size_t paramGrid = 1;
  for (const core::SweepAxis& axis : spec.axes) paramGrid *= axis.values.size();
  const std::size_t points = paramGrid * variants.size();
  std::size_t canonicalNodes = 0;
  for (std::size_t i = 0; i < points; ++i) {
    t.span("req.point", [&] {
      const Variant& variant = variants[i / paramGrid];
      // The point's valuation and its rate table; intermediates are
      // built and freed inside their layer's spans.
      symbolic::Environment env;
      symbolic::Environment completed;
      std::optional<graph::EvaluatedRates> rates;
      t.span("core.rates", [&] {
        std::size_t rest = i % paramGrid;
        for (std::size_t a = spec.axes.size(); a-- > 0;) {
          const std::size_t n = spec.axes[a].values.size();
          env.bind(spec.axes[a].param, spec.axes[a].values[rest % n]);
          rest /= n;
        }
        completed = concretize(g, env);
        rates.emplace(l.ctx->view(), completed);
      });
      const bool live = t.span("core.liveness", [&] {
        return core::checkLiveness(*l.ctx, env, 2, *rates).live;
      });
      if (rv.consistent && live) {
        t.span("csdf.buffers", [&] {
          csdf::minimumBuffers(l.ctx->view(), rv, completed, spec.bufferPolicy,
                               &*rates);
        });
        std::optional<sched::CanonicalPeriod> period;
        t.span("sched.canonical", [&] {
          period.emplace(l.ctx->view(), rv, *rates, completed);
        });
        canonicalNodes += period->size();
        sched::Platform plat{.peCount = variant.pes};
        if (variant.topology.has_value()) {
          plat.linkLatency = variant.latency;
          plat.topology = &*variant.topology;
        }
        t.span("sched.list", [&] { sched::listSchedule(*period, plat); });
        t.span("sched.canonical", [&] { period.reset(); });
      }
      t.span("core.rates", [&] { rates.reset(); });
    });
  }
  t.count("core.rate_tables", static_cast<double>(points));
  t.count("sched.canonical_nodes", static_cast<double>(canonicalNodes));
}

int traceSweep(const std::string& graphPath, const std::string& specPath,
               double seconds, const std::string& outPath) {
  const core::SweepSpec spec = parseSweepSpec(specPath);
  Tracer t;
  double plainNs = 0.0;
  double tracedNs = 0.0;
  double sweepCpu = 0.0;
  double sweepWall = 0.0;
  auto layersPass = [&] {
    const std::int64_t start = nowNs();
    t.request = 0;
    t.span("req.sweep", [&] {
      Loaded l = loadLayers(t, &graphPath, nullptr);
      sweepLayers(t, l, spec);
      std::string none;
      release(t, l, none);
    });
    return static_cast<double>(nowNs() - start);
  };
  // The request as tpdfc runs it: Session::sweep (the parallel
  // core::sweep plus its validation and diagnostics) and the envelope.
  // core::sweep alone on a warm context gives core.sweep and its CPU use.
  auto sessionPass = [&] {
    t.request = 1;
    t.span("api.session.sweep", [&] {
      api::Session session;
      const api::LoadResponse loaded = session.load({graphPath, "", ""});
      api::SweepRequest request;
      request.graphId = loaded.id;
      request.axes = spec.axes;
      request.jobs = spec.jobs;
      request.linkBandwidths = spec.linkBandwidths;
      request.topologies = spec.topologies;
      const api::SweepResponse response =
          t.span("api.sweep", [&] { return session.sweep(request); });
      const std::string out = t.span("api.render", [&] {
        return envelope("tpdfc", "sweep", response.toJson());
      });
      t.count("api.envelope_bytes", static_cast<double>(out.size()));
    });
    t.request = 2;
    t.enabled = false;  // the layers pass already timed this load
    Loaded l = loadLayers(t, &graphPath, nullptr);
    l.ctx->repetition();
    t.enabled = true;
    const double cpu0 = cpuSeconds();
    const std::int64_t wall0 = nowNs();
    t.span("core.sweep", [&] { core::sweep(*l.ctx, spec); });
    sweepWall += static_cast<double>(nowNs() - wall0) * 1e-9;
    sweepCpu += cpuSeconds() - cpu0;
  };
  // Plain and traced passes alternate which runs first, so neither
  // always meets the warmer process.
  int round = 0;
  const int rounds = repeatFor(seconds, 2, [&] {
    for (const bool traced : {round % 2 == 0, round % 2 != 0}) {
      t.enabled = traced;
      (traced ? tracedNs : plainNs) += layersPass();
    }
    t.enabled = true;
    sessionPass();
    ++round;
  });
  Json doc = t.toJson();
  doc.set("rounds", rounds);
  doc.set("plain_ns", plainNs);
  doc.set("traced_ns", tracedNs);
  doc.set("sweep_cpu_s", sweepCpu);
  doc.set("sweep_wall_s", sweepWall);
  doc.set("jobs", static_cast<std::int64_t>(spec.jobs));
  writeFile(outPath, doc.dump());
  return 0;
}

// ---- plans (daemon-mix) --------------------------------------------------

struct PlannedRequest {
  int connection = 0;
  std::size_t graph = 0;
  bool variant = false;
  std::string kind;
  std::string templ;  // request JSON without its "graph" member
};

struct Plan {
  std::vector<std::string> graphTexts;
  std::vector<std::string> graphPaths;
  std::vector<PlannedRequest> requests;
};

Plan readPlan(const std::string& path) {
  Plan plan;
  std::istringstream in(readFile(path));
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string tag;
    fields >> tag;
    if (tag == "graph") {
      std::size_t index = 0;
      std::string file;
      fields >> index >> file;
      if (index != plan.graphPaths.size()) throw std::runtime_error("plan: graph order");
      plan.graphPaths.push_back(file);
      plan.graphTexts.push_back(readFile(file));
    } else if (tag == "req") {
      PlannedRequest r;
      int variant = 0;
      fields >> r.connection >> r.graph >> variant >> r.kind;
      r.variant = variant != 0;
      std::getline(fields >> std::ws, r.templ);
      if (r.graph >= plan.graphTexts.size()) throw std::runtime_error("plan: graph index");
      plan.requests.push_back(std::move(r));
    }
  }
  return plan;
}

/// The wire line of a planned request; `variantTag` makes a variant's
/// text unique (a comment line the parser skips).
std::string requestLine(const Plan& plan, const PlannedRequest& r,
                        const std::string& variantTag) {
  std::string text = plan.graphTexts[r.graph];
  if (r.variant) text += "\n# variant " + variantTag + "\n";
  std::string line = r.templ.substr(0, r.templ.rfind('}'));
  line += ",\"graph\":" + Json(text).dump() + "}";
  return line;
}

/// Cuts the per-request members out of a daemon envelope so identical
/// requests compare byte-for-byte: the trailing "serve" block (whose
/// analysisUs is returned) and every "graphId" (a content hash, unique
/// per variant).
std::string stripEnvelope(std::string line, double* analysisUs) {
  const std::size_t serve = line.rfind(",\"serve\":{");
  if (serve != std::string::npos) {
    const std::size_t close = line.find('}', serve);
    const std::size_t us = line.find("\"analysisUs\":", serve);
    if (analysisUs != nullptr && us != std::string::npos && us < close) {
      *analysisUs = std::strtod(line.c_str() + us + 13, nullptr);
    }
    line.erase(serve, close + 1 - serve);
  }
  for (std::size_t at = line.find("\"graphId\":\""); at != std::string::npos;
       at = line.find("\"graphId\":\"", at)) {
    const std::size_t end = line.find('"', at + 11);
    line.erase(at + 11, end - (at + 11));
    at += 11;
  }
  return line;
}

std::string statusOf(const std::string& line) {
  const std::size_t at = line.find("\"status\":\"");
  if (at == std::string::npos) return "missing";
  const std::size_t end = line.find('"', at + 10);
  return line.substr(at + 10, end - (at + 10));
}

// ---- calibrate -----------------------------------------------------------

/// A fixed amount of work that touches none of the tpdf code: sorting,
/// allocation and ordered-map traffic, the mix the analyses spend their
/// time on.  Its time tracks how fast the machine runs right now, so
/// run.py can express the workloads' times at one reference speed.
double calibrationRound() {
  const auto start = Clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::vector<std::uint64_t> values(1 << 19);
  for (std::uint64_t& v : values) v = next();
  std::sort(values.begin(), values.end());
  std::map<std::string, std::uint64_t> table;
  for (int i = 0; i < 60000; ++i) {
    table["K" + std::to_string(next() % 100000)] += values[static_cast<std::size_t>(i)];
  }
  std::uint64_t sum = 0;
  for (const auto& [key, value] : table) sum += value + key.size();
  const double seconds = std::chrono::duration<double>(Clock::now() - start).count();
  return sum == 42 ? seconds + 1e-9 : seconds;  // keeps `sum` observable
}

/// Median of `rounds` calibration rounds.
double calibrationSeconds(int rounds) {
  std::vector<double> times;
  for (int i = 0; i < rounds; ++i) times.push_back(calibrationRound());
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

// ---- client --------------------------------------------------------------

class Connection {
 public:
  explicit Connection(const std::string& socketPath) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (fd_ < 0 || socketPath.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("bad socket");
    }
    std::memcpy(addr.sun_path, socketPath.c_str(), socketPath.size() + 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      throw std::runtime_error("cannot connect to " + socketPath);
    }
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection() { ::close(fd_); }

  /// Sends one request line and returns the response line.
  std::string roundTrip(const std::string& line) {
    std::string out = line + "\n";
    for (std::size_t sent = 0; sent < out.size();) {
      const ssize_t n = ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("send failed");
      sent += static_cast<std::size_t>(n);
    }
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string response = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return response;
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) throw std::runtime_error("connection closed");
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// Per-(graph, kind) record of what the daemon answered.
struct KeyRecord {
  std::string first;  // first stripped envelope
  std::map<std::string, std::int64_t> statuses;
  std::int64_t mismatches = 0;  // responses differing from `first`
};

struct ConnectionLog {
  std::vector<float> latencyUs;
  std::vector<float> serverUs;
  std::vector<std::uint8_t> kind;
  std::vector<std::uint16_t> slice;
  std::map<std::string, KeyRecord> keys;
  std::int64_t refused = 0;
  std::string error;
};

/// Each connection sends exactly `perConnection` requests, cycling
/// through its planned sequence, one at a time (closed loop).  A fixed
/// amount of work, not a fixed time, keeps the number of cache variants
/// — and so the daemon's memory — the same from run to run.  The run is
/// cut into `slices`; between slices every connection waits while the
/// machine's speed is calibrated, so each slice's times can be read at
/// the speed the machine had while it ran.
int runClient(const std::string& socketPath, const std::string& planPath,
              std::size_t perConnection, std::size_t slices,
              const std::string& outPath) {
  const Plan plan = readPlan(planPath);
  std::vector<std::string> kinds;
  std::map<int, std::vector<const PlannedRequest*>> byConnection;
  for (const PlannedRequest& r : plan.requests) {
    byConnection[r.connection].push_back(&r);
    if (std::find(kinds.begin(), kinds.end(), r.kind) == kinds.end()) {
      kinds.push_back(r.kind);
    }
  }
  std::vector<ConnectionLog> logs(byConnection.size());
  std::barrier sync(static_cast<std::ptrdiff_t>(logs.size() + 1));
  std::vector<std::thread> threads;
  std::size_t c = 0;
  for (const auto& [connection, sequence] : byConnection) {
    threads.emplace_back([&, connection = connection, sequence = &sequence,
                          log = &logs[c++]] {
      std::optional<Connection> conn;
      try {
        conn.emplace(socketPath);
      } catch (const std::exception& e) {
        log->error = e.what();
      }
      std::size_t i = 0;
      for (std::size_t slice = 0; slice < slices; ++slice) {
        sync.arrive_and_wait();  // the slice starts
        const std::size_t end = perConnection * (slice + 1) / slices;
        try {
          for (; log->error.empty() && i < end; ++i) {
            const PlannedRequest& r = *(*sequence)[i % sequence->size()];
            const std::string line = requestLine(
                plan, r, std::to_string(connection) + "-" + std::to_string(i));
            const auto t0 = Clock::now();
            const std::string response = conn->roundTrip(line);
            const auto t1 = Clock::now();
            log->latencyUs.push_back(static_cast<float>(
                std::chrono::duration<double, std::micro>(t1 - t0).count()));
            log->slice.push_back(static_cast<std::uint16_t>(slice));
            log->kind.push_back(static_cast<std::uint8_t>(
                std::find(kinds.begin(), kinds.end(), r.kind) - kinds.begin()));
            if (response.find("\"server-overloaded\"") != std::string::npos) {
              ++log->refused;
            }
            double serverUs = 0.0;
            std::string stripped = stripEnvelope(response, &serverUs);
            log->serverUs.push_back(static_cast<float>(serverUs));
            KeyRecord& key = log->keys[std::to_string(r.graph) + ":" + r.kind];
            ++key.statuses[statusOf(stripped)];
            if (key.first.empty()) {
              key.first = std::move(stripped);
            } else if (stripped != key.first) {
              ++key.mismatches;
            }
          }
        } catch (const std::exception& e) {
          log->error = e.what();
        }
        sync.arrive_and_wait();  // the slice is done
      }
    });
  }
  auto calibration = Json::array();
  auto sliceSeconds = Json::array();
  calibration.push(calibrationSeconds(3));
  for (std::size_t slice = 0; slice < slices; ++slice) {
    sync.arrive_and_wait();
    const auto t0 = Clock::now();
    sync.arrive_and_wait();
    sliceSeconds.push(std::chrono::duration<double>(Clock::now() - t0).count());
    calibration.push(calibrationSeconds(3));
  }
  for (std::thread& th : threads) th.join();

  // Merge the connections' logs; a key's first answer must agree across
  // connections too.
  auto doc = Json::object();
  auto lat = Json::array();
  auto sliceOf = Json::array();
  auto srv = Json::array();
  auto kind = Json::array();
  std::map<std::string, KeyRecord> keys;
  std::int64_t refused = 0;
  std::string error;
  for (std::size_t l = 0; l < logs.size(); ++l) {
    const ConnectionLog& log = logs[l];
    for (std::size_t i = 0; i < log.latencyUs.size(); ++i) {
      lat.push(static_cast<double>(log.latencyUs[i]));
      sliceOf.push(static_cast<std::int64_t>(log.slice[i]));
      srv.push(static_cast<double>(log.serverUs[i]));
      kind.push(static_cast<std::int64_t>(log.kind[i]));
    }
    refused += log.refused;
    if (error.empty()) error = log.error;
    for (const auto& [name, record] : log.keys) {
      KeyRecord& merged = keys[name];
      if (merged.first.empty()) {
        merged.first = record.first;
      } else if (merged.first != record.first) {
        ++merged.mismatches;
      }
      merged.mismatches += record.mismatches;
      for (const auto& [status, n] : record.statuses) merged.statuses[status] += n;
    }
  }
  auto keyDoc = Json::object();
  for (const auto& [name, record] : keys) {
    auto entry = Json::object();
    entry.set("first", record.first);
    entry.set("mismatches", record.mismatches);
    auto statuses = Json::object();
    for (const auto& [status, n] : record.statuses) statuses.set(status, n);
    entry.set("statuses", std::move(statuses));
    keyDoc.set(name, std::move(entry));
  }
  auto kindNames = Json::array();
  for (const std::string& k : kinds) kindNames.push(k);
  doc.set("latency_us", std::move(lat));
  doc.set("slice", std::move(sliceOf));
  doc.set("slice_s", std::move(sliceSeconds));
  doc.set("calibration_s", std::move(calibration));
  doc.set("server_us", std::move(srv));
  doc.set("kind", std::move(kind));
  doc.set("kinds", std::move(kindNames));
  doc.set("keys", std::move(keyDoc));
  doc.set("refused", refused);
  doc.set("error", error);
  writeFile(outPath, doc.dump());
  return error.empty() ? 0 : 1;
}

// ---- trace-serve ---------------------------------------------------------

/// Replays the first `count` planned requests in plan order: through
/// serve::ClientSession::handle (one per connection, one shared cache,
/// as in tpdfd) and through the layer calls the request makes.
int traceServe(const std::string& planPath, std::size_t count,
               const std::string& outPath) {
  const Plan plan = readPlan(planPath);
  count = std::min(count, plan.requests.size());
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < count; ++i) {
    lines.push_back(requestLine(plan, plan.requests[i], "replay-" + std::to_string(i)));
  }
  Tracer t;
  auto serverUs = Json::array();
  auto handleKinds = Json::array();
  Json cacheStats;
  {
    serve::GraphCache cache(64, std::size_t{256} << 20);
    std::map<int, std::unique_ptr<serve::ClientSession>> sessions;
    for (std::size_t i = 0; i < count; ++i) {
      const PlannedRequest& r = plan.requests[i];
      auto& session = sessions[r.connection];
      if (session == nullptr) {
        session = std::make_unique<serve::ClientSession>(cache, serve::RequestPolicy{});
      }
      t.request = static_cast<int>(i);
      const serve::ClientSession::Result result =
          t.span("serve.handle", [&] { return session->handle(lines[i]); });
      double us = 0.0;
      stripEnvelope(result.line, &us);
      serverUs.push(us);
      handleKinds.push(r.kind);
    }
    cacheStats = cache.stats().toJson();
  }
  std::vector<std::string> texts;
  std::vector<std::string> platforms;
  for (std::size_t i = 0; i < count; ++i) {
    const PlannedRequest& r = plan.requests[i];
    texts.push_back(plan.graphTexts[r.graph]);
    if (r.variant) texts.back() += "\n# variant replay-" + std::to_string(i) + "\n";
    const Json request = support::json::parse(r.templ);
    const Json* platformField = request.find("platform");
    platforms.push_back(platformField != nullptr ? platformField->asString() : "");
  }
  // Layer replay: a text-keyed model cache stands in for the shared
  // graph cache (a miss parses, freezes and builds the context).  Pass 0
  // warms the process up; pass 1 is traced, pass 2 is plain.
  double plainNs = 0.0;
  double tracedNs = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    t.enabled = pass == 1;
    std::map<std::string, Loaded> models;
    const std::int64_t start = nowNs();
    for (std::size_t i = 0; i < count; ++i) {
      const PlannedRequest& r = plan.requests[i];
      const std::string& text = texts[i];
      const std::string& platformSpec = platforms[i];
      t.request = static_cast<int>(i);
      const char* rootName = r.kind == "analyze"    ? "req.analyze"
                             : r.kind == "schedule" ? "req.schedule"
                             : r.kind == "buffers"  ? "req.buffers"
                             : r.kind == "map"      ? "req.map"
                                                    : "req.simulate";
      t.span(rootName, [&] {
        auto it = models.find(text);
        if (it == models.end()) {
          it = models.emplace(text, loadLayers(t, nullptr, &text)).first;
        }
        Loaded& l = it->second;
        std::string out;
        if (r.kind == "analyze") {
          out = analyzeLayers(t, l, {}, "tpdfd");
        } else if (r.kind == "schedule") {
          out = scheduleLayers(t, l, "tpdfd");
        } else if (r.kind == "buffers") {
          out = buffersLayers(t, l, "tpdfd");
        } else if (r.kind == "map") {
          out = mapLayers(t, l, 4, platformSpec, "tpdfd");
        } else {
          out = simulateLayers(t, l, platformSpec, 1, "tpdfd");
        }
        t.count("api.envelope_bytes", static_cast<double>(out.size()));
      });
    }
    if (pass > 0) (pass == 1 ? tracedNs : plainNs) += static_cast<double>(nowNs() - start);
  }
  t.enabled = true;
  // Session pass: the same requests through api::Session, one session
  // per graph text (the daemon's cache hit path reuses the context).
  {
    std::map<std::string, std::unique_ptr<api::Session>> sessions;
    for (std::size_t i = 0; i < count; ++i) {
      const PlannedRequest& r = plan.requests[i];
      const std::string& text = texts[i];
      const std::string& platformSpec = platforms[i];
      t.request = static_cast<int>(i);
      t.span("api.session", [&] {
        auto& session = sessions[text];
        if (session == nullptr) {
          session = std::make_unique<api::Session>();
          session->load({"", text, "g"});
        }
        const graph::Graph* g = session->graph("g");
        if (r.kind == "analyze") {
          return envelope("tpdfd", r.kind, session->analyze({"g", {}, {}}).toJson(g));
        }
        if (r.kind == "schedule") {
          api::ScheduleRequest q;
          q.graphId = "g";
          return envelope("tpdfd", r.kind, session->schedule(q).toJson(g));
        }
        if (r.kind == "buffers") {
          api::BufferRequest q;
          q.graphId = "g";
          return envelope("tpdfd", r.kind, session->buffers(q).toJson(g));
        }
        if (r.kind == "map") {
          api::MapRequest q;
          q.graphId = "g";
          q.platform = platformSpec;
          return envelope("tpdfd", r.kind, session->map(q).toJson());
        }
        api::SimulateRequest q;
        q.graphId = "g";
        q.platform = platformSpec;
        return envelope("tpdfd", r.kind, session->simulate(q).toJson(g));
      });
    }
  }
  Json doc = t.toJson();
  doc.set("server_us", std::move(serverUs));
  doc.set("handle_kind", std::move(handleKinds));
  doc.set("cache", std::move(cacheStats));
  doc.set("requests", static_cast<std::int64_t>(count));
  doc.set("plain_ns", plainNs);
  doc.set("traced_ns", tracedNs);
  writeFile(outPath, doc.dump());
  return 0;
}

// ---- gen-chain -----------------------------------------------------------

int genChain(int actors, std::uint64_t seed, const std::string& outPath) {
  const graph::Graph g = apps::randomConsistentChain(actors, seed);
  const std::string text = io::writeGraph(g);
  writeFile(outPath, text);
  std::printf("{\"actors\": %zu, \"channels\": %zu, \"bytes\": %zu}\n",
              g.actorCount(), g.channelCount(), text.size());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: tpdfbench gen-chain <actors> <seed> <out.tpdf>\n"
               "       tpdfbench client <socket> <plan> <requests-per-connection> "
               "<slices> <out.json>\n"
               "       tpdfbench trace-cli <analyze.tpdf> <map.tpdf> <platform> "
               "<seconds> <out.json>\n"
               "       tpdfbench trace-sweep <graph.tpdf> <sweep.json> <seconds> "
               "<out.json>\n"
               "       tpdfbench trace-serve <plan> <requests> <out.json>\n"
               "       tpdfbench calibrate <rounds>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.size() == 4 && args[0] == "gen-chain") {
      return genChain(std::stoi(args[1]), std::stoull(args[2]), args[3]);
    }
    if (args.size() == 6 && args[0] == "client") {
      return runClient(args[1], args[2], std::stoul(args[3]),
                       std::max<std::size_t>(1, std::stoul(args[4])), args[5]);
    }
    if (args.size() == 6 && args[0] == "trace-cli") {
      return traceCli(args[1], args[2], args[3], std::stod(args[4]), args[5]);
    }
    if (args.size() == 5 && args[0] == "trace-sweep") {
      return traceSweep(args[1], args[2], std::stod(args[3]), args[4]);
    }
    if (args.size() == 2 && args[0] == "calibrate") {
      std::printf("%.9f\n", calibrationSeconds(std::max(1, std::stoi(args[1]))));
      return 0;
    }
    if (args.size() == 4 && args[0] == "trace-serve") {
      return traceServe(args[1], std::stoul(args[2]), args[3]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tpdfbench: %s\n", e.what());
    return 1;
  }
  return usage();
}
