#include "api/session.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <filesystem>
#include <utility>

#include "csdf/liveness.hpp"
#include "io/format.hpp"
#include "sched/platform.hpp"
#include "support/budget.hpp"
#include "support/error.hpp"

namespace tpdf::api {

namespace {

/// The façade's no-throw guarantee, shared with the serving layer as
/// api::guardedRun (diagnostics.cpp) so both surfaces map a given
/// failure to the identical diagnostic.
template <typename Fn>
void guarded(Response& response, const std::string& file, Fn&& fn) {
  guardedRun(response, file, std::function<void()>(std::forward<Fn>(fn)));
}

/// Binds every still-unbound parameter of `g` to 2 (the conventional
/// sample value) so concrete steps can run, recording a Note per
/// defaulted parameter.
symbolic::Environment concretize(const graph::Graph& g,
                                 const symbolic::Environment& bindings,
                                 Response& response) {
  symbolic::Environment env = bindings;
  for (const std::string& p : g.params()) {
    if (!env.has(p)) {
      response.note("unbound-parameter",
                    "parameter '" + p + "' unbound, using 2");
      env.bind(p, 2);
    }
  }
  return env;
}

/// Arms `budget` from the request's limits; nullptr (meaning: skip the
/// budget plumbing entirely) when the request is unlimited.  An
/// environment-armed fault injector (TPDF_FAULT_CHECKPOINT=N) rides on
/// the same budget so external harnesses can inject faults into an
/// unmodified tpdfc.
support::Budget* armBudget(support::Budget& budget,
                           const ResourceLimits& limits) {
  const support::FaultInjector envFault = support::FaultInjector::fromEnv();
  if (!limits.limited() && envFault.fireAt == 0) return nullptr;
  if (limits.timeoutMs > 0) {
    budget.setTimeout(std::chrono::milliseconds(limits.timeoutMs));
  }
  if (limits.maxWork > 0) {
    budget.setMaxWork(static_cast<std::uint64_t>(limits.maxWork));
  }
  if (envFault.fireAt != 0) budget.arm(envFault);
  if (limits.cancelParent != nullptr) budget.chainCancel(limits.cancelParent);
  return &budget;
}

/// Parses a request's platform spec ("" = none); a malformed spec is an
/// invalid-platform diagnostic positioned into the spec string.
bool parsePlatform(const std::string& text, platform::SpecParse& parsed,
                   Response& response) {
  if (text.empty()) return true;
  parsed = platform::parsePlatformSpec(text);
  if (!parsed.ok) {
    response.fail(Status::InvalidRequest, "invalid-platform",
                  parsed.error + " in platform spec '" + text + "'",
                  "platform", 1, static_cast<int>(parsed.column));
  }
  return parsed.ok;
}

/// A corpus request's inputs: the *.tpdf files under its directory, in
/// sorted order (walked by `Iterator`), then its explicit files.  False
/// with the failure recorded on `response` when there are none.
template <typename Iterator, typename CorpusRequest>
bool corpusFiles(const CorpusRequest& request, const std::string& command,
                 std::vector<std::string>& files, Response& response) {
  if (request.directory.empty() && request.files.empty()) {
    response.fail(Status::InvalidRequest, "invalid-request",
                  command + " needs a directory or explicit files");
    return false;
  }
  if (!request.directory.empty()) {
    try {
      for (const auto& dirEntry : Iterator(request.directory)) {
        if (dirEntry.is_regular_file() &&
            dirEntry.path().extension() == ".tpdf") {
          files.push_back(dirEntry.path().string());
        }
      }
    } catch (const std::filesystem::filesystem_error& e) {
      response.fail(Status::InputError, "io-error", e.what(),
                    request.directory);
      return false;
    }
    std::sort(files.begin(), files.end());
    if (files.empty() && request.files.empty()) {
      response.fail(Status::InputError, "no-inputs",
                    "no .tpdf files under '" + request.directory + "'",
                    request.directory);
      return false;
    }
  }
  files.insert(files.end(), request.files.begin(), request.files.end());
  return true;
}

/// Fault-sweep self-test over one corpus graph.  First a clean reference
/// run whose budget only counts checkpoints, then one re-run per
/// injection point with a deterministic fault armed at that checkpoint.
/// Every injected run must unwind into exactly one structured
/// "resource-limit" record — anything else (an escaped exception, no
/// record, extra records) is a `fault-sweep` InternalError diagnostic:
/// some unwind path through the stack mishandles interruption.
void faultSweepOne(const core::TpdfGraph& model, const std::string& path,
                   const VerifyRequest& request, VerifyResponse& response) {
  core::DiffOptions counting = request.options;
  support::Budget counter;
  counting.budget = &counter;
  // The clean run doubles as the file's regular verification: its
  // verdict and any genuine discrepancies go into the response report.
  core::crossCheck(model, request.bindings, counting, response.report, path);
  const std::uint64_t total = counter.work();
  if (total == 0) {
    response.note("fault-sweep",
                  path + ": no checkpoints reached, nothing to inject");
    return;
  }

  // Injection points: every checkpoint in [1, total], or (when capped)
  // an even spread over the range with both endpoints included.
  std::vector<std::uint64_t> points;
  const std::int64_t cap = request.faultSweepLimit;
  if (cap <= 1 || static_cast<std::uint64_t>(cap) >= total) {
    points.reserve(static_cast<std::size_t>(total));
    for (std::uint64_t n = 1; n <= total; ++n) points.push_back(n);
  } else {
    const std::uint64_t steps = static_cast<std::uint64_t>(cap) - 1;
    for (std::uint64_t i = 0; i <= steps; ++i) {
      const std::uint64_t n = 1 + (i * (total - 1)) / steps;
      if (points.empty() || points.back() != n) points.push_back(n);
    }
  }

  std::size_t failures = 0;
  for (const std::uint64_t n : points) {
    support::Budget budget;
    budget.arm(support::FaultInjector{n});
    core::DiffOptions injected = request.options;
    injected.budget = &budget;
    core::DiffReport report;
    std::string escaped;
    try {
      core::crossCheck(model, request.bindings, injected, report, path);
    } catch (const std::exception& e) {
      escaped = std::string("exception escaped crossCheck: ") + e.what();
    } catch (...) {
      escaped = "non-standard exception escaped crossCheck";
    }
    ++response.faultInjections;
    std::string problem = escaped;
    if (problem.empty() && report.resourceLimited() != 1) {
      problem = "expected exactly one resource-limit record, got " +
                std::to_string(report.resourceLimited()) + " (of " +
                std::to_string(report.records.size()) + " records)";
    }
    if (!problem.empty() && ++failures <= 3) {  // cap the noise per file
      response.fail(Status::InternalError, "fault-sweep",
                    "injection at checkpoint " + std::to_string(n) + "/" +
                        std::to_string(total) + ": " + problem,
                    path);
    }
  }
  if (failures > 3) {
    response.fail(Status::InternalError, "fault-sweep",
                  std::to_string(failures) + " of " +
                      std::to_string(points.size()) +
                      " injection points mishandled (first 3 reported)",
                  path);
  }
}

}  // namespace

// ---- Introspection ------------------------------------------------------

bool Session::has(const std::string& id) const {
  return entries_.count(id) != 0;
}

std::vector<std::string> Session::graphIds() const {
  std::vector<std::string> ids;
  ids.reserve(entries_.size());
  for (const auto& [id, entry] : entries_) ids.push_back(id);
  return ids;
}

const graph::Graph* Session::graph(const std::string& id) const {
  const auto it = entries_.find(id);
  return it == entries_.end() ? nullptr : &it->second.model->graph();
}

const core::TpdfGraph* Session::model(const std::string& id) const {
  const auto it = entries_.find(id);
  return it == entries_.end() ? nullptr : it->second.model.get();
}

const core::AnalysisContext* Session::context(const std::string& id) const {
  const auto it = entries_.find(id);
  return it == entries_.end() ? nullptr : it->second.ctx.get();
}

bool Session::erase(const std::string& id) {
  return entries_.erase(id) != 0;
}

bool Session::adopt(const std::string& id,
                    std::shared_ptr<core::TpdfGraph> model,
                    std::shared_ptr<core::AnalysisContext> ctx) {
  if (model == nullptr || entries_.count(id) != 0) return false;
  entries_.emplace(id, Entry{std::move(model), std::move(ctx)});
  return true;
}

Session::Entry* Session::resolve(const std::string& id, Response& response) {
  const auto it = entries_.find(id);
  if (it == entries_.end()) {
    response.fail(Status::InvalidRequest, "unknown-graph",
                  "no graph '" + id + "' loaded in this session");
    return nullptr;
  }
  return &it->second;
}

core::AnalysisContext& Session::contextOf(Entry& entry) {
  if (entry.ctx == nullptr) {
    entry.ctx = std::make_shared<core::AnalysisContext>(entry.model->graph());
  }
  return *entry.ctx;
}

// ---- load ---------------------------------------------------------------

LoadResponse Session::load(const LoadRequest& request) {
  LoadResponse response;
  if (request.path.empty() && request.text.empty()) {
    response.fail(Status::InvalidRequest, "invalid-request",
                  "load needs either a file path or inline text");
    return response;
  }
  if (!request.path.empty() && !request.text.empty()) {
    response.fail(Status::InvalidRequest, "invalid-request",
                  "load takes a file path or inline text, not both");
    return response;
  }
  guarded(response, request.path, [&] {
    graph::Graph g = request.path.empty() ? io::readGraph(request.text)
                                          : io::readGraphFile(request.path);
    const std::string id = request.id.empty() ? g.name() : request.id;
    if (entries_.count(id) != 0) {
      response.fail(Status::InvalidRequest, "duplicate-graph",
                    "graph '" + id + "' is already loaded (erase it first)");
      return;
    }
    const auto [it, inserted] = entries_.emplace(
        id,
        Entry{std::make_shared<core::TpdfGraph>(std::move(g)), nullptr});
    (void)inserted;
    const graph::Graph& stored = it->second.model->graph();
    response.id = id;
    response.graphName = stored.name();
    response.actorCount = stored.actorCount();
    response.channelCount = stored.channelCount();
    response.params.assign(stored.params().begin(), stored.params().end());
  });
  return response;
}

// ---- analyze ------------------------------------------------------------

AnalyzeResponse Session::analyze(const AnalyzeRequest& request) {
  AnalyzeResponse response;
  response.graphId = request.graphId;
  Entry* entry = resolve(request.graphId, response);
  if (entry == nullptr) return response;
  response.graphName = entry->model->graph().name();
  guarded(response, "", [&] {
    support::Budget budgetStore;
    support::Budget* budget = armBudget(budgetStore, request.limits);
    response.report =
        core::analyze(contextOf(*entry), request.bindings, budget);
    response.analysisRan = true;
    if (response.report.bounded()) return;  // status stays Ok
    response.status = Status::AnalysisNegative;
    // One diagnostic per failing stage, with the stage's own text.
    if (!response.report.consistent()) {
      response.diagnostics.push_back(
          Diagnostic{Severity::Error, "inconsistent-rates",
                     response.report.repetition.diagnostic, "", -1, -1});
    }
    if (!response.report.rateSafe()) {
      response.diagnostics.push_back(
          Diagnostic{Severity::Error, "rate-unsafe",
                     response.report.safety.diagnostic, "", -1, -1});
    }
    if (!response.report.live()) {
      response.diagnostics.push_back(
          Diagnostic{Severity::Error, "deadlock",
                     response.report.liveness.diagnostic, "", -1, -1});
    }
  });
  return response;
}

// ---- schedule -----------------------------------------------------------

ScheduleResponse Session::schedule(const ScheduleRequest& request) {
  ScheduleResponse response;
  response.graphId = request.graphId;
  Entry* entry = resolve(request.graphId, response);
  if (entry == nullptr) return response;
  const graph::Graph& g = entry->model->graph();
  response.graphName = g.name();
  guarded(response, "", [&] {
    support::Budget budgetStore;
    support::Budget* budget = armBudget(budgetStore, request.limits);
    response.bindings = concretize(g, request.bindings, response);
    core::AnalysisContext& ctx = contextOf(*entry);
    const graph::EvaluatedRates& rates = ctx.rates(response.bindings);
    response.result = csdf::findSchedule(ctx.view(), ctx.repetition(),
                                         response.bindings, request.policy,
                                         &rates, budget);
    if (!response.result.live) {
      response.fail(Status::AnalysisNegative, "no-schedule",
                    response.result.diagnostic);
      return;
    }
    if (request.computeBuffers) {
      response.buffers = csdf::minimumBuffers(
          ctx.view(), ctx.repetition(), response.bindings,
          csdf::SchedulePolicy::MinOccupancy, &rates, budget);
      response.buffersComputed = response.buffers.ok;
      if (!response.buffers.ok) {
        response.warn("no-buffer-sizing", response.buffers.diagnostic);
      }
    }
  });
  return response;
}

// ---- buffers ------------------------------------------------------------

BufferResponse Session::buffers(const BufferRequest& request) {
  BufferResponse response;
  response.graphId = request.graphId;
  Entry* entry = resolve(request.graphId, response);
  if (entry == nullptr) return response;
  const graph::Graph& g = entry->model->graph();
  response.graphName = g.name();
  guarded(response, "", [&] {
    support::Budget budgetStore;
    support::Budget* budget = armBudget(budgetStore, request.limits);
    response.bindings = concretize(g, request.bindings, response);
    core::AnalysisContext& ctx = contextOf(*entry);
    const graph::EvaluatedRates& rates = ctx.rates(response.bindings);
    response.report =
        csdf::minimumBuffers(ctx.view(), ctx.repetition(), response.bindings,
                             request.policy, &rates, budget);
    if (!response.report.ok) {
      response.fail(Status::AnalysisNegative, "no-buffer-sizing",
                    response.report.diagnostic);
    }
  });
  return response;
}

// ---- map ----------------------------------------------------------------

namespace {

/// Builds a MapResponse's platform/contention block: per-link
/// utilization plus contended-vs-uncontended steady-state periods
/// measured by warmup/window simulation (the same protocol as
/// core::crossCheck's throughput invariant) with actors spread
/// round-robin over the fabric.  When the simulation cannot run
/// (firing budget, clock actors) the block falls back to the static
/// unit-token link load of the schedule.
MapContention contentionReport(const core::TpdfGraph& model,
                               const symbolic::Environment& env,
                               const sched::CanonicalPeriod& cp,
                               const sched::ListSchedule& schedule,
                               const sched::Platform& plat,
                               const tpdf::platform::PlatformSpec& spec,
                               const core::AnalysisContext& ctx,
                               support::Budget* budget) {
  MapContention out;
  out.spec = spec;
  out.pes = plat.peCount;
  const tpdf::platform::Topology& topo = *plat.topology;

  const std::vector<sched::LinkLoad> load =
      sched::linkLoad(cp, schedule, plat);
  double maxBusy = -1.0;
  for (std::size_t l = 0; l < load.size(); ++l) {
    MapContention::LinkUse use;
    use.link = topo.link(static_cast<std::uint32_t>(l)).name;
    use.transfers = load[l].transfers;
    use.busy = load[l].busy;
    use.utilization =
        schedule.makespan > 0.0 ? load[l].busy / schedule.makespan : 0.0;
    if (load[l].busy > maxBusy) {
      maxBusy = load[l].busy;
      out.maxContendedLink = use.link;
    }
    out.links.push_back(std::move(use));
  }
  out.idealPeriod = schedule.makespan;

  // Steady-state periods (sim::measureSteadyState), contended and not.
  // Skipped (block stays static-only) when the firing budget would be
  // blown or the graph cannot simulate unattended (clock actors).
  const graph::Graph& g = model.graph();
  const std::int64_t iterations =
      sim::SteadyState::warmupFor(g.actorCount()) + sim::SteadyState::kWindow;
  const auto perIteration = static_cast<std::int64_t>(cp.size());
  const sim::SimOptions defaults;
  if (perIteration <= 0 || iterations > defaults.maxFirings / perIteration) {
    return out;
  }
  // Placement: round-robin over the fabric, the same distribution the
  // simulate operation uses.  (The schedule's own placement co-locates
  // chain-shaped periods on one PE precisely because communication is
  // expensive, which would measure an empty fabric; the report instead
  // answers "what does this interconnect cost when the pipeline is
  // actually spread across it".)
  std::vector<std::size_t> actorPe(g.actorCount(), 0);
  for (std::size_t i = 0; i < actorPe.size(); ++i) {
    actorPe[i] = i % plat.peCount;
  }
  const auto measure = [&](bool contended) {
    return sim::measureSteadyState(g.actorCount(), [&](std::int64_t n) {
      sim::Simulator simulator(model, env, &ctx);
      sim::SimOptions o;
      o.budget = budget;
      o.iterations = n;
      if (contended) {
        o.fabric = &topo;
        o.actorPe = actorPe;
      }
      return simulator.run(o);
    });
  };
  const sim::SteadyState onFabric = measure(true);
  if (!onFabric.warm.ok) return out;
  const sim::SteadyState ideal = measure(false);
  if (!onFabric.windowed.ok || !ideal.warm.ok || !ideal.windowed.ok) {
    return out;
  }
  out.simulatedPeriod = onFabric.period;
  out.uncontendedPeriod = ideal.period;
  if (out.uncontendedPeriod > 0.0) {
    out.slowdown = out.simulatedPeriod / out.uncontendedPeriod;
  }
  // With a measured run in hand, report the links as the simulation
  // actually used them (real token volumes, steady-state occupancy)
  // instead of the static unit-token estimate.
  const sim::SimResult& c2 = onFabric.windowed;
  if (c2.links.size() == out.links.size() && c2.endTime > 0.0) {
    double measuredMax = -1.0;
    for (std::size_t l = 0; l < out.links.size(); ++l) {
      out.links[l].transfers = c2.links[l].transfers;
      out.links[l].busy = c2.links[l].busyTime;
      out.links[l].utilization = c2.links[l].busyTime / c2.endTime;
      if (c2.links[l].busyTime > measuredMax) {
        measuredMax = c2.links[l].busyTime;
        out.maxContendedLink = out.links[l].link;
      }
    }
  }
  return out;
}

}  // namespace

MapResponse Session::map(const MapRequest& request) {
  MapResponse response;
  response.graphId = request.graphId;
  if (request.pes == 0) {
    response.fail(Status::InvalidRequest, "invalid-request",
                  "platform must have at least one PE");
    return response;
  }
  platform::SpecParse parsedPlatform;
  if (!parsePlatform(request.platform, parsedPlatform, response)) {
    return response;
  }
  Entry* entry = resolve(request.graphId, response);
  if (entry == nullptr) return response;
  const graph::Graph& g = entry->model->graph();
  response.graphName = g.name();
  guarded(response, "", [&] {
    support::Budget budgetStore;
    support::Budget* budget = armBudget(budgetStore, request.limits);
    response.bindings = concretize(g, request.bindings, response);
    core::AnalysisContext& ctx = contextOf(*entry);
    if (!ctx.repetition().consistent) {
      response.fail(Status::AnalysisNegative, "inconsistent-rates",
                    ctx.repetition().diagnostic);
      return;
    }
    // A deadlocked graph has a cyclic canonical period; report that as
    // a negative verdict (with the scheduler's diagnosis) instead of
    // letting the period construction fail on the cycle.
    const csdf::LivenessResult live = csdf::findSchedule(
        ctx.view(), ctx.repetition(), response.bindings,
        csdf::SchedulePolicy::Eager, &ctx.rates(response.bindings), budget);
    if (!live.live) {
      response.fail(Status::AnalysisNegative, "no-schedule",
                    live.diagnostic);
      return;
    }
    response.period.emplace(ctx, response.bindings, budget);
    sched::Platform plat{.peCount = request.pes};
    std::optional<platform::Topology> fabric;
    if (!request.platform.empty()) {
      // parsedPlatform was validated above; an ideal spec (crossbar,
      // infinite bandwidth, zero latency) deliberately takes the legacy
      // topology-free path so the report stays byte-identical.
      fabric.emplace(parsedPlatform.spec.build(request.pes));
      plat.peCount = fabric->peCount();
      if (fabric->ideal()) {
        fabric.reset();
      } else {
        plat.linkLatency = parsedPlatform.spec.latency;
        plat.topology = &*fabric;
      }
    }
    response.schedule = sched::listSchedule(*response.period, plat,
                                            request.options, budget);
    if (plat.topology != nullptr) {
      response.contention = contentionReport(
          *entry->model, response.bindings, *response.period,
          response.schedule, plat, parsedPlatform.spec, ctx, budget);
    }
  });
  return response;
}

// ---- simulate -----------------------------------------------------------

SimulateResponse Session::simulate(const SimulateRequest& request) {
  SimulateResponse response;
  response.graphId = request.graphId;
  platform::SpecParse parsedPlatform;
  if (!parsePlatform(request.platform, parsedPlatform, response)) {
    return response;
  }
  Entry* entry = resolve(request.graphId, response);
  if (entry == nullptr) return response;
  const graph::Graph& g = entry->model->graph();
  response.graphName = g.name();
  guarded(response, "", [&] {
    support::Budget budgetStore;
    support::Budget* budget = armBudget(budgetStore, request.limits);
    response.bindings = concretize(g, request.bindings, response);
    sim::Simulator simulator(*entry->model, response.bindings,
                             &contextOf(*entry));
    sim::SimOptions options = request.options;
    if (budget != nullptr) options.budget = budget;
    // A non-ideal platform routes inter-PE traffic through the fabric;
    // actors are placed round-robin over its PEs (spec size defaults to
    // 4 when omitted).  Ideal specs keep the fabric-free path so the
    // report stays byte-identical.
    std::optional<platform::Topology> fabric;
    if (!request.platform.empty() && !parsedPlatform.spec.ideal()) {
      fabric.emplace(parsedPlatform.spec.build(4));
      options.fabric = &*fabric;
      options.actorPe.resize(g.actorCount());
      for (std::size_t i = 0; i < g.actorCount(); ++i) {
        options.actorPe[i] = i % fabric->peCount();
      }
    }
    response.result = simulator.run(options);
    response.simulated = true;
    if (!response.result.ok) {
      response.fail(Status::AnalysisNegative, "sim-failed",
                    response.result.diagnostic);
    }
  });
  return response;
}

// ---- sweep --------------------------------------------------------------

SweepResponse Session::sweep(const SweepRequest& request) {
  SweepResponse response;
  response.graphId = request.graphId;
  response.jobs = request.jobs;
  Entry* entry = resolve(request.graphId, response);
  if (entry == nullptr) return response;
  const graph::Graph& g = entry->model->graph();
  response.graphName = g.name();

  if (request.axes.empty()) {
    response.fail(Status::InvalidRequest, "invalid-request",
                  "sweep needs at least one swept parameter "
                  "(name=lo:hi[:step] or name=v1,v2,...)");
    return response;
  }

  core::SweepSpec spec;
  spec.axes = request.axes;
  spec.fixed = request.fixed;
  spec.maxPoints = request.maxPoints;
  spec.jobs = request.jobs;
  spec.pes = request.pes;
  spec.platform = request.platform;
  spec.linkBandwidths = request.linkBandwidths;
  spec.topologies = request.topologies;
  spec.computeBuffers = request.computeBuffers;
  spec.computePeriod = request.computePeriod;
  spec.keepReports = request.keepReports;
  spec.pointTimeoutMs = request.limits.timeoutMs;
  spec.pointMaxWork = request.limits.maxWork;
  // One rule set shared with core::sweep (which would throw the same
  // message): a malformed spec is a usage error (exit 2), not an input
  // error — the defaulting audit (swept-and-fixed conflicts) included.
  const std::string violation = core::validateSweepSpec(g, spec);
  if (!violation.empty()) {
    response.fail(Status::InvalidRequest, "invalid-request", violation);
    return response;
  }
  if (spec.gridSize() == 0) {
    // An empty grid (lo > hi, empty list) ran nothing; saying "ok" with
    // an empty payload would look exactly like a clean sweep to a CI
    // gate, so it is an explicit usage failure instead.
    response.fail(Status::InvalidRequest, "empty-sweep",
                  "sweep grid is empty: every axis needs at least one "
                  "value (check for lo > hi ranges)");
    return response;
  }

  guarded(response, "", [&] {
    const auto start = std::chrono::steady_clock::now();
    response.result = core::sweep(contextOf(*entry), spec);
    response.elapsedMs = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    response.ran = true;
    if (response.result.truncated) {
      response.warn("sweep-truncated",
                    "grid has " + std::to_string(response.result.gridSize) +
                        " points; analyzed the first " +
                        std::to_string(response.result.points.size()) +
                        " (raise the cap to cover the rest)");
    }
    for (const std::string& param : response.result.defaulted) {
      response.note("unbound-parameter",
                    "parameter '" + param +
                        "' neither swept nor fixed, using 2 at every point");
    }
    bool anyError = false;
    for (std::size_t i = 0; i < response.result.points.size(); ++i) {
      const core::SweepPoint& point = response.result.points[i];
      if (point.ok) continue;
      // Mirror batch-entry semantics: negative verdicts are results,
      // only evaluation failures are errors.  A budget trip is the
      // distinct resource-limit outcome: the point was cut off, not
      // wrong — the sweep still reports every other point (partial
      // results, graceful degradation).
      if (point.resourceLimited) {
        response.fail(Status::ResourceLimit, "resource-limit",
                      "point " + std::to_string(i) + ": " + point.error);
      } else {
        anyError = true;
        response.fail(Status::InputError, "sweep-point",
                      "point " + std::to_string(i) + " failed: " +
                          point.error);
      }
    }
    // fail() is last-wins on the status; a genuine evaluation failure
    // outranks a resource trip.
    if (anyError) response.status = Status::InputError;
  });
  return response;
}

// ---- batch --------------------------------------------------------------

BatchResponse Session::batch(const BatchRequest& request) {
  BatchResponse response;
  response.jobs = request.jobs;
  std::vector<std::string> files;
  if (!corpusFiles<std::filesystem::directory_iterator>(request, "batch",
                                                        files, response)) {
    return response;
  }
  response.inputCount = files.size();

  guarded(response, request.directory, [&] {
    std::vector<core::BatchSource> sources;
    sources.reserve(files.size());
    for (const std::string& path : files) {
      sources.push_back({path, [path] { return io::readGraphFile(path); }});
    }
    core::BatchOptions options;
    options.jobs = request.jobs;
    options.env = request.bindings;
    options.entryTimeoutMs = request.limits.timeoutMs;
    options.entryMaxWork = request.limits.maxWork;

    const auto start = std::chrono::steady_clock::now();
    response.result = core::analyzeBatch(sources, options);
    response.elapsedMs = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();

    bool anyError = false;
    for (const core::BatchEntry& e : response.result.entries) {
      if (e.ok) continue;
      // Negative analysis verdicts are results; only load/analysis
      // failures are errors.  The entry's ParseError position survives
      // into the diagnostic.  A budget trip is the distinct
      // resource-limit outcome — that entry was cut off, the rest of
      // the batch still completed (partial results).
      if (e.resourceLimited) {
        response.fail(Status::ResourceLimit, "resource-limit", e.error,
                      e.name);
      } else {
        anyError = true;
        response.fail(Status::InputError, "batch-entry", e.error, e.name,
                      e.errorLine, e.errorColumn);
      }
    }
    // fail() is last-wins on the status; a genuine failure outranks a
    // resource trip.
    if (anyError) response.status = Status::InputError;
  });
  return response;
}

// ---- verify -------------------------------------------------------------

VerifyResponse Session::verify(const VerifyRequest& request) {
  VerifyResponse response;
  std::vector<std::string> files;
  if (!corpusFiles<std::filesystem::recursive_directory_iterator>(
          request, "verify", files, response)) {
    return response;
  }
  response.inputCount = files.size();

  const auto start = std::chrono::steady_clock::now();
  for (const std::string& path : files) {
    // Per-file guard: a file that fails to load (or a harness fault) is
    // an input-error diagnostic for that file; the remaining corpus is
    // still verified.
    guarded(response, path, [&] {
      core::TpdfGraph model(io::readGraphFile(path));
      if (request.faultSweep) {
        faultSweepOne(model, path, request, response);
        return;
      }
      // Per-file budget; budget trips surface as resource-limit records
      // on the report (crossCheck absorbs them), so the rest of the
      // corpus is still verified.
      core::DiffOptions options = request.options;
      support::Budget fileBudget(request.limits.timeoutMs,
                                 request.limits.maxWork);
      fileBudget.chainCancel(request.options.budget);
      if (fileBudget.limited()) options.budget = &fileBudget;
      core::crossCheck(model, request.bindings, options, response.report,
                       path);
    });
  }
  response.elapsedMs = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - start)
                           .count();

  // fail() is last-wins on the status; rank the final outcome explicitly:
  // a load/internal failure outranks a genuine discrepancy, which
  // outranks a resource trip (partial results, exit 4).
  const Status loadStatus = response.status;
  bool anyDiscrepancy = false;
  for (const core::DiffRecord& r : response.report.records) {
    if (r.check == "resource-limit") {
      response.fail(Status::ResourceLimit, "resource-limit",
                    r.graph + ": " + r.detail, r.file);
    } else {
      anyDiscrepancy = true;
      response.fail(Status::AnalysisNegative, "discrepancy",
                    "[" + r.check + "] " + r.graph + ": " + r.detail, r.file);
    }
  }
  if (anyDiscrepancy) response.status = Status::AnalysisNegative;
  if (loadStatus != Status::Ok) response.status = loadStatus;
  return response;
}

}  // namespace tpdf::api
