#include "core/differential.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/analysis.hpp"
#include "csdf/buffer.hpp"
#include "io/format.hpp"
#include "sched/canonical.hpp"
#include "sim/simulator.hpp"
#include "support/error.hpp"

namespace tpdf::core {

using graph::Graph;

void DiffRecord::write(support::json::Writer& w) const {
  w.beginObject().member("graph", graph).member("file", file);
  w.member("check", check).member("detail", detail).member("replay", replay);
  w.endObject();
}

void GraphVerdict::write(support::json::Writer& w) const {
  w.beginObject().member("graph", graph).member("file", file);
  w.member("bounded", bounded).key("checksRun").beginArray();
  for (const std::string& c : checksRun) w.value(c);
  w.endArray().key("skipped").beginArray();
  for (const std::string& s : skipped) w.value(s);
  w.endArray().endObject();
}

std::size_t DiffReport::checksRun() const {
  std::size_t n = 0;
  for (const GraphVerdict& v : verdicts) n += v.checksRun.size();
  return n;
}

std::size_t DiffReport::resourceLimited() const {
  std::size_t n = 0;
  for (const DiffRecord& r : records) n += r.check == "resource-limit" ? 1 : 0;
  return n;
}

void DiffReport::write(support::json::Writer& w) const {
  w.beginObject().member("ok", ok()).member("graphCount", verdicts.size());
  w.member("checkCount", checksRun());
  if (resourceLimited() > 0) w.member("resourceLimited", resourceLimited());
  w.key("graphs").beginArray();
  for (const GraphVerdict& v : verdicts) v.write(w);
  w.endArray().key("discrepancies").beginArray();
  for (const DiffRecord& r : records) r.write(w);
  w.endArray().endObject();
}

Graph withChannelCapacities(const Graph& g,
                            const std::vector<std::int64_t>& capacity) {
  Graph out(g.name() + "_capped");
  for (const std::string& p : g.params()) out.addParam(p);
  // Identical construction order, so every ActorId/PortId of `g` denotes
  // the same element in `out` and the forward channels can be added with
  // g's own endpoint ids.
  for (const graph::Actor& a : g.actors()) {
    const graph::ActorId id = out.addActor(a.name, a.kind);
    for (graph::PortId pid : a.ports) {
      const graph::Port& p = g.port(pid);
      out.addPort(id, p.name, p.kind, p.rates(), p.priority);
    }
    out.setExecTime(id, a.execTime);
  }
  for (const graph::Channel& c : g.channels()) {
    out.addChannel(c.name, c.src, c.dst, c.initialTokens);
  }
  for (const graph::Channel& c : g.channels()) {
    if (g.isControlChannel(c.id)) continue;
    const std::int64_t cap = capacity.at(c.id.index());
    if (cap < c.initialTokens) {
      throw support::Error("capacity " + std::to_string(cap) +
                           " of channel '" + c.name + "' is below its " +
                           std::to_string(c.initialTokens) +
                           " initial tokens");
    }
    // Producing on the forward channel consumes free space from the
    // reverse one and vice versa, so the reverse endpoints mirror the
    // opposite forward endpoint's rate sequence (the balance equation of
    // the reverse channel is the forward one read backwards, preserving
    // consistency and the repetition vector).
    const graph::Port& src = g.port(c.src);
    const graph::Port& dst = g.port(c.dst);
    const graph::PortId ro = out.addPort(
        dst.actor, "__bp_o_" + c.name, graph::PortKind::DataOut, dst.rates());
    const graph::PortId ri = out.addPort(
        src.actor, "__bp_i_" + c.name, graph::PortKind::DataIn, src.rates());
    out.addChannel("__bp_" + c.name, ro, ri, cap - c.initialTokens);
  }
  out.validate();
  return out;
}

namespace {

/// The simulator implements the relaxed TPDF firing rules (mode
/// selection, token discarding, watchdog clocks); those executions are
/// not comparable against the CSDF-style static verdicts, so graphs
/// using them are excluded from the simulation-backed checks.
bool usesDynamicSemantics(const TpdfGraph& model) {
  for (graph::ActorId ctl : model.controlActors()) {
    if (model.controlKind(ctl) == ControlKind::Clock) return true;
  }
  for (graph::ActorId k : model.kernels()) {
    if (model.controlPort(k).has_value()) return true;
    for (const ModeSpec& m : model.modes(k)) {
      if (m.mode != Mode::WaitAll || !m.activeInputs.empty() ||
          !m.activeOutputs.empty()) {
        return true;
      }
    }
  }
  return !model.controlActors().empty();
}

/// Kahn's algorithm over the actor graph; a self-loop counts as a cycle.
bool isAcyclic(const Graph& g) {
  std::vector<std::size_t> indegree(g.actorCount(), 0);
  for (const graph::Channel& c : g.channels()) {
    if (g.sourceActor(c.id) == g.destActor(c.id)) return false;
    ++indegree[g.destActor(c.id).index()];
  }
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < indegree.size(); ++i) {
    if (indegree[i] == 0) stack.push_back(i);
  }
  std::size_t seen = 0;
  while (!stack.empty()) {
    const std::size_t a = stack.back();
    stack.pop_back();
    ++seen;
    for (graph::ChannelId c :
         g.outChannels(graph::ActorId(static_cast<std::uint32_t>(a)))) {
      if (--indegree[g.destActor(c).index()] == 0) {
        stack.push_back(g.destActor(c).index());
      }
    }
  }
  return seen == g.actorCount();
}

/// Acyclic with at most one channel per actor per direction: the shape
/// for which the greedy min-occupancy sizing is exact (per connected
/// component), so the one-below tightness invariant must hold.
bool isChainShaped(const Graph& g) {
  for (const graph::Actor& a : g.actors()) {
    if (g.inChannels(a.id).size() > 1 || g.outChannels(a.id).size() > 1) {
      return false;
    }
  }
  return isAcyclic(g);
}

/// Serial execution time actor `a` needs for iterations [from, to).
double actorWorkload(const graph::Actor& a, std::int64_t q,
                     std::int64_t from, std::int64_t to) {
  const std::int64_t s = static_cast<std::int64_t>(a.execTime.size());
  double total = 0.0;
  if (q % s == 0) {
    // Every iteration runs whole phase cycles, so the window is uniform.
    double cycle = 0.0;
    for (const double t : a.execTime) cycle += t;
    return static_cast<double>((to - from) * (q / s)) * cycle;
  }
  for (std::int64_t k = from * q; k < to * q; ++k) {
    total += a.execTime[static_cast<std::size_t>(k % s)];
  }
  return total;
}

/// Critical path of the canonical period DAG: an upper bound on the
/// steady-state iteration period (each iteration can start once its
/// predecessors from the previous one finished, and completes within one
/// critical path of that point).
double criticalPath(const sched::CanonicalPeriod& period) {
  std::vector<double> finish(period.size(), 0.0);
  double best = 0.0;
  for (const std::size_t i : period.topologicalOrder()) {
    double start = 0.0;
    for (const std::size_t p : period.predecessors(i)) {
      start = std::max(start, finish[p]);
    }
    finish[i] = start + period.execTime(i);
    best = std::max(best, finish[i]);
  }
  return best;
}

struct CheckContext {
  const TpdfGraph& model;
  /// Fully concrete valuation (every graph parameter bound), so the
  /// static and dynamic oracles agree on what was analyzed.
  symbolic::Environment env;
  const DiffOptions& options;
  DiffReport& report;
  GraphVerdict verdict;
  /// Concrete per-actor repetition counts (empty when inconsistent).
  std::vector<std::int64_t> q;
  std::int64_t totalQ = 0;

  void discrepancy(const std::string& check, const std::string& detail,
                   const Graph& executed) {
    DiffRecord r;
    r.graph = verdict.graph;
    r.file = verdict.file;
    r.check = check;
    r.detail = detail;
    r.replay = io::writeGraph(executed);
    report.records.push_back(std::move(r));
  }

  void skip(const std::string& check, const std::string& reason) {
    verdict.skipped.push_back(check + ": " + reason);
  }

  bool withinBudget(std::int64_t iterations) const {
    return totalQ > 0 && iterations > 0 &&
           totalQ <= options.maxFirings / iterations;
  }

  sim::SimResult simulate(const TpdfGraph& m, std::int64_t iterations) {
    sim::Simulator sim(m, env);
    sim::SimOptions opts;
    opts.iterations = iterations;
    opts.maxFirings = options.maxFirings;
    opts.budget = options.budget;
    return sim.run(opts);
  }

  /// Like simulate(), but routing inter-PE transfers over `fabric` with
  /// the given placement (contention cross-check).
  sim::SimResult simulateOn(const TpdfGraph& m, std::int64_t iterations,
                            const platform::Topology& fabric,
                            const std::vector<std::size_t>& actorPe) {
    sim::Simulator sim(m, env);
    sim::SimOptions opts;
    opts.iterations = iterations;
    opts.maxFirings = options.maxFirings;
    opts.budget = options.budget;
    opts.fabric = &fabric;
    opts.actorPe = actorPe;
    return sim.run(opts);
  }
};

void checkBoundedness(CheckContext& cc, const AnalysisReport& analysis) {
  const Graph& g = cc.model.graph();
  if (!analysis.consistent()) {
    // The simulator derives its firing limits from the repetition
    // vector, so it must reject the graph outright.
    const sim::SimResult r = cc.simulate(cc.model, 1);
    cc.verdict.checksRun.push_back("boundedness");
    if (r.ok) {
      cc.discrepancy("boundedness",
                     "static analysis found the graph rate inconsistent "
                     "but the simulator accepted it",
                     g);
    }
    return;
  }
  if (!analysis.rateSafe()) {
    cc.skip("boundedness", "graph is not rate safe at this valuation");
    return;
  }
  if (!cc.withinBudget(cc.options.iterations)) {
    cc.skip("boundedness", "repetition vector exceeds the firing budget");
    return;
  }
  const sim::SimResult r = cc.simulate(cc.model, cc.options.iterations);
  cc.verdict.checksRun.push_back("boundedness");
  if (!r.ok) {
    cc.discrepancy("boundedness",
                   "simulator rejected a statically analyzable graph: " +
                       r.diagnostic,
                   g);
    return;
  }
  const std::int64_t expected = cc.totalQ * cc.options.iterations;
  if (analysis.live()) {
    if (!r.returnedToInitialState || r.totalFirings != expected) {
      cc.discrepancy(
          "boundedness",
          "static analysis proved the graph bounded but simulation of " +
              std::to_string(cc.options.iterations) + " iterations " +
              (r.returnedToInitialState
                   ? "fired " + std::to_string(r.totalFirings) +
                         " times instead of " + std::to_string(expected)
                   : "stalled after " + std::to_string(r.totalFirings) +
                         " of " + std::to_string(expected) + " firings"),
          g);
    }
  } else if (r.returnedToInitialState) {
    cc.discrepancy("boundedness",
                   "static analysis found the graph not live but the "
                   "simulation completed and returned to initial state",
                   g);
  }
}

void checkBuffers(CheckContext& cc, const AnalysisReport& analysis) {
  const Graph& g = cc.model.graph();
  if (!analysis.bounded()) {
    cc.skip("buffers", "graph is not bounded");
    return;
  }
  if (!cc.withinBudget(cc.options.iterations)) {
    cc.skip("buffers", "repetition vector exceeds the firing budget");
    return;
  }
  const csdf::BufferReport buffers =
      csdf::minimumBuffers(g, analysis.repetition, cc.env,
                           csdf::SchedulePolicy::MinOccupancy, nullptr,
                           cc.options.budget);
  if (!buffers.ok) {
    cc.skip("buffers", "minimumBuffers failed: " + buffers.diagnostic);
    return;
  }

  std::vector<std::int64_t> capacity = buffers.perChannel;
  if (cc.options.tamperBufferCapacities) {
    for (const graph::Channel& c : g.channels()) {
      std::int64_t& cap = capacity[c.id.index()];
      if (cap > c.initialTokens) --cap;
    }
  }
  const Graph atCapacity = withChannelCapacities(g, capacity);
  TpdfGraph cappedModel(atCapacity);
  const sim::SimResult r = cc.simulate(cappedModel, cc.options.iterations);
  cc.verdict.checksRun.push_back("buffers");
  if (!r.ok || !r.returnedToInitialState) {
    cc.discrepancy("buffers",
                   "simulation with every channel capped at its computed "
                   "minimum buffer size did not complete cleanly" +
                       (r.diagnostic.empty() ? "" : ": " + r.diagnostic),
                   atCapacity);
    return;
  }

  // Tightness: shrinking some single channel below its computed size
  // should make the capped graph stall (otherwise that size was not
  // minimal).  Channels already at their initial-token floor cannot be
  // shrunk without an invalid transform and are left out.
  std::vector<const graph::Channel*> candidates;
  for (const graph::Channel& c : g.channels()) {
    if (!g.isControlChannel(c.id) &&
        capacity[c.id.index()] - 1 >= c.initialTokens) {
      candidates.push_back(&c);
    }
  }
  if (candidates.empty()) {
    cc.skip("buffers-minus-one",
            "every capacity already equals the channel's initial tokens");
    return;
  }
  Graph firstShrunk("unset");
  for (const graph::Channel* c : candidates) {
    std::vector<std::int64_t> shrunk = capacity;
    --shrunk[c->id.index()];
    const Graph oneBelow = withChannelCapacities(g, shrunk);
    TpdfGraph oneBelowModel(oneBelow);
    const sim::SimResult rr =
        cc.simulate(oneBelowModel, cc.options.iterations);
    if (!rr.ok || !rr.returnedToInitialState) {  // stalled: size is tight
      cc.verdict.checksRun.push_back("buffers-minus-one");
      return;
    }
    if (c == candidates.front()) firstShrunk = oneBelow;
  }
  // No single channel is tight.  The greedy min-occupancy sizing is only
  // exact for chain-shaped graphs; elsewhere it is a sound upper bound
  // and a self-timed run may legally dodge the sequential schedule's
  // occupancy peak, so a slack allocation there is expected, not a bug.
  if (!isChainShaped(g)) {
    cc.skip("buffers-minus-one",
            "no single computed size is tight (sound upper bound only; "
            "exactness is claimed for chain-shaped graphs)");
    return;
  }
  cc.verdict.checksRun.push_back("buffers-minus-one");
  cc.discrepancy("buffers-minus-one",
                 "shrinking any one of " +
                     std::to_string(candidates.size()) +
                     " channel capacities by one token still left the "
                     "simulation deadlock-free, so no computed size on "
                     "this chain-shaped graph is tight (replay shrinks "
                     "channel '" +
                     candidates.front()->name + "')",
                 firstShrunk);
}

/// Both steady-state runs completed and drained back to the initial
/// token distribution.
bool cleanRun(const sim::SteadyState& s) {
  return s.warm.ok && s.warm.returnedToInitialState && s.windowed.ok &&
         s.windowed.returnedToInitialState;
}

/// The busiest actor's workload per iteration over the measurement
/// window: no steady-state period can undercut it, since every actor
/// fires serially.
double workloadLowerBound(const CheckContext& cc, std::int64_t warmup) {
  constexpr std::int64_t kWindow = sim::SteadyState::kWindow;
  double bound = 0.0;
  for (const graph::Actor& a : cc.model.graph().actors()) {
    const double w = actorWorkload(a, cc.q[a.id.index()], warmup,
                                   warmup + kWindow) /
                     static_cast<double>(kWindow);
    bound = std::max(bound, w);
  }
  return bound;
}

void checkThroughput(CheckContext& cc, const AnalysisReport& analysis) {
  const Graph& g = cc.model.graph();
  if (!analysis.bounded()) {
    cc.skip("throughput", "graph is not bounded");
    return;
  }
  const std::int64_t warmup = sim::SteadyState::warmupFor(g.actorCount());
  if (!cc.withinBudget(warmup + sim::SteadyState::kWindow)) {
    cc.skip("throughput", "repetition vector exceeds the firing budget");
    return;
  }
  const sim::SteadyState steady =
      sim::measureSteadyState(g.actorCount(), [&](std::int64_t iterations) {
        return cc.simulate(cc.model, iterations);
      });
  cc.verdict.checksRun.push_back("throughput");
  if (!cleanRun(steady)) {
    cc.discrepancy("throughput",
                   "warmup/window simulations of a bounded graph did not "
                   "complete cleanly",
                   g);
    return;
  }
  const double measured = steady.period;
  const double workloadBound = workloadLowerBound(cc, warmup);
  const sched::CanonicalPeriod period(
      g, analysis.repetition, graph::EvaluatedRates(g, cc.env), cc.env,
      cc.options.budget);
  const double pathBound = criticalPath(period);

  const double tol = cc.options.throughputTolerance;
  const double eps = 1e-9;
  // Every actor fires serially, so no window can take less than the
  // busiest actor's workload; and each iteration completes within one
  // critical path of its predecessors, so no window can take more.  For
  // acyclic graphs self-timed execution saturates the bottleneck actor
  // and the lower bound is also the exact period.
  double upper = pathBound;
  std::string upperName = "canonical critical path";
  if (isAcyclic(g)) {
    upper = workloadBound;
    upperName = "bottleneck workload (acyclic graph)";
  }
  if (measured < workloadBound * (1.0 - tol) - eps ||
      measured > upper * (1.0 + tol) + eps) {
    cc.discrepancy(
        "throughput",
        "measured steady-state period " + std::to_string(measured) +
            " is outside [" + std::to_string(workloadBound) + ", " +
            std::to_string(upper) + "] (lower: bottleneck workload, "
            "upper: " + upperName + ")",
        g);
  }
}

/// Fourth invariant (the platform refactor's cross-check): executing the
/// same graph with inter-PE transfers serialized over a bandwidth-1 bus
/// can only slow the steady state down.  The contended period must stay
/// at or above both the idealized bound (bottleneck workload — physics
/// the fabric cannot beat) and the uncontended period of the *same*
/// placement (contention never speeds anything up).
void checkContention(CheckContext& cc, const AnalysisReport& analysis) {
  const Graph& g = cc.model.graph();
  if (!analysis.bounded()) {
    cc.skip("contention", "graph is not bounded");
    return;
  }
  const std::int64_t warmup = sim::SteadyState::warmupFor(g.actorCount());
  if (!cc.withinBudget(warmup + sim::SteadyState::kWindow)) {
    cc.skip("contention", "repetition vector exceeds the firing budget");
    return;
  }
  const std::size_t pes =
      std::min<std::size_t>(4, std::max<std::size_t>(2, g.actorCount()));
  const platform::Topology fabric = platform::Topology::bus(pes, 1.0, 1.0);
  std::vector<std::size_t> actorPe(g.actorCount(), 0);
  for (const graph::Actor& a : g.actors()) {
    actorPe[a.id.index()] = a.id.index() % pes;
  }
  const sim::SteadyState onBus =
      sim::measureSteadyState(g.actorCount(), [&](std::int64_t iterations) {
        return cc.simulateOn(cc.model, iterations, fabric, actorPe);
      });
  const sim::SteadyState ideal =
      sim::measureSteadyState(g.actorCount(), [&](std::int64_t iterations) {
        return cc.simulate(cc.model, iterations);
      });
  cc.verdict.checksRun.push_back("contention");
  if (!cleanRun(onBus) || !cleanRun(ideal)) {
    cc.discrepancy("contention",
                   "contended/uncontended simulations of a bounded graph "
                   "did not complete cleanly",
                   g);
    return;
  }
  const double contended = onBus.period;
  const double uncontended = ideal.period;
  const double workloadBound = workloadLowerBound(cc, warmup);

  const double tol = cc.options.throughputTolerance;
  const double eps = 1e-9;
  if (contended < workloadBound * (1.0 - tol) - eps) {
    cc.discrepancy(
        "contention",
        "contended steady-state period " + std::to_string(contended) +
            " undercuts the idealized canonical-period bound " +
            std::to_string(workloadBound) + " (bus pes=" +
            std::to_string(pes) + ", bw=1, lat=1)",
        g);
    return;
  }
  if (contended < uncontended * (1.0 - tol) - eps) {
    cc.discrepancy(
        "contention",
        "contended steady-state period " + std::to_string(contended) +
            " is shorter than the uncontended period " +
            std::to_string(uncontended) +
            " of the same placement (contention sped the graph up)",
        g);
  }
}

}  // namespace

void crossCheck(const TpdfGraph& model, const symbolic::Environment& env,
                const DiffOptions& options, DiffReport& report,
                const std::string& file) {
  symbolic::Environment bound = env;
  for (const std::string& p : model.graph().params()) {
    if (!bound.has(p)) bound.bind(p, 2);
  }
  CheckContext cc{model, std::move(bound), options, report, GraphVerdict{},
                  {}, 0};
  cc.verdict.graph = model.name();
  cc.verdict.file = file;
  try {
    const AnalysisReport analysis = analyze(model, cc.env, options.budget);
    cc.verdict.bounded = analysis.bounded();
    if (analysis.consistent()) {
      bool overflow = false;
      for (const graph::Actor& a : model.graph().actors()) {
        std::int64_t qa = 0;
        try {
          qa = analysis.repetition.qOf(a.id).evaluateInt(cc.env);
        } catch (const support::Error&) {
          overflow = true;
          break;
        }
        cc.q.push_back(qa);
        cc.totalQ += qa;
      }
      if (overflow) {
        cc.q.clear();
        cc.totalQ = 0;
      }
    }
    const bool dynamic = usesDynamicSemantics(model);
    if (dynamic) {
      cc.skip("boundedness", "graph uses relaxed TPDF/clock semantics");
      cc.skip("buffers", "graph uses relaxed TPDF/clock semantics");
      cc.skip("throughput", "graph uses relaxed TPDF/clock semantics");
      cc.skip("contention", "graph uses relaxed TPDF/clock semantics");
    } else {
      if (options.checkBoundedness) checkBoundedness(cc, analysis);
      if (options.checkBuffers) checkBuffers(cc, analysis);
      if (options.checkThroughput) checkThroughput(cc, analysis);
      if (options.checkContention) checkContention(cc, analysis);
    }
  } catch (const support::BudgetExceeded& e) {
    // Must precede the support::Error catch (BudgetExceeded derives from
    // it): a budget trip or injected fault is a structured resource-limit
    // outcome, not an internal error.
    cc.discrepancy("resource-limit",
                   std::string("cross-check stopped by resource limit (") +
                       e.kindName() + "): " + e.what(),
                   model.graph());
  } catch (const support::Error& e) {
    cc.discrepancy("internal",
                   std::string("cross-check raised an error: ") + e.what(),
                   model.graph());
  }
  report.verdicts.push_back(std::move(cc.verdict));
}

}  // namespace tpdf::core
