#include "core/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <limits>
#include <thread>
#include <utility>

#include "core/liveness.hpp"
#include "core/safety.hpp"
#include "csdf/buffer.hpp"
#include "platform/spec.hpp"
#include "platform/topology.hpp"
#include "sched/canonical.hpp"
#include "sched/list.hpp"
#include "sched/platform.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"
#include "support/threadpool.hpp"

namespace tpdf::core {

using symbolic::Environment;

// ---- SweepAxis ------------------------------------------------------------

SweepAxis SweepAxis::range(std::string param, std::int64_t lo, std::int64_t hi,
                           std::int64_t step) {
  if (step <= 0) {
    throw support::Error("sweep range for '" + param +
                         "' needs a positive step, got " +
                         std::to_string(step));
  }
  // Bounded domain: keeps hi - v overflow-free below and puts a ceiling
  // on eager materialization (an axis is a value *list*; a range that
  // large is out of scope for a grid sweep anyway).
  constexpr std::int64_t kDomain = std::int64_t{1} << 32;
  if (lo < -kDomain || hi > kDomain) {
    throw support::Error("sweep range for '" + param +
                         "' is outside the supported domain [-2^32, 2^32]");
  }
  constexpr std::int64_t kMaxAxisValues = 1 << 20;
  if (lo <= hi && (hi - lo) / step + 1 > kMaxAxisValues) {
    throw support::Error("sweep range for '" + param + "' has " +
                         std::to_string((hi - lo) / step + 1) +
                         " values; at most " +
                         std::to_string(kMaxAxisValues) +
                         " per axis are supported");
  }
  SweepAxis axis;
  axis.param = std::move(param);
  for (std::int64_t v = lo; v <= hi; v += step) {
    axis.values.push_back(v);
  }
  return axis;
}

SweepAxis SweepAxis::list(std::string param, std::vector<std::int64_t> values) {
  SweepAxis axis;
  axis.param = std::move(param);
  axis.values = std::move(values);
  return axis;
}

namespace {

std::int64_t parseAxisInt(const std::string& param, const std::string& text) {
  if (text.empty()) {
    throw support::Error("sweep values for '" + param +
                         "' contain an empty field");
  }
  std::size_t used = 0;
  std::int64_t value = 0;
  try {
    value = std::stoll(text, &used);
  } catch (const std::exception&) {
    used = text.size() + 1;  // force the malformed path below
  }
  if (used != text.size()) {
    throw support::Error("malformed sweep value '" + text + "' for '" +
                         param + "'");
  }
  return value;
}

}  // namespace

SweepAxis SweepAxis::parse(std::string param, const std::string& text) {
  if (text.find(':') != std::string::npos) {
    std::vector<std::string> parts;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= text.size(); ++i) {
      if (i == text.size() || text[i] == ':') {
        parts.push_back(text.substr(start, i - start));
        start = i + 1;
      }
    }
    if (parts.size() < 2 || parts.size() > 3) {
      throw support::Error("sweep range for '" + param +
                           "' must be lo:hi or lo:hi:step, got '" + text +
                           "'");
    }
    const std::int64_t lo = parseAxisInt(param, parts[0]);
    const std::int64_t hi = parseAxisInt(param, parts[1]);
    const std::int64_t step =
        parts.size() == 3 ? parseAxisInt(param, parts[2]) : 1;
    return range(std::move(param), lo, hi, step);
  }
  std::vector<std::int64_t> values;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == ',') {
      values.push_back(parseAxisInt(param, text.substr(start, i - start)));
      start = i + 1;
    }
  }
  return list(std::move(param), std::move(values));
}

void SweepAxis::write(support::json::Writer& w) const {
  w.beginObject().member("param", param).key("values").beginArray();
  for (const std::int64_t v : values) w.value(v);
  w.endArray().endObject();
}

// ---- SweepSpec ------------------------------------------------------------

std::size_t SweepSpec::platformVariants() const {
  const std::size_t topos = topologies.empty() ? 1 : topologies.size();
  const std::size_t bws = linkBandwidths.empty() ? 1 : linkBandwidths.size();
  return topos * bws;
}

std::size_t SweepSpec::gridSize() const {
  // Saturate at int64 max, not size_t max: the count is serialized as a
  // JSON integer (int64), and a size_t-max sentinel would render as -1.
  constexpr std::size_t kMax =
      static_cast<std::size_t>(std::numeric_limits<std::int64_t>::max());
  std::size_t total = platformVariants();
  for (const SweepAxis& axis : axes) {
    const std::size_t n = axis.values.size();
    if (n == 0) return 0;
    if (total > kMax / n) return kMax;  // saturate, never overflow
    total *= n;
  }
  return total;
}

// ---- SweepResult ----------------------------------------------------------

const AnalysisReport* SweepResult::report(std::size_t i) const {
  if (!points[i].ok || reports.empty()) return nullptr;
  const std::optional<AnalysisReport>& kept = reports[points[i].valuation];
  return kept.has_value() ? &*kept : nullptr;
}

void SweepResult::writePoint(support::json::Writer& w, std::size_t i) const {
  const SweepPoint& p = points[i];
  bindings(i).write(w.beginObject().key("bindings"));
  w.member("ok", p.ok);
  if (!p.ok) {
    w.member("error", p.error);
    if (p.resourceLimited) w.member("resourceLimited", true);
    w.endObject();
    return;
  }
  w.member("consistent", p.consistent).member("rateSafe", p.rateSafe);
  w.member("live", p.live).member("bounded", p.bounded);
  if (!diagnostic(i).empty()) w.member("diagnostic", diagnostic(i));
  if (p.buffersComputed) {
    w.member("bufferTotal", p.bufferTotal);
    w.member("dataBufferTotal", p.dataBufferTotal);
    w.member("controlBufferTotal", p.controlBufferTotal);
  }
  if (p.periodComputed) {
    w.member("period", p.period).member("throughput", p.throughput);
  }
  // Only platform-aware sweeps carry the variant label; legacy sweeps
  // serialize byte-identically to the pre-platform format.
  if (!platform(i).empty()) w.member("platform", platform(i));
  if (p.buffersComputed && p.periodComputed) w.member("pareto", p.pareto);
  w.endObject();
}

std::size_t SweepResult::analyzed() const {
  std::size_t n = 0;
  for (const SweepPoint& p : points) n += p.ok ? 1 : 0;
  return n;
}

std::size_t SweepResult::bounded() const {
  std::size_t n = 0;
  for (const SweepPoint& p : points) n += (p.ok && p.bounded) ? 1 : 0;
  return n;
}

std::size_t SweepResult::failed() const {
  return points.size() - analyzed();
}

std::size_t SweepResult::resourceLimited() const {
  std::size_t n = 0;
  for (const SweepPoint& p : points) n += (!p.ok && p.resourceLimited) ? 1 : 0;
  return n;
}

void SweepResult::write(support::json::Writer& w) const {
  w.beginObject().key("axes").beginArray();
  for (const SweepAxis& axis : axes) axis.write(w);
  w.endArray().member("gridSize", gridSize);
  w.member("analyzedPoints", points.size()).member("truncated", truncated);
  if (!defaulted.empty()) {
    w.key("defaulted").beginArray();
    for (const std::string& name : defaulted) w.value(name);
    w.endArray();
  }
  const std::size_t ok = analyzed();
  const std::size_t okBounded = bounded();
  const std::size_t limited = resourceLimited();
  w.member("analyzed", ok).member("bounded", okBounded);
  w.member("notBounded", ok - okBounded).member("errors", points.size() - ok);
  if (limited > 0) w.member("resourceLimited", limited);
  w.key("points").beginArray();
  for (std::size_t i = 0; i < points.size(); ++i) writePoint(w, i);
  w.endArray().key("pareto").beginArray();
  for (const std::size_t i : frontier) {
    w.beginObject().member("point", i);
    bindings(i).write(w.key("bindings"));
    w.member("bufferTotal", points[i].bufferTotal);
    w.member("period", points[i].period).endObject();
  }
  w.endArray().endObject();
}

// ---- Driver ---------------------------------------------------------------

namespace {

std::size_t resolveJobs(std::size_t requested) {
  if (requested != 0) return requested;
  const std::size_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// Runs `body`, recording what it throws as `point`'s failure (a budget
/// trip as resourceLimited).  Returns whether it completed.
template <typename Body>
bool capture(SweepPoint& point, Body&& body) {
  try {
    body();
    return true;
  } catch (const support::BudgetExceeded& e) {
    point.resourceLimited = true;
    point.error = e.what();
  } catch (const std::exception& e) {
    point.error = e.what();
  } catch (...) {
    point.error = "unknown error (non-standard exception)";
  }
  return false;
}

/// Marks the non-dominated points (bufferTotal vs. period, both
/// minimized) and returns their indices by ascending bufferTotal.  A
/// point survives iff no other point is <= on both metrics and < on one.
std::vector<std::size_t> paretoFrontier(std::vector<SweepPoint>& points,
                                        std::size_t valuations) {
  const auto measured = [](const SweepPoint& p) {
    return p.ok && p.bounded && p.buffersComputed && p.periodComputed;
  };
  // The variants of a valuation share its bufferTotal, so any of them
  // slower than the valuation's fastest is dominated by it.  The sort
  // runs over compact keys of the rest: about one per valuation.
  std::vector<double> fastest(valuations,
                              std::numeric_limits<double>::infinity());
  for (const SweepPoint& p : points) {
    if (measured(p)) {
      fastest[p.valuation] = std::min(fastest[p.valuation], p.period);
    }
  }
  struct Key {
    std::int64_t buffers;
    double period;
    std::size_t index;
  };
  std::vector<Key> keys;
  keys.reserve(valuations);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    if (measured(p) && p.period == fastest[p.valuation]) {
      keys.push_back({p.bufferTotal, p.period, i});
    }
  }
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    if (a.buffers != b.buffers) return a.buffers < b.buffers;
    if (a.period != b.period) return a.period < b.period;
    return a.index < b.index;
  });
  std::vector<std::size_t> frontier;
  double bestPeriod = std::numeric_limits<double>::infinity();
  std::size_t g = 0;
  while (g < keys.size()) {
    // One group of equal bufferTotal; only its minimum-period points can
    // be non-dominated, and only if they beat every smaller buffer.
    std::size_t gEnd = g;
    while (gEnd < keys.size() && keys[gEnd].buffers == keys[g].buffers) {
      ++gEnd;
    }
    const double groupMin = keys[g].period;  // sorted
    if (groupMin < bestPeriod) {
      for (std::size_t k = g; k < gEnd && keys[k].period == groupMin; ++k) {
        points[keys[k].index].pareto = true;
        frontier.push_back(keys[k].index);
      }
      bestPeriod = groupMin;
    }
    g = gEnd;
  }
  return frontier;
}

}  // namespace

std::string validateSweepSpec(const graph::Graph& g, const SweepSpec& spec) {
  if (spec.maxPoints == 0) {
    return "sweep point cap must be positive";
  }
  if (spec.pes == 0) {
    return "platform must have at least one PE";
  }
  const auto& params = g.params();
  for (std::size_t i = 0; i < spec.axes.size(); ++i) {
    const std::string& name = spec.axes[i].param;
    for (std::size_t j = 0; j < i; ++j) {
      if (spec.axes[j].param == name) {
        return "parameter '" + name + "' is swept twice";
      }
    }
    // A parameter is swept *or* fixed, never both: a fixed binding
    // would silently pin every grid point of the axis.
    if (spec.fixed.has(name)) {
      return "parameter '" + name + "' is both swept and fixed";
    }
    if (std::find(params.begin(), params.end(), name) == params.end()) {
      return "swept parameter '" + name + "' is not a parameter of graph '" +
             g.name() + "'";
    }
    for (const std::int64_t v : spec.axes[i].values) {
      if (v <= 0) {
        return "swept parameter '" + name + "' takes non-positive value " +
               std::to_string(v) + " (parameters are strictly positive)";
      }
    }
  }
  if (!spec.platform.empty()) {
    const platform::SpecParse parsed = platform::parsePlatformSpec(spec.platform);
    if (!parsed.ok) {
      return "invalid platform spec '" + spec.platform + "': " + parsed.error;
    }
  }
  for (const std::string& topo : spec.topologies) {
    const platform::SpecParse parsed = platform::parsePlatformSpec(topo);
    if (!parsed.ok) {
      return "invalid topology axis spec '" + topo + "': " + parsed.error;
    }
  }
  for (const double bw : spec.linkBandwidths) {
    if (!(bw > 0.0)) {
      return "link bandwidth axis values must be positive, got " +
             support::formatDouble(bw);
    }
  }
  return "";
}

SweepResult sweep(const AnalysisContext& ctx, const SweepSpec& spec) {
  const graph::Graph& g = ctx.graph();
  const std::string violation = validateSweepSpec(g, spec);
  if (!violation.empty()) {
    throw support::Error(violation);
  }

  SweepResult result;
  result.axes = spec.axes;
  result.gridSize = spec.gridSize();
  result.truncated = result.gridSize > spec.maxPoints;
  const std::size_t pointCount =
      std::min(result.gridSize, spec.maxPoints);

  // Platform variants: the (topology × bandwidth) cartesian product of
  // the platform axes applied to the base spec, built once up front and
  // shared read-only by the workers.  Variants vary slowest in the grid
  // enumeration: point i runs on variant i / paramGrid.  Labels go to
  // result.platforms ("" for legacy sweeps).
  struct PlatformVariant {
    sched::Platform platform;
    std::optional<platform::Topology> topology;  // nullopt = ideal
  };
  const bool platformAware = !spec.platform.empty() ||
                             !spec.topologies.empty() ||
                             !spec.linkBandwidths.empty();
  std::vector<PlatformVariant> variants;
  {
    std::vector<platform::PlatformSpec> bases;
    if (spec.topologies.empty()) {
      platform::PlatformSpec base;  // ideal crossbar over spec.pes
      if (!spec.platform.empty()) {
        base = platform::parsePlatformSpec(spec.platform).spec;
      }
      bases.push_back(base);
    } else {
      // A topology axis entry is a complete spec of its own; the base's
      // bandwidth/latency do not leak into it (validateSweepSpec already
      // vouched that every entry parses).
      for (const std::string& t : spec.topologies) {
        bases.push_back(platform::parsePlatformSpec(t).spec);
      }
    }
    for (const platform::PlatformSpec& base : bases) {
      std::vector<platform::PlatformSpec> finals;
      if (spec.linkBandwidths.empty()) {
        finals.push_back(base);
      } else {
        for (const double bw : spec.linkBandwidths) {
          platform::PlatformSpec v = base;
          v.bandwidth = bw;
          finals.push_back(v);
        }
      }
      for (const platform::PlatformSpec& v : finals) {
        PlatformVariant variant;
        variant.platform.peCount = spec.pes;
        result.platforms.emplace_back();
        if (platformAware) {
          result.platforms.back() = v.canonical(spec.pes);
          platform::Topology topo = v.build(spec.pes);
          variant.platform.peCount = topo.peCount();
          if (!topo.ideal()) {
            variant.platform.linkLatency = v.latency;
            variant.topology.emplace(std::move(topo));
          }
        }
        variants.push_back(std::move(variant));
      }
    }
    // The vector is complete: its topologies no longer move.
    for (PlatformVariant& variant : variants) {
      if (variant.topology.has_value()) {
        variant.platform.topology = &*variant.topology;
      }
    }
  }
  // Parameter-only grid size, for the variant/coordinate index split.
  // Saturating like gridSize(); a saturated paramGrid pins every
  // analyzed point (pointCount <= maxPoints) to variant 0, which is the
  // only variant such a grid can reach anyway.
  std::size_t paramGrid = 1;
  {
    constexpr std::size_t kMax =
        static_cast<std::size_t>(std::numeric_limits<std::int64_t>::max());
    for (const SweepAxis& axis : spec.axes) {
      const std::size_t n = axis.values.size();
      if (n == 0 || paramGrid > kMax / n) {
        paramGrid = n == 0 ? 1 : kMax;
        break;
      }
      paramGrid *= n;
    }
  }

  for (const std::string& param : g.params()) {
    bool covered = spec.fixed.has(param);
    for (const SweepAxis& axis : spec.axes) covered |= axis.param == param;
    if (!covered) result.defaulted.push_back(param);
  }
  if (pointCount == 0) return result;  // empty grid: zero points, no verdicts

  // Main-thread warm-up: after this the context is only ever read, so
  // the workers can share it without synchronization.
  const csdf::RepetitionVector& rv = ctx.repetition();
  const RateSafetyReport safety = checkRateSafety(ctx);

  // Per-point budget: deadline/work cap from the spec, chained to the
  // run-wide cancel flag.  Passed down only when actually limited, so an
  // unbudgeted sweep pays nothing per firing.
  const auto pointBudget = [&spec](support::Budget& budget,
                                   support::Budget::Clock::time_point deadline)
      -> support::Budget* {
    if (spec.pointTimeoutMs > 0) budget.setDeadline(deadline);
    if (spec.pointMaxWork > 0) {
      budget.setMaxWork(static_cast<std::uint64_t>(spec.pointMaxWork));
    }
    budget.chainCancel(spec.budget);
    return budget.limited() ? &budget : nullptr;
  };

  // Row-major strides: valuation j takes value (j / stride[a]) % n of
  // axis a (the first axis varies slowest).  A saturated grid is cut to
  // its first maxPoints valuations, which only reach the low digits.
  const std::size_t valuations = std::min(paramGrid, pointCount);
  std::vector<std::size_t> strides(spec.axes.size(), 1);
  {
    std::size_t stride = 1;
    for (std::size_t a = spec.axes.size(); a-- > 0;) {
      strides[a] = stride;
      const std::size_t n = spec.axes[a].values.size();
      stride = stride > valuations / n ? valuations : stride * n;
    }
  }

  // Every valuation binds the same names: they are inserted (and their
  // ids interned, under the parameter table's lock) once here, and a
  // task's copy only overwrites the values.
  Environment skeleton = spec.fixed;
  for (const SweepAxis& axis : spec.axes) skeleton.bind(axis.param, 1);

  // Valuation-major: one task per parameter valuation j runs everything
  // that does not depend on the platform (rate table, liveness, buffers,
  // canonical period) once, then list-schedules that period for each
  // variant v, i.e. grid point i = v * paramGrid + j.
  result.points.resize(pointCount);
  result.valuations.resize(valuations);
  if (spec.keepReports) result.reports.resize(valuations);
  const std::size_t workers = std::min(resolveJobs(spec.jobs), valuations);
  support::ThreadPool pool(workers);
  for (std::size_t j = 0; j < valuations; ++j) {
    pool.submit([&, j] {
      SweepValuation& valuation = result.valuations[j];
      // The valuation's analyses, run under the budget every one of its
      // points would start with.  `shared` is the point state they leave
      // behind (a failure marks every variant the same way); the
      // variants copy it and add their own list schedule.
      const auto deadline = support::Budget::Clock::now() +
                            std::chrono::milliseconds(spec.pointTimeoutMs);
      support::Budget sharedBudget;
      support::Budget* budget = pointBudget(sharedBudget, deadline);
      SweepPoint shared;
      std::optional<sched::CanonicalPeriod> period;
      const bool sharedOk = capture(shared, [&] {
        Environment& env = valuation.bindings;
        env = skeleton;
        for (std::size_t a = 0; a < spec.axes.size(); ++a) {
          const std::vector<std::int64_t>& values = spec.axes[a].values;
          env.bind(spec.axes[a].param,
                   values[(j / strides[a]) % values.size()]);
        }

        // The per-binding memoization, worker-local: evaluate every rate
        // expression exactly once and reuse the table across liveness,
        // buffer sizing and the canonical period.  `completed` is the
        // sample environment checkLiveness builds internally (unbound,
        // never-swept parameters at 2).
        Environment completed = env;
        for (const std::string& param : g.params()) {
          if (!completed.has(param)) completed.bind(param, 2);
        }
        const graph::EvaluatedRates rates(g, completed);

        LivenessReport liveness = checkLiveness(ctx, env, 2, rates, budget);
        shared.consistent = rv.consistent;
        shared.rateSafe = safety.safe;
        shared.live = liveness.live;
        shared.bounded = shared.consistent && shared.rateSafe && shared.live;
        if (!shared.consistent) {
          valuation.diagnostic = rv.diagnostic;
        } else if (!shared.rateSafe) {
          valuation.diagnostic = safety.diagnostic;
        } else if (!shared.live) {
          valuation.diagnostic = liveness.diagnostic;
        }

        if (shared.bounded && spec.computeBuffers) {
          const csdf::BufferReport buffers = csdf::minimumBuffers(
              g, rv, completed, spec.bufferPolicy, &rates, budget);
          if (buffers.ok) {
            shared.buffersComputed = true;
            shared.bufferTotal = buffers.total();
            shared.dataBufferTotal = buffers.dataTotal(g);
            shared.controlBufferTotal = buffers.controlTotal(g);
          } else if (valuation.diagnostic.empty()) {
            valuation.diagnostic = buffers.diagnostic;
          }
        }
        if (shared.bounded && spec.computePeriod) {
          period.emplace(g, rv, rates, completed, budget);
        }
        if (spec.keepReports) {
          result.reports[j] = AnalysisReport{rv, safety, std::move(liveness)};
        }
      });
      const std::uint64_t sharedWork = sharedBudget.work();

      std::optional<sched::ListScheduler> scheduler;
      if (period.has_value()) scheduler.emplace(*period);
      for (std::size_t i = j; i < pointCount; i += paramGrid) {
        const std::size_t v = std::min(i / paramGrid, variants.size() - 1);
        SweepPoint& point = result.points[i];
        point = shared;
        point.valuation = j;
        point.variant = v;
        if (!sharedOk) continue;
        point.ok = capture(point, [&] {
          if (!scheduler.has_value()) return;
          // The point's own budget, already charged with the work its
          // valuation's analyses spent: a cap trips at the same
          // checkpoint as if the point had run them itself.
          support::Budget variantBudget;
          support::Budget* vb = pointBudget(variantBudget, deadline);
          if (vb != nullptr) vb->charge(sharedWork);
          point.period = scheduler->run(variants[v].platform, vb);
          point.periodComputed = true;
          point.throughput = point.period > 0.0 ? 1.0 / point.period : 0.0;
        });
      }
    });
  }
  pool.wait();

  result.frontier = paretoFrontier(result.points, valuations);
  return result;
}

SweepResult sweep(const graph::Graph& g, const SweepSpec& spec) {
  return sweep(AnalysisContext(g), spec);
}

}  // namespace tpdf::core
