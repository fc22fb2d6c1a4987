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

// ---- SweepPoint / SweepResult JSON ---------------------------------------

void SweepPoint::write(support::json::Writer& w) const {
  bindings.write(w.beginObject().key("bindings"));
  w.member("ok", ok);
  if (!ok) {
    w.member("error", error);
    if (resourceLimited) w.member("resourceLimited", true);
    w.endObject();
    return;
  }
  w.member("consistent", consistent).member("rateSafe", rateSafe);
  w.member("live", live).member("bounded", bounded);
  if (!diagnostic.empty()) w.member("diagnostic", diagnostic);
  if (buffersComputed) {
    w.member("bufferTotal", bufferTotal);
    w.member("dataBufferTotal", dataBufferTotal);
    w.member("controlBufferTotal", controlBufferTotal);
  }
  if (periodComputed) {
    w.member("period", period).member("throughput", throughput);
  }
  // Only platform-aware sweeps carry the variant label; legacy sweeps
  // serialize byte-identically to the pre-platform format.
  if (!platform.empty()) w.member("platform", platform);
  if (buffersComputed && periodComputed) w.member("pareto", pareto);
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
  w.member("analyzed", analyzed()).member("bounded", bounded());
  w.member("notBounded", analyzed() - bounded()).member("errors", failed());
  if (resourceLimited() > 0) w.member("resourceLimited", resourceLimited());
  w.key("points").beginArray();
  for (const SweepPoint& p : points) p.write(w);
  w.endArray().key("pareto").beginArray();
  for (const std::size_t i : frontier) {
    w.beginObject().member("point", i);
    points[i].bindings.write(w.key("bindings"));
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
std::vector<std::size_t> paretoFrontier(std::vector<SweepPoint>& points) {
  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i].ok && points[i].bounded && points[i].buffersComputed &&
        points[i].periodComputed) {
      candidates.push_back(i);
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [&](std::size_t a, std::size_t b) {
              if (points[a].bufferTotal != points[b].bufferTotal) {
                return points[a].bufferTotal < points[b].bufferTotal;
              }
              if (points[a].period != points[b].period) {
                return points[a].period < points[b].period;
              }
              return a < b;
            });
  std::vector<std::size_t> frontier;
  double bestPeriod = std::numeric_limits<double>::infinity();
  std::size_t g = 0;
  while (g < candidates.size()) {
    // One group of equal bufferTotal; only its minimum-period points can
    // be non-dominated, and only if they beat every smaller buffer.
    std::size_t gEnd = g;
    while (gEnd < candidates.size() &&
           points[candidates[gEnd]].bufferTotal ==
               points[candidates[g]].bufferTotal) {
      ++gEnd;
    }
    const double groupMin = points[candidates[g]].period;  // sorted
    if (groupMin < bestPeriod) {
      for (std::size_t k = g; k < gEnd; ++k) {
        if (points[candidates[k]].period != groupMin) break;
        points[candidates[k]].pareto = true;
        frontier.push_back(candidates[k]);
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
  // enumeration: point i runs on variant i / paramGrid.
  struct PlatformVariant {
    std::string label;        // canonical spec ("" for legacy sweeps)
    std::size_t pes = 0;      // 0 = use spec.pes (no platform spec)
    double latency = 0.0;     // off-fabric latency when topology is set
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
        if (platformAware) {
          variant.label = v.canonical(spec.pes);
          platform::Topology topo = v.build(spec.pes);
          variant.pes = topo.peCount();
          if (!topo.ideal()) {
            variant.latency = v.latency;
            variant.topology.emplace(std::move(topo));
          }
        }
        variants.push_back(std::move(variant));
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

  // Valuation-major: one task per parameter valuation j runs everything
  // that does not depend on the platform (rate table, liveness, buffers,
  // canonical period) once, then list-schedules that period for each
  // variant v, i.e. grid point i = v * paramGrid + j.
  result.points.resize(pointCount);
  const std::size_t valuations = std::min(paramGrid, pointCount);
  std::vector<Environment> valuationBindings(valuations);
  const std::size_t workers = std::min(resolveJobs(spec.jobs), valuations);
  support::ThreadPool pool(workers);
  for (std::size_t j = 0; j < valuations; ++j) {
    pool.submit([&, j] {
      // Decode the row-major coordinates: the first axis varies slowest.
      std::size_t rest = j;
      std::vector<std::int64_t> coords(spec.axes.size(), 0);
      for (std::size_t a = spec.axes.size(); a-- > 0;) {
        const std::size_t n = spec.axes[a].values.size();
        coords[a] = spec.axes[a].values[rest % n];
        rest /= n;
      }

      // The valuation's analyses, run under the budget every one of its
      // points would start with.  `shared` is the point state they leave
      // behind (a failure marks every variant the same way); the
      // variants copy it and add their own list schedule.  Its bindings
      // go to valuationBindings instead (see the second pass below).
      const auto deadline = support::Budget::Clock::now() +
                            std::chrono::milliseconds(spec.pointTimeoutMs);
      support::Budget sharedBudget;
      support::Budget* budget = pointBudget(sharedBudget, deadline);
      SweepPoint shared;
      AnalysisReport report;
      std::optional<sched::CanonicalPeriod> period;
      const bool sharedOk = capture(shared, [&] {
        Environment env = spec.fixed;
        for (std::size_t a = 0; a < spec.axes.size(); ++a) {
          env.bind(spec.axes[a].param, coords[a]);
        }
        valuationBindings[j] = env;

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

        report.repetition = rv;
        report.safety = safety;
        report.liveness = checkLiveness(ctx, env, 2, rates, budget);

        shared.consistent = report.consistent();
        shared.rateSafe = report.rateSafe();
        shared.live = report.live();
        shared.bounded = report.bounded();
        if (!shared.consistent) {
          shared.diagnostic = report.repetition.diagnostic;
        } else if (!shared.rateSafe) {
          shared.diagnostic = report.safety.diagnostic;
        } else if (!shared.live) {
          shared.diagnostic = report.liveness.diagnostic;
        }

        if (shared.bounded && spec.computeBuffers) {
          const csdf::BufferReport buffers = csdf::minimumBuffers(
              g, rv, completed, spec.bufferPolicy, &rates, budget);
          if (buffers.ok) {
            shared.buffersComputed = true;
            shared.bufferTotal = buffers.total();
            shared.dataBufferTotal = buffers.dataTotal(g);
            shared.controlBufferTotal = buffers.controlTotal(g);
          } else if (shared.diagnostic.empty()) {
            shared.diagnostic = buffers.diagnostic;
          }
        }
        if (shared.bounded && spec.computePeriod) {
          period.emplace(g, rv, rates, completed, budget);
        }
      });
      const std::uint64_t sharedWork = sharedBudget.work();

      for (std::size_t i = j; i < pointCount; i += paramGrid) {
        const PlatformVariant& variant =
            variants[std::min(i / paramGrid, variants.size() - 1)];
        SweepPoint& point = result.points[i];
        point = shared;
        point.platform = variant.label;
        if (!sharedOk) continue;
        point.ok = capture(point, [&] {
          if (period.has_value()) {
            // The point's own budget, already charged with the work its
            // valuation's analyses spent: a cap trips at the same
            // checkpoint as if the point had run them itself.
            support::Budget variantBudget;
            support::Budget* vb = pointBudget(variantBudget, deadline);
            if (vb != nullptr) vb->charge(sharedWork);
            sched::Platform plat{.peCount = spec.pes};
            if (variant.pes != 0) plat.peCount = variant.pes;
            if (variant.topology.has_value()) {
              plat.linkLatency = variant.latency;
              plat.topology = &*variant.topology;
            }
            const sched::ListSchedule schedule =
                sched::listSchedule(*period, plat, {}, vb);
            point.periodComputed = true;
            point.period = schedule.makespan;
            point.throughput =
                schedule.makespan > 0.0 ? 1.0 / schedule.makespan : 0.0;
          }
          if (spec.keepReports) point.report = report;
        });
      }
    });
  }
  pool.wait();

  // The bindings are copied in a second pass, one contiguous run of
  // points per worker, so that walking the points in order (rendering
  // the document) reads them in allocation order.  Copied by the
  // valuation tasks they land scattered, which slows the render of a
  // 10k-point sweep by ~10%.
  const std::size_t run = (pointCount + workers - 1) / workers;
  for (std::size_t begin = 0; begin < pointCount; begin += run) {
    pool.submit([&, begin] {
      const std::size_t end = std::min(begin + run, pointCount);
      for (std::size_t i = begin; i < end; ++i) {
        result.points[i].bindings = valuationBindings[i % paramGrid];
      }
    });
  }
  pool.wait();

  result.frontier = paretoFrontier(result.points);
  return result;
}

SweepResult sweep(const graph::Graph& g, const SweepSpec& spec) {
  return sweep(AnalysisContext(g), spec);
}

}  // namespace tpdf::core
