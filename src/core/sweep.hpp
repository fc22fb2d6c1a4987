// Parametric sweeps: design-space exploration over one symbolic graph.
//
// The point of keeping rates symbolic (the paper's Section III) is that
// one parsed graph answers questions for *many* parameter valuations.
// sweep() makes that operational: a SweepSpec names per-parameter value
// axes (ranges or explicit lists), the driver enumerates their cartesian
// grid (hard-capped, with an explicit truncation record — never a silent
// cut) and fans the parameter valuations over a thread pool while
// sharing a single read-only AnalysisContext:
//
//   * the frozen graph structure and the symbolic repetition vector are
//     computed once for the whole sweep (not once per point);
//   * rate safety is parameter-independent, so its report is computed
//     once and replicated into every point's AnalysisReport;
//   * each parameter valuation evaluates its integer rate tables
//     exactly once and reuses them across liveness, buffer sizing and
//     the canonical period (the per-binding memoization of
//     AnalysisContext, done worker-locally so the shared context is
//     never mutated — contexts are not internally synchronized);
//   * none of those depend on the platform, so a valuation runs them
//     once and every platform variant of it only list-schedules the
//     shared canonical period (one pool task per valuation).
//
// Every point carries the full boundedness verdict plus two design
// metrics: the minimum-buffer total (csdf::minimumBuffers) and the
// period of one iteration (list-schedule makespan of the canonical
// period on a `pes`-wide platform; throughput = 1/period).  The driver
// then marks the Pareto frontier of buffer-total vs. period — the
// classic memory/latency trade-off curve of design-space exploration.
//
// Per-point AnalysisReports are field-identical to a fresh
// core::analyze() at the same binding (locked in by the sweep
// equivalence property test); per-point failures are captured like
// core::analyzeBatch entries instead of aborting the sweep.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/analysis.hpp"
#include "core/context.hpp"
#include "csdf/liveness.hpp"
#include "support/json.hpp"
#include "symbolic/env.hpp"

namespace tpdf::core {

/// One swept parameter: the ordered values it takes.
struct SweepAxis {
  std::string param;
  std::vector<std::int64_t> values;

  /// lo, lo+step, ..., <= hi.  Empty when lo > hi (the caller decides
  /// whether an empty axis is an error; api::Session does).  Throws
  /// support::Error when step is not positive.
  static SweepAxis range(std::string param, std::int64_t lo, std::int64_t hi,
                         std::int64_t step = 1);

  static SweepAxis list(std::string param, std::vector<std::int64_t> values);

  /// Parses the CLI axis grammar: "lo:hi", "lo:hi:step" or "v1,v2,v3".
  /// Throws support::Error on malformed text (non-integer bounds,
  /// step <= 0).  "5:2" is NOT an error here — it resolves to an empty
  /// axis, which the sweep then reports as an empty grid.
  static SweepAxis parse(std::string param, const std::string& text);

  /// {"param": "p", "values": [1, 2, 3]}.
  void write(support::json::Writer& w) const;
};

struct SweepSpec {
  /// The grid is the cartesian product of the axes, enumerated row-major
  /// (the FIRST axis varies slowest).  Axis params must be distinct and
  /// disjoint from `fixed` — sweep() throws support::Error otherwise
  /// (api::Session turns these into invalid-request diagnostics first).
  std::vector<SweepAxis> axes;

  /// Bindings shared by every point (parameters not swept).
  symbolic::Environment fixed;

  /// Hard cap on analyzed points.  A larger grid is truncated to the
  /// first maxPoints points in enumeration order, and the result records
  /// the truncation explicitly (gridSize vs points.size()).
  std::size_t maxPoints = kDefaultMaxPoints;
  static constexpr std::size_t kDefaultMaxPoints = 65536;

  /// Worker threads; 0 means hardware concurrency.
  std::size_t jobs = 0;

  /// Per-point minimum buffer sizing (bounded points only).
  bool computeBuffers = true;
  csdf::SchedulePolicy bufferPolicy = csdf::SchedulePolicy::MinOccupancy;

  /// Per-point canonical-period construction + list scheduling (bounded
  /// points only); `pes` is the platform width the period is measured
  /// on.
  bool computePeriod = true;
  std::size_t pes = 4;

  /// Base platform spec text (platform/spec.hpp grammar) for every
  /// point; empty = the legacy ideal crossbar over `pes`.
  std::string platform;
  /// Platform axes.  Each bandwidth (and each topology spec) becomes
  /// one platform variant; the grid is the cartesian product of the
  /// parameter grid and the variants, variants varying slowest.  A
  /// topology axis entry is a complete spec of its own (the base's
  /// bw/lat do not leak into it); a bandwidth axis entry overrides the
  /// bandwidth of whichever spec is in effect.  This is what makes
  /// period-vs-link-bandwidth frontiers one sweep instead of N.
  std::vector<double> linkBandwidths;
  std::vector<std::string> topologies;

  /// Number of platform variants (1 when no platform axes are set).
  std::size_t platformVariants() const;

  /// Keep the full AnalysisReport on every point (the equivalence tests
  /// need it); each platform variant gets its own copy of its
  /// valuation's report.  Off by default: a 64k-point sweep retaining
  /// 64k sample schedules would dwarf the metrics the sweep exists to
  /// produce.
  bool keepReports = false;

  /// Per-point resource limits (0 = unlimited): each grid point gets its
  /// own budget with this deadline/work cap.  A point that trips it is
  /// recorded as a `resourceLimited` failure and the sweep continues —
  /// graceful degradation, never a whole-run abort.  A point's budget
  /// includes its share of its valuation's work: the analyses its
  /// platform variants share run once under the same limits (a trip
  /// there marks every variant of the valuation), and each variant's
  /// budget starts charged with their work and keeps their deadline, so
  /// a work cap trips exactly where a point analyzed on its own would.
  std::int64_t pointTimeoutMs = 0;
  std::int64_t pointMaxWork = 0;

  /// Optional run-wide budget: every per-point budget chains to its
  /// cancel flag, so cancel() from any thread stops all in-flight and
  /// remaining points (each recorded as resourceLimited).  Must outlive
  /// the sweep() call.
  support::Budget* budget = nullptr;

  /// Full cartesian size (may exceed maxPoints; saturates at SIZE_MAX).
  /// 0 when any axis is empty.
  std::size_t gridSize() const;
};

/// Outcome at one grid point.
struct SweepPoint {
  /// The point's bindings: axis values + the spec's fixed bindings.
  /// Parameters in neither stay unbound here and are sampled at 2 for
  /// the concrete steps, exactly like a single analyze (the defaulted
  /// names are recorded once on the SweepResult — a *swept* parameter is
  /// never defaulted).
  symbolic::Environment bindings;

  /// False when this point's evaluation threw (e.g. a rate evaluating
  /// negative at the binding); `error` holds the reason and every other
  /// field is meaningless.
  bool ok = false;
  std::string error;
  /// True when the failure was the point's budget tripping (deadline,
  /// work cap or cancellation) rather than an analysis error.
  bool resourceLimited = false;

  // Verdicts (extracted from the point's AnalysisReport).
  bool consistent = false;
  bool rateSafe = false;
  bool live = false;
  bool bounded = false;
  /// Diagnostic of the first failing stage when not bounded.
  std::string diagnostic;

  /// Engaged when SweepSpec::keepReports was set.
  std::optional<AnalysisReport> report;

  // Metrics (bounded points only).
  bool buffersComputed = false;
  std::int64_t bufferTotal = 0;
  std::int64_t dataBufferTotal = 0;
  std::int64_t controlBufferTotal = 0;

  bool periodComputed = false;
  /// List-schedule makespan of one iteration on the spec's platform.
  double period = 0.0;
  /// Iterations per time unit (0 when the period is 0).
  double throughput = 0.0;

  /// Canonical spec of the platform variant this point ran on; empty
  /// when the sweep had no platform axes or base spec.
  std::string platform;

  /// On the buffer-total vs. period Pareto frontier (no other point has
  /// both metrics <= with one strictly <).
  bool pareto = false;

  /// {"bindings": {...}, "ok": true, "bounded": true, ..., "bufferTotal":
  /// N, "period": x, "pareto": false}; metric members only when computed,
  /// {"ok": false, "error": ...} on failure.
  void write(support::json::Writer& w) const;
  support::json::Value toJson() const { return support::json::toValue(*this); }
};

struct SweepResult {
  /// The resolved axes (echoed from the spec).
  std::vector<SweepAxis> axes;
  /// Full cartesian size before the cap; points.size() after.
  std::size_t gridSize = 0;
  bool truncated = false;
  /// Graph parameters neither swept nor fixed, sampled at 2 everywhere.
  std::vector<std::string> defaulted;
  /// One entry per analyzed point, in grid enumeration order (row-major,
  /// first axis slowest) regardless of worker completion order.
  std::vector<SweepPoint> points;
  /// Indices into `points` on the Pareto frontier, by ascending
  /// bufferTotal.  Empty when buffers or periods were not computed.
  std::vector<std::size_t> frontier;

  std::size_t analyzed() const;        // points with ok
  std::size_t bounded() const;         // points with ok && bounded
  std::size_t failed() const;          // points with !ok
  std::size_t resourceLimited() const; // points with !ok && resourceLimited

  /// {"axes": [...], "gridSize": N, "points": [...], "truncated": true,
  /// "defaulted": [...], "analyzed": N, "bounded": N, "notBounded": N,
  /// "errors": N, "pareto": [{"point": i, "bindings": {...},
  /// "bufferTotal": N, "period": x}, ...]}.
  void write(support::json::Writer& w) const;
  support::json::Value toJson() const { return support::json::toValue(*this); }
};

/// Structural spec validation, shared by sweep() and the api layer (one
/// rule set, one wording): duplicate axes, an axis that is also fixed,
/// an axis for a parameter the graph does not have, non-positive axis
/// values, a zero point cap or PE count.  Returns the first violation's
/// message, or "" when the spec is well-formed.  An empty grid is NOT a
/// violation — callers decide (api::Session refuses it as empty-sweep).
std::string validateSweepSpec(const graph::Graph& g, const SweepSpec& spec);

/// Runs the sweep over a shared context.  The context is used strictly
/// read-only after a main-thread warm-up (its memoized repetition
/// vector is the one all points share), so the caller may keep using it
/// afterwards; reports are identical to per-point fresh analyses.
/// Throws support::Error with the validateSweepSpec() message on a
/// malformed spec; an empty grid is NOT a throw — the result simply has
/// no points, and api-level callers are responsible for refusing to
/// dress that up as success.
SweepResult sweep(const AnalysisContext& ctx, const SweepSpec& spec);

/// Convenience overload building a private context.
SweepResult sweep(const graph::Graph& g, const SweepSpec& spec);

}  // namespace tpdf::core
