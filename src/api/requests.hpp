// Request/response value types of the tpdf::api service façade.
//
// One request struct and one response struct per operation the toolkit
// exposes (load, analyze, schedule, buffers, map, simulate, sweep,
// batch).
// Requests are plain aggregates a client fills in; responses derive from
// api::Response (status + diagnostics, see diagnostics.hpp) and embed
// the domain report types unchanged, so existing consumers of
// core::AnalysisReport etc. keep working on top of the façade.
//
// Every response renders one stable JSON document: write() puts its
// members (status, diagnostics, payload) into the caller's open object —
// the tpdfc/tpdfd envelope — and toJson() is that object as a Value, for
// tests.  Where a graph argument is required it must be the session's
// graph for the response's graphId (Session::graph()) — responses do not
// retain graph references of their own, except MapResponse whose
// CanonicalPeriod already points into the session-owned graph.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "api/diagnostics.hpp"
#include "core/analysis.hpp"
#include "core/batch.hpp"
#include "core/differential.hpp"
#include "core/sweep.hpp"
#include "csdf/buffer.hpp"
#include "csdf/liveness.hpp"
#include "platform/spec.hpp"
#include "sched/canonical.hpp"
#include "sched/list.hpp"
#include "sim/simulator.hpp"
#include "support/json.hpp"
#include "symbolic/env.hpp"

namespace tpdf::support {
class Budget;
}

namespace tpdf::api {

/// Resource limits shared by every analysis-running request (0 means
/// unlimited).  A request that trips its limit gets Status::ResourceLimit
/// (exit code 4) with a `resource-limit` diagnostic; for the multi-unit
/// drivers (sweep, batch, verify) the limits are PER point/entry/file —
/// one slow unit is recorded and the run continues with partial results.
struct ResourceLimits {
  /// Wall-clock deadline for the operation, in milliseconds.
  std::int64_t timeoutMs = 0;
  /// Cap on analysis work units (one unit ~ one scheduled/simulated
  /// firing or one schedule-construction step).
  std::int64_t maxWork = 0;
  /// Run-wide cancellation source: when set, the request's budget chains
  /// to this parent (support::Budget::chainCancel), so one cancel()
  /// on the parent stops every request carrying it — the tpdfd daemon
  /// aborts all in-flight work this way on a hard shutdown.  Must
  /// outlive the request.
  const support::Budget* cancelParent = nullptr;

  bool limited() const {
    return timeoutMs > 0 || maxWork > 0 || cancelParent != nullptr;
  }
};

// ---- load ---------------------------------------------------------------

struct LoadRequest {
  /// Read this .tpdf file when non-empty ...
  std::string path;
  /// ... otherwise parse this inline .tpdf text.
  std::string text;
  /// Session key for the loaded graph; defaults to the graph's name.
  std::string id;
};

struct LoadResponse : Response {
  /// The key subsequent requests reference the graph by.
  std::string id;
  std::string graphName;
  std::size_t actorCount = 0;
  std::size_t channelCount = 0;
  std::vector<std::string> params;

  void write(support::json::Writer& w) const;
  support::json::Value toJson() const { return support::json::toObject(*this); }
};

// ---- analyze ------------------------------------------------------------

struct AnalyzeRequest {
  std::string graphId;
  /// Pre-bound parameters; the rest are sampled for the concrete
  /// liveness checks (core::analyze semantics).
  symbolic::Environment bindings;
  ResourceLimits limits;
};

struct AnalyzeResponse : Response {
  std::string graphId;
  std::string graphName;
  /// True when the chain actually ran (status Ok or AnalysisNegative);
  /// `report` is meaningful only then.
  bool analysisRan = false;
  core::AnalysisReport report;

  bool bounded() const { return analysisRan && report.bounded(); }

  /// `g` must be the session's graph for graphId when analysisRan; it
  /// may be null otherwise.
  void write(support::json::Writer& w, const graph::Graph* g) const;
  support::json::Value toJson(const graph::Graph* g) const {
    return support::json::toObject(*this, g);
  }
};

// ---- schedule (+ buffer sizing) -----------------------------------------

struct ScheduleRequest {
  std::string graphId;
  /// Unbound parameters are defaulted to 2 with a Note diagnostic.
  symbolic::Environment bindings;
  csdf::SchedulePolicy policy = csdf::SchedulePolicy::Eager;
  /// Also compute minimum buffer sizes when a schedule exists.
  bool computeBuffers = true;
  ResourceLimits limits;
};

struct ScheduleResponse : Response {
  std::string graphId;
  std::string graphName;
  /// The bindings actually used (request bindings + defaulted params).
  symbolic::Environment bindings;
  /// Schedule search outcome (live flag, firing order, concrete q).
  csdf::LivenessResult result;
  /// Minimum buffer sizes; meaningful when buffersComputed.
  csdf::BufferReport buffers;
  bool buffersComputed = false;

  void write(support::json::Writer& w, const graph::Graph* g) const;
  support::json::Value toJson(const graph::Graph* g) const {
    return support::json::toObject(*this, g);
  }
};

// ---- minimum buffers ----------------------------------------------------

struct BufferRequest {
  std::string graphId;
  /// Unbound parameters are defaulted to 2 with a Note diagnostic.
  symbolic::Environment bindings;
  csdf::SchedulePolicy policy = csdf::SchedulePolicy::MinOccupancy;
  ResourceLimits limits;
};

struct BufferResponse : Response {
  std::string graphId;
  std::string graphName;
  symbolic::Environment bindings;
  csdf::BufferReport report;

  void write(support::json::Writer& w, const graph::Graph* g) const;
  support::json::Value toJson(const graph::Graph* g) const {
    return support::json::toObject(*this, g);
  }
};

// ---- map (canonical period + list schedule) -----------------------------

struct MapRequest {
  std::string graphId;
  /// Unbound parameters are defaulted to 2 with a Note diagnostic.
  symbolic::Environment bindings;
  /// Worker PEs of the target platform.
  std::size_t pes = 4;
  /// Platform spec text (platform/spec.hpp grammar), e.g.
  /// "mesh:4x4,bw=8,lat=2".  Empty = the legacy ideal crossbar over
  /// `pes`; a spec with an explicit size overrides `pes`.  A malformed
  /// spec (or negative bandwidth/latency) is an invalid-platform
  /// diagnostic positioned into this string.
  std::string platform;
  sched::ListSchedulerOptions options;
  ResourceLimits limits;
};

/// Platform/contention block of a MapResponse, present when the request
/// named a non-ideal platform.
struct MapContention {
  platform::PlatformSpec spec;
  /// Fabric (worker) PE count actually used.
  std::size_t pes = 0;
  struct LinkUse {
    std::string link;
    std::int64_t transfers = 0;
    /// Static uncontended occupancy per canonical iteration.
    double busy = 0.0;
    /// busy / makespan.
    double utilization = 0.0;
  };
  /// Indexed by link id.
  std::vector<LinkUse> links;
  std::string maxContendedLink;
  /// The idealized canonical-period bound: the list-schedule makespan.
  double idealPeriod = 0.0;
  /// Contention-adjusted steady-state period measured by the routed
  /// simulation, and its uncontended (fabric-free) twin; 0.0 when the
  /// measurement was skipped (clock graphs, firing budget).
  double simulatedPeriod = 0.0;
  double uncontendedPeriod = 0.0;
  /// simulatedPeriod / uncontendedPeriod (1.0 when unmeasured).
  double slowdown = 1.0;

  void write(support::json::Writer& w) const;
};

struct MapResponse : Response {
  std::string graphId;
  std::string graphName;
  symbolic::Environment bindings;
  /// The iteration DAG; engaged when status is Ok.  Points into the
  /// session-owned graph, so it must not outlive the session entry.
  std::optional<sched::CanonicalPeriod> period;
  sched::ListSchedule schedule;
  /// Engaged when the request named a non-ideal platform; adds the
  /// "platform" and "contention" members to write().  Default (and
  /// explicitly ideal) platforms keep the report byte-identical to the
  /// pre-platform format.
  std::optional<MapContention> contention;

  void write(support::json::Writer& w) const;
  support::json::Value toJson() const { return support::json::toObject(*this); }
};

// ---- simulate -----------------------------------------------------------

struct SimulateRequest {
  std::string graphId;
  /// Unbound parameters are defaulted to 2 with a Note diagnostic.
  symbolic::Environment bindings;
  /// Platform spec text (see MapRequest::platform).  A non-ideal spec
  /// routes inter-PE transfers through the fabric (actors placed
  /// round-robin over its PEs) and adds per-link stats to the report.
  std::string platform;
  sim::SimOptions options;
  ResourceLimits limits;
};

struct SimulateResponse : Response {
  std::string graphId;
  std::string graphName;
  symbolic::Environment bindings;
  /// True when the simulator ran; `result` is meaningful only then.
  bool simulated = false;
  sim::SimResult result;

  void write(support::json::Writer& w, const graph::Graph* g) const;
  support::json::Value toJson(const graph::Graph* g) const {
    return support::json::toObject(*this, g);
  }
};

// ---- sweep (design-space exploration) -----------------------------------

struct SweepRequest {
  std::string graphId;
  /// Swept parameters: the cartesian grid of their values is analyzed
  /// point by point.  An axis parameter must belong to the graph and
  /// must not also appear in `fixed` (invalid-request otherwise —
  /// a swept parameter is never silently defaulted or overridden).
  std::vector<core::SweepAxis> axes;
  /// Bindings shared by every point.
  symbolic::Environment fixed;
  /// Hard cap on analyzed points; larger grids are truncated with an
  /// explicit `sweep-truncated` warning diagnostic.
  std::size_t maxPoints = core::SweepSpec::kDefaultMaxPoints;
  /// Worker threads; 0 means hardware concurrency.
  std::size_t jobs = 0;
  /// Platform width for the per-point period metric.
  std::size_t pes = 4;
  /// Base platform spec for every point (see MapRequest::platform);
  /// empty = the legacy ideal crossbar over `pes`.
  std::string platform;
  /// Platform axes: each bandwidth (and each topology spec) becomes one
  /// platform variant, multiplying the parameter grid — the
  /// period-vs-link-bandwidth frontier.
  std::vector<double> linkBandwidths;
  std::vector<std::string> topologies;
  /// Per-point metrics; analysis verdicts are always produced.
  bool computeBuffers = true;
  bool computePeriod = true;
  /// Retain the full per-point AnalysisReports (tests; off by default).
  bool keepReports = false;
  /// Per-POINT resource limits: a tripped point becomes a
  /// `resource-limit` diagnostic and the sweep continues (partial
  /// results), it never aborts the grid.
  ResourceLimits limits;
};

struct SweepResponse : Response {
  std::string graphId;
  std::string graphName;
  /// True when the grid was enumerated and analyzed; `result` is
  /// meaningful only then (an empty grid never ran — status
  /// invalid-request with an `empty-sweep` diagnostic).
  bool ran = false;
  core::SweepResult result;
  double elapsedMs = 0.0;
  /// The requested job count (0 = auto).
  std::size_t jobs = 0;

  void write(support::json::Writer& w) const;
  support::json::Value toJson() const { return support::json::toObject(*this); }
};

// ---- batch --------------------------------------------------------------

struct BatchRequest {
  /// Directory scanned (non-recursively) for *.tpdf files, in sorted
  /// order; may be combined with explicit `files`.
  std::string directory;
  /// Explicit input files, analyzed after the directory scan results.
  std::vector<std::string> files;
  /// Pre-bound parameters shared by every entry.
  symbolic::Environment bindings;
  /// Worker threads; 0 means hardware concurrency.
  std::size_t jobs = 0;
  /// Per-ENTRY resource limits: a tripped entry becomes a
  /// `resource-limit` diagnostic and the batch continues (partial
  /// results), it never aborts the run.
  ResourceLimits limits;
};

struct BatchResponse : Response {
  core::BatchResult result;
  std::size_t inputCount = 0;
  double elapsedMs = 0.0;
  /// The requested job count (0 = auto).
  std::size_t jobs = 0;

  void write(support::json::Writer& w) const;
  support::json::Value toJson() const { return support::json::toObject(*this); }
};

// ---- verify (differential sim-vs-static harness) ------------------------

struct VerifyRequest {
  /// Directory scanned *recursively* for *.tpdf files, in sorted order
  /// (unlike batch: the corpus lives in nested family directories); may
  /// be combined with explicit `files`.
  std::string directory;
  /// Explicit input files, verified after the directory scan results.
  std::vector<std::string> files;
  /// Pre-bound parameters shared by every graph; parameters still
  /// unbound are defaulted to 2 inside the harness.
  symbolic::Environment bindings;
  /// Harness knobs (iterations, firing budget, which checks, the
  /// tamper-capacities negative self-test).
  core::DiffOptions options;
  /// Per-FILE resource limits: a tripped file becomes a
  /// `resource-limit` diagnostic and the rest of the corpus is still
  /// verified (partial results).
  ResourceLimits limits;
  /// Fault-injection self-test: for every corpus file, first measure the
  /// clean run's checkpoint count W, then re-run the cross-check W times
  /// with a deterministic fault injected at checkpoint 1..W.  Every
  /// injection must surface as a structured `resource-limit` record —
  /// a crash, hang, or any other outcome is reported as a `fault-sweep`
  /// error.  Exercises every unwind path through the analysis stack.
  bool faultSweep = false;
  /// Caps the number of injection points per file (evenly spread over
  /// [1, W], endpoints included); 0 sweeps every checkpoint.
  std::int64_t faultSweepLimit = 0;
};

struct VerifyResponse : Response {
  std::size_t inputCount = 0;
  /// Per-graph verdicts plus every discrepancy record (each with a
  /// replayable .tpdf dump of the graph the simulator executed).
  core::DiffReport report;
  double elapsedMs = 0.0;
  /// Fault-sweep mode only: total injection points exercised across the
  /// corpus (each one produced a structured resource-limit outcome).
  std::size_t faultInjections = 0;

  void write(support::json::Writer& w) const;
  support::json::Value toJson() const { return support::json::toObject(*this); }
};

// ---- the request schema (requests.cpp) ----------------------------------
//
// Every field of the requests above that a front end can set is one
// table row in requests.cpp: wire key, tpdfc spelling, type, default and
// rule.  The wire parser, the document `tpdfc --connect` sends and
// tpdfc's argv mapping are all derived from those rows, so the CLI and
// the tpdfd wire accept the same fields with the same rules.  Members no
// front end sets have no row: graphId (tpdfc's loaded file or the
// daemon's graph reference), SweepRequest::keepReports,
// MapRequest::options, the SimOptions/DiffOptions members without a row
// and ResourceLimits::cancelParent.

/// A request by command; the alternatives follow the wire command names
/// analyze, schedule, buffers, map, simulate, sweep, batch, verify.
using Request =
    std::variant<AnalyzeRequest, ScheduleRequest, BufferRequest, MapRequest,
                 SimulateRequest, SweepRequest, BatchRequest, VerifyRequest>;

/// The default request of wire command `command`; nullopt when the
/// command has no request table (load, erase, ping, stats, dot, ...).
std::optional<Request> requestFor(std::string_view command);

/// Reads a wire document into `request`, whose alternative selects the
/// table.  "command" and the keys in `passThrough` (the daemon's graph
/// reference) are skipped; any other key the table does not declare, a
/// wrong type or a value outside the rule is an invalid-request failure
/// on `bad` naming the key.
void fromJson(const support::json::Value& doc, Request& request,
              Response& bad,
              std::span<const std::string_view> passThrough = {});

/// {"command": ..., every declared field with its value, defaults
/// included}; fromJson(toJson(r)) reproduces r field for field.
support::json::Value toJson(const Request& request);

/// One row of a command's table, as the argv mapping and tests see it.
struct FieldInfo {
  /// Wire key; "limits.timeout-ms" is a member of the "limits" object.
  std::string key;
  /// tpdfc spelling: "--iterations N", a bare switch ("--trace", which
  /// flips the default), a positional form ("name=value", "<dir>"), or
  /// "" when the field is set on the wire only.
  std::string cli;
  /// JSON type: "integer", "boolean", "string", "string array",
  /// "number array" or "object".
  std::string type;
  support::json::Value defaultValue;
};

/// The rows of wire command `command`, in table order (none when the
/// command has no table).
std::vector<FieldInfo> fieldsOf(std::string_view command);

/// True when some command's table spells `flag` with a value
/// ("--iterations N"); false for switches and unknown flags.
bool flagTakesValue(std::string_view flag);

/// tpdfc's request words (flags with their values and the name=value
/// words after the input, in argv order) -> the wire document of
/// `command` (its keys only).  `input` fills batch's "directory" and
/// verify's "directory" or "files".  Flags and pes=N that belong to
/// other commands are checked by their own row and dropped; any syntax
/// error or rule violation returns false with `error` naming the flag
/// or word.
bool argvToJson(std::string_view command, const std::string& input,
                const std::vector<std::string>& args,
                support::json::Value& doc, std::string& error);

}  // namespace tpdf::api
