// Differential verification: the event-driven simulator as an
// independent oracle for the static analysis verdicts.
//
// For every corpus graph the harness cross-checks three invariants:
//   (a) boundedness <=> steady state: a graph analyzed as bounded must
//       simulate to completion and return every channel to its initial
//       occupancy (the dynamic Theorem 2 check); a non-live or
//       inconsistent graph must stall or be rejected by the simulator;
//   (b) buffer exactness: the minimumBuffers() capacities, imposed via a
//       back-pressure transform (a reverse channel per data channel
//       carrying the free space), admit a deadlock-free simulation at
//       exactly the computed sizes, and shrinking at least one channel
//       by one token must stall;
//   (c) throughput: the measured steady-state iteration period is
//       sandwiched between the actor workload bound (max over actors of
//       one iteration's serial execution time — exact for acyclic
//       graphs) and the canonical period's critical path.
//
// A failed invariant becomes a DiffRecord carrying the .tpdf text of the
// exact graph the simulator executed, so any discrepancy can be replayed
// with `tpdfc sim` / `tpdfc analyze` without re-running the harness.
// Checks that cannot be run soundly (control semantics, firing budgets,
// unsafe rates) are skipped with a per-graph reason, never guessed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "graph/graph.hpp"
#include "support/budget.hpp"
#include "support/json.hpp"
#include "symbolic/env.hpp"

namespace tpdf::core {

struct DiffOptions {
  /// Iterations for the boundedness and buffer simulations.
  std::int64_t iterations = 2;
  /// Firing budget per simulation; graphs whose repetition vector cannot
  /// complete within it skip the simulation-backed checks.
  std::int64_t maxFirings = 1'000'000;
  bool checkBoundedness = true;
  bool checkBuffers = true;
  bool checkThroughput = true;
  /// Contention invariant: the steady-state period on a contended
  /// platform (bandwidth-1 bus) must be at least the idealized bound
  /// and at least the uncontended period of the same placement.
  bool checkContention = true;
  /// Relative tolerance for the throughput sandwich.
  double throughputTolerance = 1e-6;
  /// Negative self-test: shrink every computed buffer capacity by one
  /// before the at-capacity run, so a healthy analyzer *must* produce
  /// discrepancy records (proves the harness detects broken verdicts).
  bool tamperBufferCapacities = false;

  /// Optional resource budget for one crossCheck() call: checkpointed
  /// throughout analysis, buffer sizing, scheduling and simulation.  A
  /// trip is recorded as a "resource-limit" DiffRecord (graceful
  /// degradation, never an unwind past crossCheck).  Also the hook for
  /// deterministic fault injection: `tpdfc verify --fault-sweep` arms a
  /// FaultInjector on the budget it passes here.  Must outlive the call.
  support::Budget* budget = nullptr;
};

/// One detected disagreement between the static verdict and the
/// simulation, with enough context to replay it.
struct DiffRecord {
  std::string graph;
  std::string file;    // source path when known, else empty
  std::string check;   // "boundedness" | "buffers" | "buffers-minus-one"
                       // | "throughput" | "contention" | "resource-limit"
                       // | "internal"
  std::string detail;  // what was expected vs. what the simulator did
  /// .tpdf text of the graph the simulator actually executed (for the
  /// buffer checks this is the back-pressure-transformed graph).
  std::string replay;

  void write(support::json::Writer& w) const;
};

/// Per-graph summary: the static verdict plus which checks ran.
struct GraphVerdict {
  std::string graph;
  std::string file;
  bool bounded = false;
  std::vector<std::string> checksRun;
  /// "check: reason" for every check that could not be run soundly.
  std::vector<std::string> skipped;

  void write(support::json::Writer& w) const;
};

struct DiffReport {
  std::vector<GraphVerdict> verdicts;
  std::vector<DiffRecord> records;

  bool ok() const { return records.empty(); }
  std::size_t checksRun() const;
  /// Records whose check is "resource-limit" (budget trips / injected
  /// faults) — callers distinguish these from genuine discrepancies.
  std::size_t resourceLimited() const;

  /// {"ok": bool, "graphs": [...], "discrepancies": [...],
  ///  "graphCount": N, "checkCount": N}.
  void write(support::json::Writer& w) const;
  support::json::Value toJson() const { return support::json::toValue(*this); }
};

/// Back-pressure transform: a structural copy of `g` where every data
/// channel c additionally gets a reverse channel from c's consumer back
/// to c's producer.  The reverse out-port mirrors the consumer's rates
/// and the reverse in-port the producer's, so producing requires free
/// space and consuming returns it; the reverse channel starts with
/// `capacity[c] - initialTokens(c)` tokens (the initially free space).
/// Actor/port construction order is preserved, so ActorIds, PortIds and
/// the forward ChannelIds coincide with `g`'s.  Throws support::Error
/// when a capacity is below the channel's initial tokens.
graph::Graph withChannelCapacities(
    const graph::Graph& g, const std::vector<std::int64_t>& capacity);

/// Runs every enabled cross-check on one graph and appends the verdict
/// (and any discrepancy records) to `report`.  Unbound parameters are
/// bound to 2 so the static and dynamic oracles see the same valuation.
void crossCheck(const TpdfGraph& model, const symbolic::Environment& env,
                const DiffOptions& options, DiffReport& report,
                const std::string& file = "");

}  // namespace tpdf::core
