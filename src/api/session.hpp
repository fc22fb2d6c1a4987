// The tpdf::api service façade: a Session over the whole toolkit.
//
// A Session owns parsed graphs and lazily builds one memoized
// core::AnalysisContext per graph, so repeated requests against the same
// graph (analyze, then schedule, then map, then simulate — or the same
// analysis at many valuations) reuse the shared intermediates instead of
// re-deriving them per call.  This is the stable, versioned API boundary
// the CLI and any future remote serving layer sit on; the Graph /
// AnalysisContext entry points below it remain the internal layer the
// façade composes.
//
// Contract:
//   * A stored graph is read-only: the context built over it seals it
//     (graph/graph.hpp), so its memoized intermediates never go stale.
//   * No exception ever crosses a Session method: every failure is
//     mapped to a Status + Diagnostic list on the response
//     (diagnostics.hpp), with ParseError positions kept structured.
//   * Responses embed the unchanged domain report types; pair them with
//     Session::graph(id) to render text or JSON.
//   * A Session is NOT internally synchronized (same rule as
//     AnalysisContext): share one per thread or guard it externally.
//     batch() is the exception — it spawns its own worker pool but
//     touches no session state.  sweep() fans out over a pool too, but
//     warms the graph's context on the calling thread and then shares
//     it strictly read-only.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/requests.hpp"
#include "core/context.hpp"
#include "core/model.hpp"
#include "graph/graph.hpp"

namespace tpdf::api {

class Session {
 public:
  Session() = default;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Parses a .tpdf file or inline text and stores the graph under
  /// LoadResponse::id.  Duplicate ids are rejected (erase() first).
  LoadResponse load(const LoadRequest& request);

  /// Runs the full Section III chain.  Status Ok iff bounded,
  /// AnalysisNegative with one diagnostic per failing stage otherwise.
  AnalyzeResponse analyze(const AnalyzeRequest& request);

  /// Finds a one-iteration schedule (and, by default, minimum buffer
  /// sizes) at a concrete valuation.
  ScheduleResponse schedule(const ScheduleRequest& request);

  /// Minimum per-channel buffer sizes at a concrete valuation.
  BufferResponse buffers(const BufferRequest& request);

  /// Canonical period + list schedule on an MPPA-like platform.
  MapResponse map(const MapRequest& request);

  /// Discrete-event simulation (default token behaviours).
  SimulateResponse simulate(const SimulateRequest& request);

  /// Analyzes many .tpdf files concurrently.  Session state is neither
  /// read nor written: per-entry failures become diagnostics, and the
  /// status is Ok when every entry loaded and analyzed (negative
  /// verdicts are results, not errors).
  BatchResponse batch(const BatchRequest& request);

  /// Design-space exploration: analyzes the cartesian grid of the
  /// request's parameter axes on a thread pool, sharing the graph's
  /// memoized AnalysisContext across every point (the repetition vector
  /// and rate safety are computed once per sweep, not once per point).
  /// Negative verdicts are results; per-point failures become
  /// `sweep-point` diagnostics.  A request whose grid is empty (lo > hi,
  /// empty value list) is refused as invalid-request with an
  /// `empty-sweep` diagnostic — it never masquerades as a clean sweep.
  SweepResponse sweep(const SweepRequest& request);

  /// Differential verification: runs the sim-vs-static cross-checks of
  /// core/differential.hpp over every .tpdf found under the request's
  /// directory (recursively, unlike batch — the corpus lives in nested
  /// family directories) plus any explicit files.  Session state is
  /// neither read nor written.  Status is AnalysisNegative when any
  /// discrepancy was recorded (one `discrepancy` diagnostic each),
  /// InputError when a corpus file failed to load.
  VerifyResponse verify(const VerifyRequest& request);

  // ---- Introspection -----------------------------------------------

  bool has(const std::string& id) const;
  /// Loaded graph ids, in id order.
  std::vector<std::string> graphIds() const;
  /// The stored graph; nullptr when `id` is unknown.  Stays valid until
  /// the entry is erased or the session destroyed.
  const graph::Graph* graph(const std::string& id) const;
  /// The TPDF metadata wrapper around the stored graph.
  const core::TpdfGraph* model(const std::string& id) const;
  /// The memoized context; nullptr until a request first needed it.
  /// Repeated requests reuse this exact object (the memoization the
  /// repeated-analysis bench pins down).
  const core::AnalysisContext* context(const std::string& id) const;
  /// Drops a graph (and its context).  Returns false when unknown.
  bool erase(const std::string& id);

  /// Stores an externally-owned graph — and, optionally, its already-
  /// memoized context — under `id` without parsing anything.  This is
  /// how the tpdfd graph cache shares one model + AnalysisContext
  /// across client sessions: each client adopts the cache entry under
  /// its own id, and the shared_ptrs keep the state alive even after a
  /// cache eviction.  Rejects a duplicate id or a null model (false).
  /// Concurrency rule unchanged: callers of ANY request against an
  /// adopted graph must serialize on the shared context externally.
  bool adopt(const std::string& id, std::shared_ptr<core::TpdfGraph> model,
             std::shared_ptr<core::AnalysisContext> ctx = nullptr);

 private:
  struct Entry {
    std::shared_ptr<core::TpdfGraph> model;
    std::shared_ptr<core::AnalysisContext> ctx;
  };

  /// Looks up `id`, recording an unknown-graph failure on `response`.
  Entry* resolve(const std::string& id, Response& response);
  /// The entry's context, built on first use over the stored graph.
  core::AnalysisContext& contextOf(Entry& entry);

  // Model and context live behind shared_ptrs (heap-stable, shareable
  // with the tpdfd graph cache via adopt()); std::map keeps graphIds()
  // in id order.
  std::map<std::string, Entry> entries_;
};

}  // namespace tpdf::api
