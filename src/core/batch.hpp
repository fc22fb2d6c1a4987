// Concurrent batch analysis: many graphs, one process.
//
// The ROADMAP north star is a service analyzing graph workloads under
// heavy traffic; analyzeBatch() is the in-process driver for that shape
// of load.  Each graph gets its own AnalysisContext (contexts are not
// shared across threads) and runs the full Section III chain on a
// fixed-size thread pool (support/threadpool.hpp).  Results come back in
// input order regardless of completion order, and a failure (parse
// error, overflow, negative rate) is captured per entry instead of
// aborting the batch.
//
// Graphs can be supplied directly or through loader callbacks; loaders
// run on the worker threads, so file parsing parallelizes along with
// the analysis (what `tpdfc --batch` relies on).
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include <cstdint>

#include "core/analysis.hpp"
#include "graph/graph.hpp"
#include "support/budget.hpp"
#include "support/json.hpp"
#include "symbolic/env.hpp"

namespace tpdf::core {

struct BatchOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency().
  std::size_t jobs = 0;
  /// Pre-bound parameters, shared by every analysis.
  symbolic::Environment env;

  /// Per-entry resource limits (0 = unlimited): each graph gets its own
  /// budget with this deadline/work cap.  An entry that trips it is
  /// recorded as a `resourceLimited` failure and the batch continues —
  /// one slow graph never aborts the run.
  std::int64_t entryTimeoutMs = 0;
  std::int64_t entryMaxWork = 0;

  /// Optional run-wide budget: every per-entry budget chains to its
  /// cancel flag, so cancel() from any thread stops all in-flight and
  /// remaining entries (each recorded as resourceLimited).  Must outlive
  /// the analyzeBatch() call.
  support::Budget* budget = nullptr;
};

/// Outcome for one input graph.
struct BatchEntry {
  /// Graph name (or the label the loader variant was given).
  std::string name;
  /// False when loading or analysis threw; `error` holds the reason.
  bool ok = false;
  std::string error;
  /// True when the failure was the entry's budget tripping (deadline,
  /// work cap or cancellation) rather than a load/analysis error.
  bool resourceLimited = false;
  /// Source position of the failure when the loader threw a ParseError
  /// or a positioned ModelError (1-based; -1 when the failure carries no
  /// position), so batch consumers can point at the offending line.
  int errorLine = -1;
  int errorColumn = -1;
  AnalysisReport report;

  bool bounded() const { return ok && report.bounded(); }

  /// {"name": ..., "ok": true, "bounded": true, "consistent": ...} or
  /// {"name": ..., "ok": false, "error": {"message", "line", "column"}}.
  /// Verdict summaries only — the per-entry graphs are not retained by
  /// the batch driver, so the full reports are not serializable here.
  void write(support::json::Writer& w) const;
  support::json::Value toJson() const { return support::json::toValue(*this); }
};

struct BatchResult {
  /// One entry per input, in input order.
  std::vector<BatchEntry> entries;

  std::size_t analyzed() const;         // entries with ok
  std::size_t bounded() const;          // entries with ok && report.bounded()
  std::size_t failed() const;           // entries with !ok
  std::size_t resourceLimited() const;  // entries with !ok && resourceLimited

  /// {"total": N, "analyzed": N, "bounded": N, "notBounded": N,
  /// "errors": N, "resourceLimited": N (when > 0),
  /// "entries": [<BatchEntry::write>, ...]}.
  void write(support::json::Writer& w) const;
  support::json::Value toJson() const { return support::json::toValue(*this); }
};

/// A labelled graph producer; invoked on a worker thread.
struct BatchSource {
  std::string name;
  std::function<graph::Graph()> load;
};

/// Analyzes every source concurrently on a fixed pool.
BatchResult analyzeBatch(const std::vector<BatchSource>& sources,
                         const BatchOptions& options = {});

/// Convenience overload for already-built graphs (not copied; the
/// caller keeps ownership and must keep them alive until return).
BatchResult analyzeBatch(const std::vector<graph::Graph>& graphs,
                         const BatchOptions& options = {});

}  // namespace tpdf::core
