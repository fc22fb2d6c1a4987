#include "core/batch.hpp"

#include <algorithm>
#include <exception>
#include <thread>

#include "core/context.hpp"
#include "support/error.hpp"
#include "support/threadpool.hpp"

namespace tpdf::core {

std::size_t BatchResult::analyzed() const {
  std::size_t n = 0;
  for (const BatchEntry& e : entries) n += e.ok ? 1 : 0;
  return n;
}

std::size_t BatchResult::bounded() const {
  std::size_t n = 0;
  for (const BatchEntry& e : entries) n += e.bounded() ? 1 : 0;
  return n;
}

std::size_t BatchResult::failed() const {
  return entries.size() - analyzed();
}

std::size_t BatchResult::resourceLimited() const {
  std::size_t n = 0;
  for (const BatchEntry& e : entries) n += (!e.ok && e.resourceLimited) ? 1 : 0;
  return n;
}

void BatchEntry::write(support::json::Writer& w) const {
  w.beginObject().member("name", name).member("ok", ok);
  if (ok) {
    w.member("consistent", report.consistent());
    w.member("rateSafe", report.rateSafe()).member("live", report.live());
    w.member("bounded", report.bounded());
  } else {
    w.key("error").beginObject().member("message", error);
    if (errorLine >= 0) {
      w.member("line", errorLine).member("column", errorColumn);
    }
    w.endObject();
    if (resourceLimited) w.member("resourceLimited", true);
  }
  w.endObject();
}

void BatchResult::write(support::json::Writer& w) const {
  w.beginObject().member("total", entries.size());
  w.member("analyzed", analyzed()).member("bounded", bounded());
  w.member("notBounded", analyzed() - bounded()).member("errors", failed());
  if (resourceLimited() > 0) w.member("resourceLimited", resourceLimited());
  w.key("entries").beginArray();
  for (const BatchEntry& e : entries) e.write(w);
  w.endArray().endObject();
}

namespace {

std::size_t resolveJobs(std::size_t requested) {
  if (requested != 0) return requested;
  const std::size_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// One task per graph; entries are pre-sized so each worker writes only
/// its own slot and no post-hoc reordering is needed.  `analyzeOne` must
/// fill entry.name and entry.report (it runs on a worker thread, under
/// the per-entry budget when the options arm one).
BatchResult runBatch(
    std::size_t count, const BatchOptions& options,
    const std::function<void(std::size_t, BatchEntry&, support::Budget*)>&
        analyzeOne) {
  BatchResult result;
  result.entries.resize(count);
  // No point spawning more workers than there are graphs.
  support::ThreadPool pool(
      std::min(resolveJobs(options.jobs), std::max<std::size_t>(count, 1)));
  for (std::size_t i = 0; i < count; ++i) {
    pool.submit([&, i] {
      BatchEntry& entry = result.entries[i];
      // Worker-local budget: single-threaded by construction, chained to
      // the run-wide cancel flag (reading the parent's atomic is the
      // only cross-thread access).
      support::Budget entryBudget(options.entryTimeoutMs,
                                  options.entryMaxWork);
      entryBudget.chainCancel(options.budget);
      support::Budget* budget =
          entryBudget.limited() ? &entryBudget : nullptr;
      try {
        analyzeOne(i, entry, budget);
        entry.ok = true;
      } catch (const support::BudgetExceeded& e) {
        // Graceful degradation: the entry is marked, the batch goes on.
        entry.error = e.what();
        entry.resourceLimited = true;
      } catch (const support::ParseError& e) {
        // Keep the source position structured: batch consumers (the
        // --json output in particular) point at the offending line
        // instead of re-parsing it out of the message text.
        entry.error = e.what();
        entry.errorLine = e.line();
        entry.errorColumn = e.column();
      } catch (const support::ModelError& e) {
        entry.error = e.what();  // positioned when the reader raised it
        entry.errorLine = e.line();
        entry.errorColumn = e.column();
      } catch (const std::exception& e) {
        entry.error = e.what();
      } catch (...) {
        // A non-std exception from a loader callback would otherwise be
        // swallowed by the pool's last-resort handler with no trace.
        entry.error = "unknown error (non-standard exception)";
      }
    });
  }
  pool.wait();
  return result;
}

}  // namespace

BatchResult analyzeBatch(const std::vector<BatchSource>& sources,
                         const BatchOptions& options) {
  return runBatch(
      sources.size(), options,
      [&](std::size_t i, BatchEntry& entry, support::Budget* budget) {
        entry.name = sources[i].name;
        const graph::Graph g = sources[i].load();
        if (entry.name.empty()) entry.name = g.name();
        const AnalysisContext ctx(g);
        entry.report = analyze(ctx, options.env, budget);
      });
}

BatchResult analyzeBatch(const std::vector<graph::Graph>& graphs,
                         const BatchOptions& options) {
  return runBatch(
      graphs.size(), options,
      [&](std::size_t i, BatchEntry& entry, support::Budget* budget) {
        entry.name = graphs[i].name();
        const AnalysisContext ctx(graphs[i]);
        entry.report = analyze(ctx, options.env, budget);
      });
}

}  // namespace tpdf::core
