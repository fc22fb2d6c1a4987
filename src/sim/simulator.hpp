// Discrete-event execution of TPDF graphs.
//
// Self-timed semantics: every actor is a sequential process (at most one
// firing in flight); a firing consumes its input tokens at start time and
// delivers its outputs at finish time.  TPDF specifics implemented here:
//   * kernels with a control port first read one control token whose tag
//     selects the mode they fire in;
//   * in a selecting mode the kernel waits only for its *active* inputs
//     (the defining TPDF relaxation); tokens arriving on rejected ports
//     are discarded ("removed") so the iteration state stays bounded;
//   * HighestPriority picks the satisfied input port with the largest
//     priority at firing time (the Transaction-at-deadline behaviour);
//   * clock control actors fire on every multiple of their period and
//     emit watchdog control tokens (Section II-B's "Clock").
//
// The run loop is event-driven over tables built once per run(): each
// actor's ports by kind with their channel indices and integer rate
// tables, its resolved mode table, clock period and behaviour.  Firing
// completions, clock ticks and fabric transfer arrivals share one binary
// heap keyed by time, then arrivals before completions, then actor id.
// A wake heap re-examines only the actors adjacent to channels that just
// received tokens (plus the actor whose firing completed) instead of
// rescanning the whole graph at every instant.
// Channels whose producer has no behaviour only ever carry default
// tokens, so they are counters; the others keep their token values in a
// ring that holds the present tokens followed by those in flight.  A
// behaviour-less firing therefore allocates nothing.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/context.hpp"
#include "core/model.hpp"
#include "platform/topology.hpp"
#include "sim/token.hpp"
#include "support/budget.hpp"
#include "support/json.hpp"
#include "symbolic/env.hpp"

namespace tpdf::sim {

/// Passed to an actor behaviour when a firing starts.
class FiringContext {
 public:
  graph::ActorId actor() const { return actor_; }
  /// 0-based firing count of this actor.
  std::int64_t firingIndex() const { return firingIndex_; }
  /// Index into the kernel's mode table (0 when the kernel has none).
  int modeIndex() const { return modeIndex_; }
  double now() const { return now_; }

  /// Tokens consumed from an input port this firing (empty for rejected
  /// ports and for ports with phase rate 0).
  const std::vector<Token>& inputs(const std::string& port) const;

  /// Queues one token for an output port; delivered at firing completion.
  /// Tokens beyond the port's phase rate are rejected with an error; if
  /// fewer are emitted, default tokens pad the difference.
  void emit(const std::string& port, Token token);

  /// Overrides the firing's execution time (defaults to the actor's
  /// per-phase execTime).
  void setDuration(double duration);
  double duration() const { return duration_; }

 private:
  friend class Simulator;

  /// One context per behaviour-driven actor and run, reused by every
  /// firing of that actor.
  FiringContext(const graph::Graph& g, graph::ActorId actor);

  /// Position in Actor::ports of the input (or output) port named
  /// `port`; npos when the actor has none.
  std::size_t slotOf(std::string_view port, bool input) const;

  const graph::Graph* graph_;
  graph::ActorId actor_;
  std::int64_t firingIndex_ = 0;
  int modeIndex_ = 0;
  double now_ = 0.0;
  double duration_ = 0.0;
  /// Token buffers by position in Actor::ports: what each input port
  /// consumed and what each output port emitted in the current firing.
  std::vector<std::vector<Token>> inputs_;
  std::vector<std::vector<Token>> outputs_;
};

/// Behaviour hook: invoked at firing start, after inputs were consumed.
using Behaviour = std::function<void(FiringContext&)>;

struct SimOptions {
  /// Wall-clock limit of simulated time; required finite when the model
  /// contains clock actors.
  double stopTime = std::numeric_limits<double>::infinity();
  /// Dataflow actors stop after completing this many graph iterations.
  std::int64_t iterations = 1;
  /// Hard safety cap on total firings.
  std::int64_t maxFirings = 1'000'000;
  /// Record one TraceEvent per firing in SimResult::trace.
  bool recordTrace = false;
  /// Optional cooperative budget, checkpointed once per event-loop step
  /// and per start attempt; run() throws support::BudgetExceeded when it
  /// trips.  Unlike maxFirings (which ends the run gracefully), a budget
  /// is a hard resource limit imposed by the caller.
  support::Budget* budget = nullptr;
  /// Optional interconnect (not owned; must outlive run()).  When set,
  /// a completed firing whose tokens cross PEs does not deliver them
  /// instantly: the transfer reserves each link of its precomputed
  /// route in turn (store-and-forward; a busy link delays it), so link
  /// contention emerges from serialization.  Transfers whose total
  /// delay is zero deliver inline, preserving the platform-free firing
  /// order — an ideal fabric reproduces trace-identical runs.
  /// Control-actor outputs are never routed (control tokens are
  /// quasi-instantaneous), nor are transfers touching a PE outside the
  /// fabric (e.g. a dedicated control PE).
  const platform::Topology* fabric = nullptr;
  /// Actor placement, indexed by actor id; required (size == actor
  /// count) when `fabric` is set.
  std::vector<std::size_t> actorPe;
};

/// One firing in the recorded execution trace.
struct TraceEvent {
  graph::ActorId actor;
  std::int64_t k = 0;    // firing index
  int mode = 0;          // selected mode
  double start = 0.0;
  double finish = 0.0;
};

struct ChannelStats {
  std::int64_t maxOccupancy = 0;
  std::int64_t produced = 0;
  std::int64_t consumed = 0;
  std::int64_t discarded = 0;
};

/// Traffic one interconnect link carried during a run (only populated
/// when SimOptions::fabric was set).
struct LinkStats {
  std::string link;
  std::int64_t transfers = 0;
  /// Total time the link was occupied by reservations.
  double busyTime = 0.0;
};

struct SimResult {
  bool ok = false;
  std::string diagnostic;
  double endTime = 0.0;
  std::int64_t totalFirings = 0;
  std::vector<std::int64_t> firings;     // per actor
  std::vector<ChannelStats> channels;    // per channel
  /// Per-link traffic, indexed by link id; empty without a fabric.
  std::vector<LinkStats> links;
  /// True when, after the requested iterations, every channel holds
  /// exactly its initial tokens again (the dynamic Theorem 2 check).
  bool returnedToInitialState = false;
  /// Populated when SimOptions::recordTrace is set; ordered by start.
  std::vector<TraceEvent> trace;

  const ChannelStats& channel(graph::ChannelId c) const {
    return channels.at(c.index());
  }

  /// Text timeline of the recorded trace, one line per firing:
  /// "[12.0-14.5] Sobel#0 (mode 0)".
  std::string renderTrace(const graph::Graph& g) const;

  /// {"ok": true, "endTime": ..., "totalFirings": N,
  /// "returnedToInitialState": true, "actors": [...], "channels": [...],
  /// "trace": [...]} ("trace" only when a trace was recorded).
  void write(support::json::Writer& w, const graph::Graph& g) const;
  support::json::Value toJson(const graph::Graph& g) const {
    return support::json::toValue(*this, g);
  }
};

class Simulator {
 public:
  Simulator(const core::TpdfGraph& model, symbolic::Environment env);

  /// Shares analysis intermediates with the caller: the repetition
  /// vector and the valuation's integer rate tables come from `ctx`
  /// (which must be built over `model.graph()` and outlive the
  /// simulator) instead of being recomputed per run() call.  Traces are
  /// identical to the two-argument constructor.
  Simulator(const core::TpdfGraph& model, symbolic::Environment env,
            const core::AnalysisContext* ctx);

  /// Installs a behaviour for an actor (payload computation, dynamic
  /// durations, control-token tags).  Without one, firings consume and
  /// produce default tokens.
  void setBehaviour(graph::ActorId actor, Behaviour behaviour);
  void setBehaviour(const std::string& actorName, Behaviour behaviour);

  SimResult run(const SimOptions& options = {});

 private:
  const core::TpdfGraph* model_;
  symbolic::Environment env_;
  /// Shared intermediates; null when the simulator owns no context and
  /// run() builds a local one.
  const core::AnalysisContext* ctx_ = nullptr;
  std::map<std::uint32_t, Behaviour> behaviours_;
};

/// A steady-state period measurement: the simulated time between
/// completing `warmup` and `warmup + kWindow` iterations, divided by the
/// window.  Both runs end with the same drain transient, so their
/// difference isolates the steady-state iteration period.
struct SteadyState {
  /// Iterations of the warm-up run for a graph of `actorCount` actors:
  /// 2N + 4.
  static std::int64_t warmupFor(std::size_t actorCount) {
    return 2 * static_cast<std::int64_t>(actorCount) + 4;
  }
  static constexpr std::int64_t kWindow = 8;

  SimResult warm;      ///< after warmupFor(actorCount) iterations
  SimResult windowed;  ///< after kWindow more; not run when !warm.ok
  double period = 0.0;
};

/// Measures the steady-state period through `run(iterations)`, which
/// simulates that many iterations and returns the SimResult.  Callers
/// judge validity themselves (which of ok / returnedToInitialState they
/// require); only a failed warm-up run skips the windowed one.
template <typename Run>
SteadyState measureSteadyState(std::size_t actorCount, Run&& run) {
  SteadyState s;
  const std::int64_t warmup = SteadyState::warmupFor(actorCount);
  s.warm = run(warmup);
  if (!s.warm.ok) return s;
  s.windowed = run(warmup + SteadyState::kWindow);
  s.period = (s.windowed.endTime - s.warm.endTime) /
             static_cast<double>(SteadyState::kWindow);
  return s;
}

}  // namespace tpdf::sim
