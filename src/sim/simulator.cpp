#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <optional>
#include <queue>
#include <set>

#include "csdf/repetition.hpp"
#include "support/checked.hpp"
#include "support/error.hpp"

namespace tpdf::sim {

using graph::ActorId;
using graph::ActorKind;
using graph::ChannelId;
using graph::Graph;
using graph::PortId;
using graph::PortKind;

// ---- FiringContext ----------------------------------------------------

FiringContext::FiringContext(const Graph& g, ActorId actor,
                             std::int64_t firingIndex, int modeIndex,
                             double now, double duration)
    : graph_(&g),
      actor_(actor),
      firingIndex_(firingIndex),
      modeIndex_(modeIndex),
      now_(now),
      duration_(duration) {}

const std::vector<Token>& FiringContext::inputs(
    const std::string& port) const {
  static const std::vector<Token> kEmpty;
  const auto it = inputs_.find(port);
  return it == inputs_.end() ? kEmpty : it->second;
}

void FiringContext::emit(const std::string& port, Token token) {
  outputs_[port].push_back(std::move(token));
}

void FiringContext::setDuration(double duration) {
  if (duration < 0.0) {
    throw support::Error("negative firing duration");
  }
  duration_ = duration;
}

// ---- Simulator ----------------------------------------------------------

Simulator::Simulator(const core::TpdfGraph& model, symbolic::Environment env)
    : Simulator(model, std::move(env), nullptr) {}

Simulator::Simulator(const core::TpdfGraph& model, symbolic::Environment env,
                     const core::AnalysisContext* ctx)
    : model_(&model), env_(std::move(env)), ctx_(ctx) {
  if (ctx_ != nullptr && &ctx_->graph() != &model.graph()) {
    throw support::Error(
        "analysis context was built for a different graph than the "
        "simulated model");
  }
  model.validate();
}

void Simulator::setBehaviour(ActorId actor, Behaviour behaviour) {
  behaviours_[actor.value] = std::move(behaviour);
}

void Simulator::setBehaviour(const std::string& actorName,
                             Behaviour behaviour) {
  const auto id = model_->graph().findActor(actorName);
  if (!id) {
    throw support::Error("unknown actor '" + actorName + "'");
  }
  setBehaviour(*id, std::move(behaviour));
}

std::string SimResult::renderTrace(const graph::Graph& g) const {
  std::string out;
  for (const TraceEvent& e : trace) {
    char line[128];
    std::snprintf(line, sizeof(line), "[%.6g-%.6g] %s#%lld (mode %d)\n",
                  e.start, e.finish, g.actor(e.actor).name.str().c_str(),
                  static_cast<long long>(e.k), e.mode);
    out += line;
  }
  return out;
}

void SimResult::write(support::json::Writer& w, const graph::Graph& g) const {
  w.beginObject().member("ok", ok);
  if (!diagnostic.empty()) w.member("diagnostic", diagnostic);
  w.member("endTime", endTime).member("totalFirings", totalFirings);
  w.member("returnedToInitialState", returnedToInitialState);
  w.key("actors").beginArray();
  for (std::size_t i = 0; i < firings.size(); ++i) {
    w.beginObject().member("actor", g.actors()[i].name);
    w.member("firings", firings[i]).endObject();
  }
  w.endArray().key("channels").beginArray();
  for (std::size_t i = 0; i < channels.size(); ++i) {
    const ChannelStats& s = channels[i];
    w.beginObject().member("channel", g.channels()[i].name);
    w.member("maxOccupancy", s.maxOccupancy).member("produced", s.produced);
    w.member("consumed", s.consumed).member("discarded", s.discarded);
    w.endObject();
  }
  w.endArray();
  if (!links.empty()) {
    w.key("links").beginArray();
    for (const LinkStats& l : links) {
      w.beginObject().member("link", l.link).member("transfers", l.transfers);
      w.member("busyTime", l.busyTime);
      w.member("utilization", endTime > 0.0 ? l.busyTime / endTime : 0.0);
      w.endObject();
    }
    w.endArray();
  }
  if (!trace.empty()) {
    w.key("trace").beginArray();
    for (const TraceEvent& e : trace) {
      w.beginObject().member("actor", g.actor(e.actor).name);
      w.member("k", e.k).member("mode", e.mode).member("start", e.start);
      w.member("finish", e.finish).endObject();
    }
    w.endArray();
  }
  w.endObject();
}

namespace {

constexpr std::int64_t kUnlimited =
    std::numeric_limits<std::int64_t>::max();

struct RunState {
  std::vector<std::deque<Token>> queue;    // per channel
  std::vector<std::int64_t> discardDebt;   // per channel
  std::vector<ChannelStats> stats;

  void push(std::size_t c, Token t) {
    ++stats[c].produced;
    if (discardDebt[c] > 0) {
      --discardDebt[c];
      ++stats[c].discarded;
      return;
    }
    queue[c].push_back(std::move(t));
    stats[c].maxOccupancy = std::max(
        stats[c].maxOccupancy, static_cast<std::int64_t>(queue[c].size()));
  }

  Token pop(std::size_t c) {
    Token t = std::move(queue[c].front());
    queue[c].pop_front();
    ++stats[c].consumed;
    return t;
  }

  /// Registers `n` tokens of channel c as rejected; present tokens are
  /// dropped now, missing ones on arrival.
  void discard(std::size_t c, std::int64_t n) {
    while (n > 0 && !queue[c].empty()) {
      queue[c].pop_front();
      ++stats[c].discarded;
      --n;
    }
    discardDebt[c] += n;
  }
};

}  // namespace

SimResult Simulator::run(const SimOptions& options) {
  const Graph& g = model_->graph();
  SimResult result;
  result.firings.resize(g.actorCount(), 0);

  // Shared intermediates: the caller's context when one was provided,
  // otherwise a run-local one (same cost profile as the pre-context
  // implementation).
  std::optional<core::AnalysisContext> localCtx;
  const core::AnalysisContext& ctx =
      ctx_ != nullptr ? *ctx_ : localCtx.emplace(g);

  // Concrete repetition vector for the iteration limits.
  const csdf::RepetitionVector& rv = ctx.repetition();
  if (!rv.consistent) {
    result.diagnostic = "graph is not rate consistent: " + rv.diagnostic;
    return result;
  }

  bool hasClock = false;
  std::vector<ActorState> actors(g.actorCount());
  for (const graph::Actor& a : g.actors()) {
    ActorState& st = actors[a.id.index()];
    if (a.kind == ActorKind::Control &&
        model_->controlKind(a.id) == core::ControlKind::Clock) {
      hasClock = true;
      st.limit = kUnlimited;
      st.nextClockTick = *model_->clockPeriod(a.id);
    } else {
      st.limit = support::checkedMul(rv.qOf(a.id).evaluateInt(env_),
                                     options.iterations);
    }
  }
  if (hasClock && !std::isfinite(options.stopTime)) {
    result.diagnostic =
        "model contains clock actors: a finite stopTime is required";
    return result;
  }

  // ---- Interconnect state (fabric-routed runs only). --------------------
  const tpdf::platform::Topology* fabric = options.fabric;
  if (fabric != nullptr && options.actorPe.size() != g.actorCount()) {
    result.diagnostic = "fabric placement covers " +
                        std::to_string(options.actorPe.size()) +
                        " actors but the graph has " +
                        std::to_string(g.actorCount());
    return result;
  }
  // Earliest instant each link is free again; reservations serialize.
  std::vector<double> linkFree;
  if (fabric != nullptr) {
    linkFree.assign(fabric->links().size(), 0.0);
    result.links.resize(fabric->links().size());
    for (const tpdf::platform::Link& l : fabric->links()) {
      result.links[l.id].link = l.name;
    }
  }
  // In-flight transfers keyed by (arrival, sequence): tokens that left
  // their producer but have not reached the consumer's queue yet.
  std::uint64_t transferSeq = 0;
  std::map<std::pair<double, std::uint64_t>,
           std::pair<std::size_t, std::vector<Token>>>
      transfers;

  RunState state;
  state.queue.resize(g.channelCount());
  state.discardDebt.resize(g.channelCount(), 0);
  state.stats.resize(g.channelCount());
  for (const graph::Channel& c : g.channels()) {
    for (std::int64_t i = 0; i < c.initialTokens; ++i) {
      state.queue[c.id.index()].push_back(Token{});
    }
    state.stats[c.id.index()].maxOccupancy = c.initialTokens;
  }

  const std::vector<core::ModeSpec> defaultModes{
      core::ModeSpec{"default", core::Mode::WaitAll, {}, {}}};

  // Every port's rate sequence as integers over the actor's tau phases,
  // from the context's memoized tables; the per-firing lookup in the hot
  // loop is a plain array index instead of a RateSeq copy plus symbolic
  // evaluation (and with a shared context, the evaluation itself
  // happened at most once per valuation across analyze + simulate).
  const graph::EvaluatedRates& portRates = ctx.rates(env_);
  auto phaseRate = [&](PortId pid, std::int64_t firing) {
    return portRates.at(pid, firing);
  };

  // Actors to (re-)try starting at the current instant, in id order.  A
  // token arrival can only change the startability of the channel's one
  // consumer (Graph::destActor), so that is the only actor it wakes.
  std::set<std::size_t> wake;
  for (std::size_t i = 0; i < g.actorCount(); ++i) wake.insert(i);

  // Future events: firing completions and clock ticks, keyed by time.
  using Event = std::pair<double, std::size_t>;  // (time, actor)
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>>
      events;
  for (const graph::Actor& a : g.actors()) {
    if (a.kind == ActorKind::Control &&
        model_->controlKind(a.id) == core::ControlKind::Clock) {
      events.push({actors[a.id.index()].nextClockTick, a.id.index()});
    }
  }

  auto modeSpecOf = [&](const graph::Actor& a,
                        int modeIndex) -> const core::ModeSpec& {
    const auto& modes = model_->modes(a.id);
    if (modes.empty()) return defaultModes[0];
    return modes[static_cast<std::size_t>(modeIndex) % modes.size()];
  };

  // Decides whether actor `a` can start a firing now; fills `selected`
  // with the data-input ports to consume from.
  auto selectInputs = [&](const graph::Actor& a, const ActorState& st,
                          int modeIndex,
                          std::vector<PortId>& selected) -> bool {
    const core::ModeSpec& spec = modeSpecOf(a, modeIndex);

    std::vector<PortId> candidates;
    for (PortId pid : a.ports) {
      const graph::Port& p = g.port(pid);
      if (p.kind != PortKind::DataIn) continue;
      if (a.kind == ActorKind::Kernel && spec.mode != core::Mode::WaitAll &&
          !spec.activeInputs.empty()) {
        const bool active =
            std::find(spec.activeInputs.begin(), spec.activeInputs.end(),
                      pid) != spec.activeInputs.end();
        if (!active) continue;
      }
      candidates.push_back(pid);
    }

    if (a.kind == ActorKind::Kernel &&
        spec.mode == core::Mode::HighestPriority) {
      // Fire as soon as one candidate with a positive rate is satisfied;
      // take the satisfied candidate with the highest priority.
      PortId best;
      int bestPriority = std::numeric_limits<int>::min();
      bool anyPositive = false;
      for (PortId pid : candidates) {
        const std::int64_t need = phaseRate(pid, st.fired);
        if (need == 0) continue;
        anyPositive = true;
        const graph::Port& p = g.port(pid);
        if (static_cast<std::int64_t>(state.queue[p.channel.index()].size()) >=
                need &&
            p.priority > bestPriority) {
          best = pid;
          bestPriority = p.priority;
        }
      }
      if (!anyPositive) return true;  // nothing to consume this phase
      if (!best.valid()) return false;
      selected.push_back(best);
      return true;
    }

    // WaitAll / SelectOne / SelectMany: every candidate port must be
    // satisfied at its phase rate.
    for (PortId pid : candidates) {
      const std::int64_t need = phaseRate(pid, st.fired);
      const graph::Port& p = g.port(pid);
      if (static_cast<std::int64_t>(state.queue[p.channel.index()].size()) <
          need) {
        return false;
      }
    }
    selected = candidates;
    return true;
  };

  double now = 0.0;

  // Attempts to start a firing of `a` at time `now`; returns true if one
  // started.
  auto tryStart = [&](const graph::Actor& a) -> bool {
    ActorState& st = actors[a.id.index()];
    if (st.pending.active || st.fired >= st.limit) return false;
    if (a.kind == ActorKind::Control &&
        model_->controlKind(a.id) == core::ControlKind::Clock) {
      return false;  // clocks are time-triggered, not data-triggered
    }

    // Control port handling: peek the mode token first.
    int modeIndex = st.currentMode;
    PortId controlPort;
    for (PortId pid : a.ports) {
      if (g.port(pid).kind == PortKind::ControlIn) controlPort = pid;
    }
    std::int64_t controlNeed = 0;
    if (controlPort.valid()) {
      controlNeed = phaseRate(controlPort, st.fired);
      if (controlNeed > 0) {
        const std::size_t c = g.port(controlPort).channel.index();
        if (state.queue[c].empty()) return false;
        modeIndex = static_cast<int>(state.queue[c].front().tag);
      }
    }

    std::vector<PortId> selected;
    if (!selectInputs(a, st, modeIndex, selected)) return false;

    // ---- Commit the firing. ----
    FiringContext ctx(g, a.id, st.fired, modeIndex, now,
                      a.execTimeOfPhase(st.fired));

    if (controlPort.valid() && controlNeed > 0) {
      const std::size_t c = g.port(controlPort).channel.index();
      Token t = state.pop(c);
      st.currentMode = modeIndex;
      ctx.inputs_[g.port(controlPort).name].push_back(std::move(t));
    }

    for (PortId pid : selected) {
      const graph::Port& p = g.port(pid);
      const std::int64_t need = phaseRate(pid, st.fired);
      auto& bucket = ctx.inputs_[p.name];
      for (std::int64_t i = 0; i < need; ++i) {
        bucket.push_back(state.pop(p.channel.index()));
      }
    }

    // Tokens on rejected data inputs are removed, not used (Section II-B).
    for (PortId pid : a.ports) {
      const graph::Port& p = g.port(pid);
      if (p.kind != PortKind::DataIn) continue;
      if (std::find(selected.begin(), selected.end(), pid) !=
          selected.end()) {
        continue;
      }
      const std::int64_t rejected = phaseRate(pid, st.fired);
      if (rejected > 0) state.discard(p.channel.index(), rejected);
    }

    const auto behaviour = behaviours_.find(a.id.value);
    if (behaviour != behaviours_.end()) behaviour->second(ctx);

    // Collect outputs, padded/validated against the phase rates.  In a
    // selecting mode with an explicit output set (Select-duplicate), the
    // kernel produces only on the enabled outputs.
    const core::ModeSpec& spec = modeSpecOf(a, modeIndex);
    PendingFiring pending;
    pending.active = true;
    pending.finish = now + ctx.duration();
    for (PortId pid : a.ports) {
      const graph::Port& p = g.port(pid);
      if (p.kind != PortKind::DataOut && p.kind != PortKind::ControlOut) {
        continue;
      }
      if (a.kind == ActorKind::Kernel && p.kind == PortKind::DataOut &&
          spec.mode != core::Mode::WaitAll && !spec.activeOutputs.empty() &&
          std::find(spec.activeOutputs.begin(), spec.activeOutputs.end(),
                    pid) == spec.activeOutputs.end()) {
        continue;  // disabled output: nothing produced
      }
      const std::int64_t rate = phaseRate(pid, st.fired);
      auto emitted = ctx.outputs_.find(p.name);
      std::vector<Token> tokens;
      if (emitted != ctx.outputs_.end()) tokens = std::move(emitted->second);
      if (static_cast<std::int64_t>(tokens.size()) > rate) {
        throw support::Error(
            "behaviour of '" + a.name + "' emitted " +
            std::to_string(tokens.size()) + " tokens on port '" + p.name +
            "' whose phase rate is " + std::to_string(rate));
      }
      tokens.resize(static_cast<std::size_t>(rate));
      if (!tokens.empty()) {
        pending.outputs.emplace_back(p.channel.index(), std::move(tokens));
      }
    }

    if (options.recordTrace) {
      result.trace.push_back(
          {a.id, st.fired, modeIndex, now, pending.finish});
    }
    st.pending = std::move(pending);
    ++st.fired;
    ++result.firings[a.id.index()];
    ++result.totalFirings;
    return true;
  };

  auto deliver = [&](const graph::Actor& a) {
    ActorState& st = actors[a.id.index()];
    for (auto& [c, tokens] : st.pending.outputs) {
      const std::size_t dst =
          g.destActor(ChannelId(static_cast<std::uint32_t>(c))).index();
      if (fabric != nullptr && !tokens.empty() &&
          a.kind != ActorKind::Control) {
        const std::size_t srcPe = options.actorPe[a.id.index()];
        const std::size_t dstPe = options.actorPe[dst];
        if (srcPe != dstPe && srcPe < fabric->peCount() &&
            dstPe < fabric->peCount()) {
          // Store-and-forward reservation walk over the precomputed
          // route: each link is held for its service time, and a link
          // still busy with an earlier transfer delays this one — the
          // contention model.
          double t = now;
          const auto count = static_cast<std::int64_t>(tokens.size());
          for (std::uint32_t lid : fabric->route(srcPe, dstPe)) {
            const double service = tpdf::platform::Topology::serviceTime(
                fabric->link(lid), count);
            t = std::max(t, linkFree[lid]) + service;
            linkFree[lid] = t;
            result.links[lid].transfers += 1;
            result.links[lid].busyTime += service;
          }
          if (t > now) {
            // Tokens arrive later; the consumer wakes on arrival.
            transfers.emplace(std::make_pair(t, transferSeq++),
                              std::make_pair(c, std::move(tokens)));
            continue;
          }
          // Zero-delay route (ideal fabric): fall through to the inline
          // delivery below so the firing order matches a platform-free
          // run exactly.
        }
      }
      for (Token& t : tokens) state.push(c, std::move(t));
      wake.insert(dst);
    }
    st.pending = PendingFiring{};
    wake.insert(a.id.index());  // the actor itself is free to start again
  };

  auto fireClock = [&](const graph::Actor& a) {
    ActorState& st = actors[a.id.index()];
    FiringContext ctx(g, a.id, st.fired, 0, now, 0.0);
    const auto behaviour = behaviours_.find(a.id.value);
    if (behaviour != behaviours_.end()) behaviour->second(ctx);
    for (PortId pid : a.ports) {
      const graph::Port& p = g.port(pid);
      if (p.kind != PortKind::ControlOut) continue;
      const std::int64_t rate = phaseRate(pid, st.fired);
      auto emitted = ctx.outputs_.find(p.name);
      std::vector<Token> tokens;
      if (emitted != ctx.outputs_.end()) tokens = std::move(emitted->second);
      tokens.resize(static_cast<std::size_t>(std::max<std::int64_t>(
          rate, static_cast<std::int64_t>(tokens.size()))));
      for (Token& t : tokens) state.push(p.channel.index(), std::move(t));
      if (!tokens.empty()) wake.insert(g.destActor(p.channel).index());
    }
    if (options.recordTrace) {
      result.trace.push_back({a.id, st.fired, 0, now, now});
    }
    ++st.fired;
    ++result.firings[a.id.index()];
    ++result.totalFirings;
    st.nextClockTick += *model_->clockPeriod(a.id);
  };

  // ---- Main event loop. -------------------------------------------------
  // Starts are driven by the wake set: a failed start attempt can only
  // succeed later if tokens arrived on one of the actor's input channels
  // or its own in-flight firing completed, and both paths re-insert the
  // actor.  Starting an actor never enables another one at the same
  // instant (consumption touches only the starter's own single-consumer
  // channels; production happens at completion), so one id-ordered pass
  // over the wake set reproduces the firing order of a full
  // rescan-until-fixpoint sweep.
  std::vector<std::size_t> due;
  while (true) {
    support::Budget::checkpoint(options.budget);
    // Start everything that can start at the current time.  The firing
    // cap gates starts (not event delivery), so a run that hits exactly
    // maxFirings still delivers its in-flight completions and can report
    // returnedToInitialState on the boundary.
    while (!wake.empty() && result.totalFirings < options.maxFirings) {
      support::Budget::checkpoint(options.budget);
      const std::size_t ai = *wake.begin();
      wake.erase(wake.begin());
      const graph::Actor& a = g.actors()[ai];
      if (tryStart(a)) events.push({actors[ai].pending.finish, ai});
    }

    // Advance to the next event: earliest completion, clock tick, or
    // transfer arrival.
    if (events.empty() && transfers.empty()) break;  // quiescent
    double next = std::numeric_limits<double>::infinity();
    if (!events.empty()) next = events.top().first;
    if (!transfers.empty()) {
      next = std::min(next, transfers.begin()->first.first);
    }
    if (next > options.stopTime) break;

    now = next;
    // Due transfer arrivals deliver first: like completions they can
    // only enable starts, and (arrival, sequence) order keeps the run
    // deterministic.
    while (!transfers.empty() && transfers.begin()->first.first <= now) {
      auto node = transfers.extract(transfers.begin());
      const std::size_t c = node.mapped().first;
      for (Token& t : node.mapped().second) state.push(c, std::move(t));
      wake.insert(
          g.destActor(ChannelId(static_cast<std::uint32_t>(c))).index());
    }
    due.clear();
    while (!events.empty() && events.top().first <= now) {
      due.push_back(events.top().second);
      events.pop();
    }
    std::sort(due.begin(), due.end());
    for (const std::size_t ai : due) {
      const graph::Actor& a = g.actors()[ai];
      ActorState& st = actors[ai];
      if (st.pending.active && st.pending.finish <= now) deliver(a);
      if (a.kind == ActorKind::Control &&
          model_->controlKind(a.id) == core::ControlKind::Clock &&
          st.nextClockTick <= now) {
        fireClock(a);
        if (st.nextClockTick <= options.stopTime) {
          events.push({st.nextClockTick, ai});
        }
      }
    }
  }

  result.endTime = now;
  result.channels = state.stats;

  // Dynamic Theorem 2 check: all dataflow actors completed their
  // iterations, nothing in flight, and every channel not fed by a clock
  // returned to its initial occupancy.
  bool complete = true;
  for (const graph::Actor& a : g.actors()) {
    const ActorState& st = actors[a.id.index()];
    if (st.pending.active) complete = false;
    if (st.limit != kUnlimited && st.fired != st.limit) complete = false;
  }
  if (complete) {
    result.returnedToInitialState = true;
    for (const graph::Channel& c : g.channels()) {
      const ActorId src = g.sourceActor(c.id);
      if (g.actor(src).kind == ActorKind::Control &&
          model_->controlKind(src) == core::ControlKind::Clock) {
        continue;
      }
      if (static_cast<std::int64_t>(state.queue[c.id.index()].size()) !=
              c.initialTokens ||
          state.discardDebt[c.id.index()] != 0) {
        result.returnedToInitialState = false;
        break;
      }
    }
  }

  result.ok = true;
  return result;
}

}  // namespace tpdf::sim
