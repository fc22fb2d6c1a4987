#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <span>

#include "csdf/repetition.hpp"
#include "support/checked.hpp"
#include "support/error.hpp"

namespace tpdf::sim {

using graph::ActorId;
using graph::ActorKind;
using graph::Graph;
using graph::PortId;
using graph::PortKind;

namespace {

bool isInputKind(PortKind k) {
  return k == PortKind::DataIn || k == PortKind::ControlIn;
}

}  // namespace

// ---- FiringContext ----------------------------------------------------

FiringContext::FiringContext(const Graph& g, ActorId actor)
    : graph_(&g),
      actor_(actor),
      inputs_(g.actor(actor).ports.size()),
      outputs_(g.actor(actor).ports.size()) {}

std::size_t FiringContext::slotOf(std::string_view port, bool input) const {
  const auto& ports = graph_->actor(actor_).ports;
  for (std::size_t i = 0; i < ports.size(); ++i) {
    const graph::Port& p = graph_->port(ports[i]);
    if (isInputKind(p.kind) == input && p.name == port) return i;
  }
  return std::string_view::npos;
}

const std::vector<Token>& FiringContext::inputs(
    const std::string& port) const {
  static const std::vector<Token> kEmpty;
  const std::size_t slot = slotOf(port, true);
  return slot == std::string_view::npos ? kEmpty : inputs_[slot];
}

void FiringContext::emit(const std::string& port, Token token) {
  // Tokens for a name that is not one of the actor's outputs go nowhere.
  const std::size_t slot = slotOf(port, false);
  if (slot != std::string_view::npos) {
    outputs_[slot].push_back(std::move(token));
  }
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
constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

/// FIFO of token values that grows (by doubling) to its peak length and
/// from then on only reuses its slots.
class TokenRing {
 public:
  const Token& front() const { return slots_[head_]; }

  void push(Token t) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(t);
    ++size_;
  }

  /// Removes the front token; its slot is reset, so the payload is
  /// released here.
  Token pop() {
    Token t = std::move(slots_[head_]);
    slots_[head_] = Token{};
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
    return t;
  }

  void drop(std::int64_t n) {
    for (; n > 0; --n) pop();
  }

 private:
  void grow() {
    std::vector<Token> bigger(std::max<std::size_t>(8, 2 * slots_.size()));
    for (std::size_t i = 0; i < size_; ++i) {
      bigger[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    }
    slots_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<Token> slots_;  // capacity: 0 or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

/// A port as the run loop sees it: its channel and its integer rates
/// over the actor's phases.
struct PortSlot {
  const std::int64_t* rates = nullptr;
  std::uint32_t phases = 1;
  std::uint32_t channel = 0;
  /// Position in Actor::ports, which indexes the FiringContext buffers.
  std::uint32_t local = 0;
  int priority = 0;

  std::int64_t at(std::int64_t firing) const {
    return phases == 1 ? rates[0]
                       : rates[static_cast<std::size_t>(firing) % phases];
  }
};

/// One entry of an actor's mode table, resolved against its ports.
struct ModeSlot {
  bool highestPriority = false;
  /// Offset into the run's activity flags: one per data input, then one
  /// per output, in PortSlot order.
  std::uint32_t active = 0;
};

/// Everything the run loop needs to know about an actor, built once per
/// run.  Port slots are contiguous: data inputs, then data and control
/// outputs; the control input (the last one, if several) stands alone.
struct ActorTable {
  const graph::Actor* actor = nullptr;
  const Behaviour* behaviour = nullptr;
  /// Index of the actor's FiringContext; kNone without a behaviour.
  std::uint32_t context = kNone;
  bool clock = false;
  double clockPeriod = 0.0;
  std::uint32_t control = kNone;
  std::uint32_t inBegin = 0, inEnd = 0;
  std::uint32_t outBegin = 0, outEnd = 0;
  std::uint32_t modeBegin = 0, modeCount = 1;
};

struct ActorState {
  std::int64_t fired = 0;
  std::int64_t limit = 0;  // q * iterations (clocks: unbounded)
  int currentMode = 0;
  bool busy = false;            // a firing is in flight
  double nextClockTick = 0.0;   // clocks only
};

struct ChannelState {
  /// Tokens the consumer can take now.
  std::int64_t present = 0;
  /// Rejected tokens still to arrive; while positive, present is 0.
  std::int64_t discardDebt = 0;
  std::uint32_t consumer = 0;
  /// Fabric route of the channel's transfers; null when they never
  /// route (no fabric, a control producer, or both ends on one PE).
  const std::vector<std::uint32_t>* route = nullptr;
  /// The producer has a behaviour, so tokens may carry values.  Without
  /// one every token is a default Token and the channel is a counter.
  bool valued = false;
  /// Values of a valued channel: the present tokens, then those in
  /// flight.  One producer, one route and monotone link reservations
  /// (service times are non-negative) make a channel's transfers arrive
  /// in issue order, so an arrival always takes the front of the
  /// in-flight part.
  TokenRing values;
};

/// Completions and clock ticks carry kActorEvent | actor id, transfer
/// arrivals the slot of their Transfer: one (time, key) order puts due
/// arrivals before due completions and completions in actor id order.
/// Arrivals at one instant commute (counts add; a channel's values are
/// already queued in issue order), so their relative order is free.
constexpr std::uint64_t kActorEvent = std::uint64_t{1} << 63;

struct Event {
  double time = 0.0;
  std::uint64_t key = 0;
};

/// Tokens in flight over the fabric to one channel.
struct Transfer {
  std::int64_t tokens = 0;
  std::uint32_t channel = 0;
  std::uint32_t nextFree = 0;  // free list link while the slot is unused
};

/// Heap order (std::*_heap keep the greatest on top): the earliest
/// (time, key) is the greatest.
struct Later {
  bool operator()(const Event& a, const Event& b) const {
    if (b.time < a.time) return true;
    if (a.time < b.time) return false;
    return b.key < a.key;
  }
};

}  // namespace

SimResult Simulator::run(const SimOptions& options) {
  const Graph& g = model_->graph();
  SimResult result;
  result.firings.resize(g.actorCount(), 0);

  // Shared intermediates: the caller's context when one was provided,
  // otherwise a run-local one.
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
  std::vector<ActorTable> table(g.actorCount());
  for (const graph::Actor& a : g.actors()) {
    ActorState& st = actors[a.id.index()];
    ActorTable& t = table[a.id.index()];
    t.actor = &a;
    t.clock = a.kind == ActorKind::Control &&
              model_->controlKind(a.id) == core::ControlKind::Clock;
    if (t.clock) {
      hasClock = true;
      st.limit = kUnlimited;
      t.clockPeriod = *model_->clockPeriod(a.id);
      st.nextClockTick = t.clockPeriod;
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

  // ---- Per-run tables. --------------------------------------------------
  // Port rates come from the context's memoized integer tables, so a
  // firing's rate lookup is an array index.
  const graph::EvaluatedRates& portRates = ctx.rates(env_);
  std::vector<PortSlot> ports;
  std::vector<ModeSlot> modes;
  std::vector<char> active;
  std::vector<FiringContext> contexts;
  for (const graph::Actor& a : g.actors()) {
    ActorTable& t = table[a.id.index()];
    const auto behaviour = behaviours_.find(a.id.value);
    if (behaviour != behaviours_.end()) {
      t.behaviour = &behaviour->second;
      t.context = static_cast<std::uint32_t>(contexts.size());
      contexts.push_back(FiringContext(g, a.id));
    }
    auto addSlot = [&](std::uint32_t local) {
      const graph::Port& p = g.port(a.ports[local]);
      const std::span<const std::int64_t> rates = portRates.of(p.id);
      ports.push_back({rates.data(), static_cast<std::uint32_t>(rates.size()),
                       static_cast<std::uint32_t>(p.channel.index()), local,
                       p.priority});
    };
    const auto portCount = static_cast<std::uint32_t>(a.ports.size());
    t.inBegin = static_cast<std::uint32_t>(ports.size());
    for (std::uint32_t i = 0; i < portCount; ++i) {
      if (g.port(a.ports[i]).kind == PortKind::DataIn) addSlot(i);
    }
    t.inEnd = t.outBegin = static_cast<std::uint32_t>(ports.size());
    for (std::uint32_t i = 0; i < portCount; ++i) {
      if (!isInputKind(g.port(a.ports[i]).kind)) addSlot(i);
    }
    t.outEnd = static_cast<std::uint32_t>(ports.size());
    for (std::uint32_t i = portCount; i-- > 0;) {
      if (g.port(a.ports[i]).kind == PortKind::ControlIn) {
        t.control = static_cast<std::uint32_t>(ports.size());
        addSlot(i);
        break;
      }
    }

    // Mode table.  In a selecting mode with explicit port lists, a
    // kernel waits only for its active inputs and produces only on its
    // enabled data outputs; an empty table is one WaitAll mode.
    const std::vector<core::ModeSpec>& specs = model_->modes(a.id);
    const bool kernel = a.kind == ActorKind::Kernel;
    t.modeBegin = static_cast<std::uint32_t>(modes.size());
    t.modeCount =
        static_cast<std::uint32_t>(std::max<std::size_t>(1, specs.size()));
    for (std::uint32_t m = 0; m < t.modeCount; ++m) {
      const core::ModeSpec* spec = specs.empty() ? nullptr : &specs[m];
      const bool selecting =
          kernel && spec != nullptr && spec->mode != core::Mode::WaitAll;
      modes.push_back({selecting && spec->mode == core::Mode::HighestPriority,
                       static_cast<std::uint32_t>(active.size())});
      auto listed = [](const std::vector<PortId>& list, PortId pid) {
        return std::find(list.begin(), list.end(), pid) != list.end();
      };
      for (std::uint32_t i = t.inBegin; i < t.inEnd; ++i) {
        const PortId pid = a.ports[ports[i].local];
        active.push_back(!selecting || spec->activeInputs.empty() ||
                         listed(spec->activeInputs, pid));
      }
      for (std::uint32_t i = t.outBegin; i < t.outEnd; ++i) {
        const PortId pid = a.ports[ports[i].local];
        active.push_back(g.port(pid).kind == PortKind::ControlOut ||
                         !selecting || spec->activeOutputs.empty() ||
                         listed(spec->activeOutputs, pid));
      }
    }
  }
  // Token count each output slot delivers when its firing completes.
  std::vector<std::int64_t> pending(ports.size(), 0);

  std::vector<ChannelState> channels(g.channelCount());
  std::vector<ChannelStats> stats(g.channelCount());
  for (const graph::Channel& c : g.channels()) {
    ChannelState& ch = channels[c.id.index()];
    const ActorId src = g.sourceActor(c.id);
    const ActorId dst = g.destActor(c.id);
    ch.present = c.initialTokens;
    ch.consumer = static_cast<std::uint32_t>(dst.index());
    ch.valued = table[src.index()].behaviour != nullptr;
    if (ch.valued) {
      for (std::int64_t i = 0; i < c.initialTokens; ++i) ch.values.push({});
    }
    stats[c.id.index()].maxOccupancy = c.initialTokens;
    // Control outputs are never routed (control tokens are quasi-
    // instantaneous), nor is traffic touching a PE off the fabric.
    if (fabric != nullptr && g.actor(src).kind != ActorKind::Control) {
      const std::size_t srcPe = options.actorPe[src.index()];
      const std::size_t dstPe = options.actorPe[dst.index()];
      if (srcPe != dstPe && srcPe < fabric->peCount() &&
          dstPe < fabric->peCount()) {
        ch.route = &fabric->route(srcPe, dstPe);
      }
    }
  }

  // Actors to (re-)try starting at the current instant, smallest id
  // first.  A token arrival can only change the startability of the
  // channel's one consumer, so that is the only actor it wakes.
  std::vector<std::uint32_t> wake(g.actorCount());
  for (std::uint32_t i = 0; i < wake.size(); ++i) wake[i] = i;  // a heap
  std::vector<char> woken(g.actorCount(), 1);
  auto wakeUp = [&](std::uint32_t ai) {
    if (woken[ai] != 0) return;
    woken[ai] = 1;
    wake.push_back(ai);
    std::push_heap(wake.begin(), wake.end(), std::greater<>{});
  };

  // Future events: firing completions, clock ticks and transfer arrivals.
  std::vector<Event> events;
  // Transfer slots, recycled through a free list: they grow to the peak
  // number of transfers in flight.
  std::vector<Transfer> transfers;
  std::uint32_t freeTransfer = kNone;
  auto schedule = [&](const Event& e) {
    events.push_back(e);
    std::push_heap(events.begin(), events.end(), Later{});
  };
  for (std::uint32_t ai = 0; ai < table.size(); ++ai) {
    if (table[ai].clock) {
      schedule({actors[ai].nextClockTick, kActorEvent | ai});
    }
  }

  // ---- Channel operations. ----------------------------------------------
  // `n` tokens reach channel c's queue; rejected ones are dropped first.
  auto arrive = [&](std::uint32_t c, std::int64_t n) {
    ChannelState& ch = channels[c];
    ChannelStats& s = stats[c];
    s.produced += n;
    const std::int64_t dropped = std::min(ch.discardDebt, n);
    if (dropped > 0) {
      ch.discardDebt -= dropped;
      s.discarded += dropped;
      if (ch.valued) ch.values.drop(dropped);
    }
    ch.present += n - dropped;
    s.maxOccupancy = std::max(s.maxOccupancy, ch.present);
    wakeUp(ch.consumer);
  };
  // The consumer takes `n` tokens; their values go to `into` when given.
  auto take = [&](std::uint32_t c, std::int64_t n, std::vector<Token>* into) {
    ChannelState& ch = channels[c];
    ch.present -= n;
    stats[c].consumed += n;
    if (ch.valued) {
      for (std::int64_t i = 0; i < n; ++i) {
        Token t = ch.values.pop();
        if (into != nullptr) into->push_back(std::move(t));
      }
    } else if (into != nullptr) {
      into->resize(into->size() + static_cast<std::size_t>(n));
    }
  };
  // Registers `n` tokens of channel c as rejected; present tokens are
  // dropped now, missing ones on arrival.
  auto discard = [&](std::uint32_t c, std::int64_t n) {
    ChannelState& ch = channels[c];
    const std::int64_t dropped = std::min(n, ch.present);
    ch.present -= dropped;
    stats[c].discarded += dropped;
    if (ch.valued) ch.values.drop(dropped);
    ch.discardDebt += n - dropped;
  };
  // Appends `n` token values to a valued channel: the emitted ones, then
  // default tokens.
  auto stage = [](ChannelState& ch, std::vector<Token>& emitted,
                  std::int64_t n) {
    for (Token& t : emitted) ch.values.push(std::move(t));
    for (auto i = static_cast<std::int64_t>(emitted.size()); i < n; ++i) {
      ch.values.push({});
    }
    emitted.clear();
  };

  double now = 0.0;

  // Store-and-forward reservation walk over a precomputed route: each
  // link is held for its service time, and a link still busy with an
  // earlier transfer delays this one — the contention model.  Returns
  // the arrival time.
  auto travel = [&](const std::vector<std::uint32_t>& route,
                    std::int64_t n) {
    double t = now;
    for (const std::uint32_t lid : route) {
      const double service =
          tpdf::platform::Topology::serviceTime(fabric->link(lid), n);
      t = std::max(t, linkFree[lid]) + service;
      linkFree[lid] = t;
      result.links[lid].transfers += 1;
      result.links[lid].busyTime += service;
    }
    return t;
  };

  auto contextOf = [&](const ActorTable& t) {
    return t.context == kNone ? nullptr : &contexts[t.context];
  };
  auto record = [&](std::uint32_t ai, int mode, double finish) {
    ActorState& st = actors[ai];
    if (options.recordTrace) {
      result.trace.push_back(
          {table[ai].actor->id, st.fired, mode, now, finish});
    }
    ++st.fired;
    ++result.totalFirings;
  };

  // Starts a firing of actor `ai` at time `now` if it can start.
  auto tryStart = [&](std::uint32_t ai) {
    ActorState& st = actors[ai];
    const ActorTable& t = table[ai];
    // Clocks are time-triggered, not data-triggered.
    if (st.busy || st.fired >= st.limit || t.clock) return;

    // Control port handling: peek the mode token first.
    int modeIndex = st.currentMode;
    std::int64_t controlNeed = 0;
    if (t.control != kNone) {
      const PortSlot& cp = ports[t.control];
      controlNeed = cp.at(st.fired);
      if (controlNeed > 0) {
        const ChannelState& ch = channels[cp.channel];
        if (ch.present == 0) return;
        modeIndex = ch.valued ? static_cast<int>(ch.values.front().tag) : 0;
      }
    }
    const ModeSlot& mode =
        modes[t.modeBegin + static_cast<std::size_t>(modeIndex) % t.modeCount];
    const char* activeIn = active.data() + mode.active;
    const char* activeOut = activeIn + (t.inEnd - t.inBegin);

    // HighestPriority fires as soon as one active input with a positive
    // rate is satisfied and takes the satisfied one of largest priority;
    // the other modes need every active input satisfied.
    std::uint32_t best = kNone;
    if (mode.highestPriority) {
      int bestPriority = std::numeric_limits<int>::min();
      bool anyPositive = false;
      for (std::uint32_t i = t.inBegin; i < t.inEnd; ++i) {
        if (activeIn[i - t.inBegin] == 0) continue;
        const PortSlot& p = ports[i];
        const std::int64_t need = p.at(st.fired);
        if (need == 0) continue;
        anyPositive = true;
        if (channels[p.channel].present >= need && p.priority > bestPriority) {
          best = i;
          bestPriority = p.priority;
        }
      }
      if (anyPositive && best == kNone) return;
    } else {
      for (std::uint32_t i = t.inBegin; i < t.inEnd; ++i) {
        const PortSlot& p = ports[i];
        if (activeIn[i - t.inBegin] != 0 &&
            channels[p.channel].present < p.at(st.fired)) {
          return;
        }
      }
    }

    // ---- Commit the firing. ----
    FiringContext* fc = contextOf(t);
    double duration = t.actor->execTimeOfPhase(st.fired);
    if (fc != nullptr) {
      fc->firingIndex_ = st.fired;
      fc->modeIndex_ = modeIndex;
      fc->now_ = now;
      fc->duration_ = duration;
    }
    if (controlNeed > 0) {
      // One control token selects the mode, whatever the port's rate.
      const PortSlot& cp = ports[t.control];
      take(cp.channel, 1, fc != nullptr ? &fc->inputs_[cp.local] : nullptr);
      st.currentMode = modeIndex;
    }
    for (std::uint32_t i = t.inBegin; i < t.inEnd; ++i) {
      const PortSlot& p = ports[i];
      const std::int64_t rate = p.at(st.fired);
      const bool selected = mode.highestPriority
                                ? i == best
                                : activeIn[i - t.inBegin] != 0;
      if (selected) {
        take(p.channel, rate, fc != nullptr ? &fc->inputs_[p.local] : nullptr);
      } else if (rate > 0) {
        // Tokens on rejected inputs are removed, not used (Section II-B).
        discard(p.channel, rate);
      }
    }
    if (fc != nullptr) {
      (*t.behaviour)(*fc);
      duration = fc->duration_;
      for (std::vector<Token>& in : fc->inputs_) in.clear();
    }

    // Outputs are fixed now and delivered at completion; emitted tokens
    // are checked against the phase rates, and disabled outputs produce
    // nothing.
    for (std::uint32_t i = t.outBegin; i < t.outEnd; ++i) {
      const PortSlot& p = ports[i];
      pending[i] = 0;
      if (activeOut[i - t.outBegin] == 0) continue;
      const std::int64_t rate = p.at(st.fired);
      if (fc != nullptr &&
          static_cast<std::int64_t>(fc->outputs_[p.local].size()) > rate) {
        throw support::Error(
            "behaviour of '" + t.actor->name + "' emitted " +
            std::to_string(fc->outputs_[p.local].size()) +
            " tokens on port '" + g.port(t.actor->ports[p.local]).name +
            "' whose phase rate is " + std::to_string(rate));
      }
      pending[i] = rate;
    }

    st.busy = true;
    record(ai, modeIndex, now + duration);
    schedule({now + duration, kActorEvent | ai});
  };

  auto deliver = [&](std::uint32_t ai) {
    const ActorTable& t = table[ai];
    FiringContext* fc = contextOf(t);
    for (std::uint32_t i = t.outBegin; i < t.outEnd; ++i) {
      const PortSlot& p = ports[i];
      const std::int64_t n = pending[i];
      if (n == 0) {
        if (fc != nullptr) fc->outputs_[p.local].clear();
        continue;
      }
      ChannelState& ch = channels[p.channel];
      if (ch.valued) stage(ch, fc->outputs_[p.local], n);
      if (ch.route != nullptr) {
        const double arrival = travel(*ch.route, n);
        if (arrival > now) {
          // Tokens arrive later; the consumer wakes on arrival.
          std::uint32_t slot = freeTransfer;
          if (slot == kNone) {
            slot = static_cast<std::uint32_t>(transfers.size());
            transfers.emplace_back();
          } else {
            freeTransfer = transfers[slot].nextFree;
          }
          transfers[slot] = {n, p.channel, kNone};
          schedule({arrival, slot});
          continue;
        }
        // Zero-delay route (ideal fabric): deliver inline so the firing
        // order matches a platform-free run exactly.
      }
      arrive(p.channel, n);
    }
    actors[ai].busy = false;
    wakeUp(ai);  // the actor itself is free to start again
  };

  auto fireClock = [&](std::uint32_t ai) {
    ActorState& st = actors[ai];
    const ActorTable& t = table[ai];
    FiringContext* fc = contextOf(t);
    if (fc != nullptr) {
      fc->firingIndex_ = st.fired;
      fc->modeIndex_ = 0;
      fc->now_ = now;
      fc->duration_ = 0.0;
      (*t.behaviour)(*fc);
    }
    // A clock's control outputs carry at least their phase rate; extra
    // emitted tokens are delivered too.
    for (std::uint32_t i = t.outBegin; i < t.outEnd; ++i) {
      const PortSlot& p = ports[i];
      std::int64_t n = 0;
      if (g.port(t.actor->ports[p.local]).kind == PortKind::ControlOut) {
        n = p.at(st.fired);
        if (fc != nullptr) {
          n = std::max(
              n, static_cast<std::int64_t>(fc->outputs_[p.local].size()));
        }
      }
      if (n > 0 && channels[p.channel].valued) {
        stage(channels[p.channel], fc->outputs_[p.local], n);
      } else if (fc != nullptr) {
        fc->outputs_[p.local].clear();
      }
      if (n > 0) arrive(p.channel, n);
    }
    record(ai, 0, now);
    st.nextClockTick += t.clockPeriod;
    if (st.nextClockTick <= options.stopTime) {
      schedule({st.nextClockTick, kActorEvent | ai});
    }
  };

  auto process = [&](const Event& e) {
    if (e.key < kActorEvent) {
      const auto slot = static_cast<std::uint32_t>(e.key);
      const Transfer t = transfers[slot];
      transfers[slot].nextFree = freeTransfer;
      freeTransfer = slot;
      arrive(t.channel, t.tokens);
      return;
    }
    const auto ai = static_cast<std::uint32_t>(e.key - kActorEvent);
    if (table[ai].clock) {
      fireClock(ai);
    } else {
      deliver(ai);
    }
  };

  // ---- Main event loop. -------------------------------------------------
  // Starts are driven by the wake heap: a failed start attempt can only
  // succeed later if tokens arrived on one of the actor's input channels
  // or its own in-flight firing completed, and both paths wake the
  // actor.  Starting an actor never enables another one at the same
  // instant (consumption touches only the starter's own single-consumer
  // channels; production happens at completion), so one id-ordered pass
  // over the woken actors reproduces the firing order of a full
  // rescan-until-fixpoint sweep.
  std::vector<Event> due;
  while (true) {
    support::Budget::checkpoint(options.budget);
    // Start everything that can start at the current time.  The firing
    // cap gates starts (not event delivery), so a run that hits exactly
    // maxFirings still delivers its in-flight completions and can report
    // returnedToInitialState on the boundary.
    while (!wake.empty() && result.totalFirings < options.maxFirings) {
      support::Budget::checkpoint(options.budget);
      std::pop_heap(wake.begin(), wake.end(), std::greater<>{});
      const std::uint32_t ai = wake.back();
      wake.pop_back();
      woken[ai] = 0;
      tryStart(ai);
    }

    // Advance to the next event time and take every event due then, in
    // (time, key) order, before handling any: events they schedule wait
    // for the next round.
    if (events.empty()) break;  // quiescent
    if (events.front().time > options.stopTime) break;
    now = events.front().time;
    due.clear();
    while (!events.empty() && events.front().time <= now) {
      std::pop_heap(events.begin(), events.end(), Later{});
      due.push_back(events.back());
      events.pop_back();
    }
    for (const Event& e : due) process(e);
  }

  result.endTime = now;
  for (std::size_t i = 0; i < actors.size(); ++i) {
    result.firings[i] = actors[i].fired;
  }

  // Dynamic Theorem 2 check: all dataflow actors completed their
  // iterations, nothing in flight, and every channel not fed by a clock
  // returned to its initial occupancy.
  bool complete = true;
  for (const ActorState& st : actors) {
    if (st.busy) complete = false;
    if (st.limit != kUnlimited && st.fired != st.limit) complete = false;
  }
  if (complete) {
    result.returnedToInitialState = true;
    for (const graph::Channel& c : g.channels()) {
      if (table[g.sourceActor(c.id).index()].clock) continue;
      const ChannelState& ch = channels[c.id.index()];
      if (ch.present != c.initialTokens || ch.discardDebt != 0) {
        result.returnedToInitialState = false;
        break;
      }
    }
  }
  result.channels = std::move(stats);

  result.ok = true;
  return result;
}

}  // namespace tpdf::sim
