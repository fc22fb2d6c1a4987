#include "sched/canonical.hpp"

#include <algorithm>
#include <charconv>

#include "support/error.hpp"

namespace tpdf::sched {

using graph::ActorId;
using graph::Graph;

CanonicalPeriod::CanonicalPeriod(const core::AnalysisContext& ctx,
                                 const symbolic::Environment& env,
                                 support::Budget* budget)
    : graph_(&ctx.graph()) {
  const csdf::RepetitionVector& rv = ctx.repetition();
  if (!rv.consistent) {
    throw support::Error("cannot build canonical period: " + rv.diagnostic);
  }
  build(rv, ctx.rates(env), env, budget);
}

CanonicalPeriod::CanonicalPeriod(const Graph& g,
                                 const csdf::RepetitionVector& rv,
                                 const graph::EvaluatedRates& rates,
                                 const symbolic::Environment& env,
                                 support::Budget* budget)
    : graph_(&g) {
  if (!rv.consistent) {
    throw support::Error("cannot build canonical period: " + rv.diagnostic);
  }
  build(rv, rates, env, budget);
}

void CanonicalPeriod::build(const csdf::RepetitionVector& rv,
                            const graph::EvaluatedRates& rates,
                            const symbolic::Environment& env,
                            support::Budget* budget) {
  const Graph& g = *graph_;
  q_.resize(g.actorCount());
  firstIndex_.resize(g.actorCount());
  for (std::size_t i = 0; i < g.actorCount(); ++i) {
    q_[i] = rv.q[i].evaluateInt(env);
    if (q_[i] <= 0) {
      throw support::Error("non-positive repetition count for actor '" +
                           g.actor(ActorId(static_cast<std::uint32_t>(i)))
                               .name + "'");
    }
    firstIndex_[i] = nodes_.size();
    for (std::int64_t k = 0; k < q_[i]; ++k) {
      support::Budget::checkpoint(budget);
      nodes_.push_back({ActorId(static_cast<std::uint32_t>(i)), k});
    }
  }
  // Edges are found in a fixed order, (i) then (ii) below, and every row
  // keeps it.  Predecessors go straight into slots reserved per node: the
  // sequential edge plus one per input channel of its actor (self-loops
  // excluded).  An edge whose source is already in its target's row is a
  // duplicate (parallel channels between one actor pair imply the same
  // dependency) and is dropped; the scan is over that short row, never
  // over the source's successors, which grow with the consumer's
  // repetition count (one firing can feed 2^20).
  const std::size_t count = nodes_.size();
  std::vector<std::size_t> inputs(g.actorCount(), 0);
  for (const graph::Channel& c : g.channels()) {
    const ActorId dst = g.destActor(c.id);
    if (g.sourceActor(c.id) != dst) ++inputs[dst.index()];
  }
  predOff_.assign(count + 1, 0);
  for (std::size_t v = 0; v < count; ++v) {
    predOff_[v + 1] = predOff_[v] + (nodes_[v].k > 0 ? 1 : 0) +
                      inputs[nodes_[v].actor.index()];
  }
  std::vector<std::size_t> slots(predOff_[count]);
  std::vector<std::size_t> predEnd(predOff_.begin(), predOff_.end() - 1);
  std::vector<std::size_t> from;  // the kept edges, in the order found
  std::vector<std::size_t> to;
  from.reserve(slots.size());
  to.reserve(slots.size());
  const auto addEdge = [&](std::size_t f, std::size_t t) {
    const std::size_t* row = slots.data() + predOff_[t];
    const std::size_t* end = slots.data() + predEnd[t];
    if (std::find(row, end, f) != end) return;
    slots[predEnd[t]++] = f;
    from.push_back(f);
    to.push_back(t);
  };

  // (i) Sequential self-dependencies: an actor is one sequential process.
  for (std::size_t i = 0; i < g.actorCount(); ++i) {
    for (std::int64_t k = 0; k + 1 < q_[i]; ++k) {
      addEdge(firstIndex_[i] + static_cast<std::size_t>(k),
              firstIndex_[i] + static_cast<std::size_t>(k) + 1);
    }
  }

  // (ii) Token dependencies per channel, over the precomputed integer
  // rate tables (no RateSeq copies, no symbolic evaluation).
  for (const graph::Channel& c : g.channels()) {
    const ActorId src = g.sourceActor(c.id);
    const ActorId dst = g.destActor(c.id);
    if (src == dst) continue;  // self-loops order firings sequentially anyway

    std::int64_t produced = 0;   // X_src(m)
    std::int64_t m = 0;          // producer firings counted so far
    std::int64_t demanded = c.initialTokens;  // threshold to cover
    for (std::int64_t n = 0; n < q_[dst.index()]; ++n) {
      support::Budget::checkpoint(budget);
      demanded -= rates.at(c.dst, n);
      if (demanded >= 0) continue;  // covered by initial tokens
      // Advance the producer until cumulative production covers -demanded.
      while (produced < -demanded && m < q_[src.index()]) {
        produced += rates.at(c.src, m);
        ++m;
      }
      if (produced < -demanded) {
        throw support::Error(
            "canonical period: consumer '" + g.actor(dst).name +
            "' demands more tokens on '" + c.name +
            "' than one iteration produces");
      }
      addEdge(firstIndex_[src.index()] + static_cast<std::size_t>(m - 1),
              firstIndex_[dst.index()] + static_cast<std::size_t>(n));
    }
  }

  // Predecessor rows: the filled slots, packed (a consumer firing covered
  // by initial tokens or a dropped duplicate leaves a slot unused).
  if (from.size() == slots.size()) {
    pred_ = std::move(slots);
  } else {
    pred_.resize(from.size());
    std::size_t w = 0;
    for (std::size_t v = 0; v < count; ++v) {
      const std::size_t begin = predOff_[v];
      predOff_[v] = w;
      for (std::size_t j = begin; j < predEnd[v]; ++j) pred_[w++] = slots[j];
    }
    predOff_[count] = w;
  }

  // Successor rows: the kept edges, in the order found.
  succOff_.assign(count + 1, 0);
  for (const std::size_t f : from) ++succOff_[f + 1];
  for (std::size_t v = 0; v < count; ++v) succOff_[v + 1] += succOff_[v];
  succ_.resize(from.size());
  std::vector<std::size_t>& cursor = predEnd;
  cursor.assign(succOff_.begin(), succOff_.end() - 1);
  for (std::size_t e = 0; e < from.size(); ++e) {
    succ_[cursor[from[e]]++] = to[e];
  }
}

std::size_t CanonicalPeriod::indexOf(ActorId a, std::int64_t k) const {
  if (k < 0 || k >= q_[a.index()]) {
    throw support::Error("occurrence " + std::to_string(k) +
                         " out of range for actor '" +
                         graph_->actor(a).name + "'");
  }
  return firstIndex_[a.index()] + static_cast<std::size_t>(k);
}

bool CanonicalPeriod::dependsOn(std::size_t to, std::size_t from) const {
  const std::span<const std::size_t> preds = predecessors(to);
  return std::find(preds.begin(), preds.end(), from) != preds.end();
}

std::string CanonicalPeriod::nodeName(std::size_t i) const {
  std::string out;
  appendNodeName(out, i);
  return out;
}

void CanonicalPeriod::appendNodeName(std::string& out, std::size_t i) const {
  const Occurrence& o = nodes_[i];
  out += graph_->actor(o.actor).name.view();
  char digits[24];
  out.append(digits,
             std::to_chars(digits, digits + sizeof(digits), o.k + 1).ptr);
}

double CanonicalPeriod::execTime(std::size_t i) const {
  const Occurrence& o = nodes_[i];
  return graph_->actor(o.actor).execTimeOfPhase(o.k);
}

std::vector<std::size_t> CanonicalPeriod::topologicalOrder() const {
  // Kahn's algorithm with the output vector as its FIFO: `order[head..]`
  // holds the ready nodes not yet expanded.
  const std::size_t n = nodes_.size();
  std::vector<std::size_t> inDegree(n);
  std::vector<std::size_t> order;
  order.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    inDegree[i] = predOff_[i + 1] - predOff_[i];
    if (inDegree[i] == 0) order.push_back(i);
  }
  for (std::size_t head = 0; head < order.size(); ++head) {
    for (const std::size_t s : successors(order[head])) {
      if (--inDegree[s] == 0) order.push_back(s);
    }
  }
  if (order.size() != n) {
    throw support::Error("canonical period contains a dependency cycle");
  }
  return order;
}

void CanonicalPeriod::write(support::json::Writer& w) const {
  w.beginObject().member("size", nodes_.size()).key("nodes").beginArray();
  std::string name;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Occurrence& o = nodes_[i];
    name.clear();
    appendNodeName(name, i);
    w.beginObject().member("name", std::string_view(name));
    w.member("actor", graph_->actor(o.actor).name);
    w.member("k", o.k).member("execTime", execTime(i)).endObject();
  }
  w.endArray().key("edges").beginArray();
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    for (const std::size_t s : successors(i)) {
      w.beginArray().value(i).value(s).endArray();
    }
  }
  w.endArray().endObject();
}

}  // namespace tpdf::sched
