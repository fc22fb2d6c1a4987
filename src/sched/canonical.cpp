#include "sched/canonical.hpp"

#include <algorithm>
#include <deque>

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
  succ_.resize(nodes_.size());
  pred_.resize(nodes_.size());

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
}

void CanonicalPeriod::addEdge(std::size_t from, std::size_t to) {
  // Dedupe against `to`'s predecessors, at most one per input channel of
  // its actor plus the sequential one, not `from`'s successors, which
  // grow with the consumer's repetition count (one firing can feed 2^20).
  if (std::find(pred_[to].begin(), pred_[to].end(), from) != pred_[to].end()) {
    return;
  }
  succ_[from].push_back(to);
  pred_[to].push_back(from);
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
  return std::find(pred_[to].begin(), pred_[to].end(), from) !=
         pred_[to].end();
}

std::string CanonicalPeriod::nodeName(std::size_t i) const {
  const Occurrence& o = nodes_[i];
  return graph_->actor(o.actor).name + std::to_string(o.k + 1);
}

double CanonicalPeriod::execTime(std::size_t i) const {
  const Occurrence& o = nodes_[i];
  return graph_->actor(o.actor).execTimeOfPhase(o.k);
}

std::vector<std::size_t> CanonicalPeriod::topologicalOrder() const {
  std::vector<std::size_t> inDegree(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    inDegree[i] = pred_[i].size();
  }
  std::deque<std::size_t> ready;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (inDegree[i] == 0) ready.push_back(i);
  }
  std::vector<std::size_t> order;
  order.reserve(nodes_.size());
  while (!ready.empty()) {
    const std::size_t i = ready.front();
    ready.pop_front();
    order.push_back(i);
    for (std::size_t s : succ_[i]) {
      if (--inDegree[s] == 0) ready.push_back(s);
    }
  }
  if (order.size() != nodes_.size()) {
    throw support::Error("canonical period contains a dependency cycle");
  }
  return order;
}

void CanonicalPeriod::write(support::json::Writer& w) const {
  w.beginObject().member("size", nodes_.size()).key("nodes").beginArray();
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    w.beginObject().member("name", nodeName(i));
    w.member("actor", graph_->actor(nodes_[i].actor).name);
    w.member("k", nodes_[i].k).member("execTime", execTime(i)).endObject();
  }
  w.endArray().key("edges").beginArray();
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    for (const std::size_t s : succ_[i]) {
      w.beginArray().value(i).value(s).endArray();
    }
  }
  w.endArray().endObject();
}

}  // namespace tpdf::sched
