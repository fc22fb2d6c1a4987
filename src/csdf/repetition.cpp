#include "csdf/repetition.hpp"

#include <deque>
#include <optional>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace tpdf::csdf {

using graph::ActorId;
using graph::ChannelId;
using graph::Graph;
using symbolic::Expr;

std::string RepetitionVector::toString() const {
  std::vector<std::string> parts;
  parts.reserve(q.size());
  for (const Expr& e : q) parts.push_back(e.toString());
  return "[" + support::join(parts, ", ") + "]";
}

void RepetitionVector::write(support::json::Writer& w, const Graph& g) const {
  w.beginObject().member("consistent", consistent);
  if (!diagnostic.empty()) w.member("diagnostic", diagnostic);
  if (consistent) {
    w.key("actors").beginArray();
    for (std::size_t i = 0; i < q.size(); ++i) {
      w.beginObject().member("actor", g.actors()[i].name);
      w.member("r", r[i].toString()).member("q", q[i].toString());
      w.endObject();
    }
    w.endArray();
  }
  w.endObject();
}

std::vector<std::vector<Expr>> topologyMatrix(const Graph& g) {
  std::vector<std::vector<Expr>> gamma(
      g.channelCount(), std::vector<Expr>(g.actorCount()));
  for (const graph::Channel& c : g.channels()) {
    // Gamma_{u,j} += X_j(tau_j) for the producer, -Y_j(tau_j) for the
    // consumer; += handles self-loops correctly.
    gamma[c.id.index()][g.sourceActor(c.id).index()] +=
        g.effectiveRates(c.src).periodSum();
    gamma[c.id.index()][g.destActor(c.id).index()] -=
        g.effectiveRates(c.dst).periodSum();
  }
  return gamma;
}

namespace {

/// One balance constraint: rProd * prodTotal == rCons * consTotal.
struct Balance {
  ActorId prod;
  ActorId cons;
  Expr prodTotal;  // X_prod(tau_prod)
  Expr consTotal;  // Y_cons(tau_cons)
  ChannelId channel;
};

}  // namespace

RepetitionVector computeRepetitionVector(const Graph& g,
                                         std::span<const char> actorMask) {
  if (!actorMask.empty() && actorMask.size() != g.actorCount()) {
    throw support::Error("actor mask has " +
                         std::to_string(actorMask.size()) +
                         " entries for " + std::to_string(g.actorCount()) +
                         " actors");
  }
  RepetitionVector out;
  const auto included = [&](std::size_t actor) {
    return actorMask.empty() || actorMask[actor] != 0;
  };

  std::vector<Balance> balances;
  balances.reserve(g.channelCount());
  std::vector<std::vector<std::size_t>> adjacency(g.actorCount());
  for (const graph::Channel& c : g.channels()) {
    Balance b;
    b.prod = g.sourceActor(c.id);
    b.cons = g.destActor(c.id);
    if (!included(b.prod.index()) || !included(b.cons.index())) {
      if (included(b.prod.index()) != included(b.cons.index())) {
        throw support::Error("actor mask splits a connected component at "
                             "channel '" + g.channel(c.id).name + "'");
      }
      continue;
    }
    b.prodTotal = g.effectiveRates(c.src).periodSum();
    b.consTotal = g.effectiveRates(c.dst).periodSum();
    b.channel = c.id;
    adjacency[b.prod.index()].push_back(balances.size());
    adjacency[b.cons.index()].push_back(balances.size());
    balances.push_back(std::move(b));
  }

  std::vector<std::optional<Expr>> r(g.actorCount());

  // Try to solve a balance for the unknown side given the known side.
  // Returns false and sets `out` on an inconsistency.
  auto propagate = [&](const Balance& b, std::deque<ActorId>& queue) -> bool {
    const bool prodKnown = r[b.prod.index()].has_value();
    const bool consKnown = r[b.cons.index()].has_value();
    if (prodKnown && consKnown) {
      // Verification on a non-tree channel.
      const Expr lhs = *r[b.prod.index()] * b.prodTotal;
      const Expr rhs = *r[b.cons.index()] * b.consTotal;
      if (lhs != rhs) {
        out.consistent = false;
        out.diagnostic = "balance violated on channel '" +
                         g.channel(b.channel).name + "': " + lhs.toString() +
                         " != " + rhs.toString();
        return false;
      }
      return true;
    }
    if (!prodKnown && !consKnown) return true;  // revisit later

    const ActorId known = prodKnown ? b.prod : b.cons;
    const ActorId unknown = prodKnown ? b.cons : b.prod;
    const Expr& knownTotal = prodKnown ? b.prodTotal : b.consTotal;
    const Expr& unknownTotal = prodKnown ? b.consTotal : b.prodTotal;

    const Expr transferred = *r[known.index()] * knownTotal;
    if (unknownTotal.isZero()) {
      if (!transferred.isZero()) {
        out.consistent = false;
        out.diagnostic =
            "channel '" + g.channel(b.channel).name + "': actor '" +
            g.actor(unknown).name +
            "' never transfers tokens but its peer does (" +
            transferred.toString() + " per iteration)";
        return false;
      }
      return true;  // 0 == 0: no constraint on the unknown actor
    }
    const auto quotient = transferred.divideExact(unknownTotal);
    if (!quotient) {
      out.consistent = false;
      out.diagnostic = "channel '" + g.channel(b.channel).name +
                       "': no polynomial solution for '" +
                       g.actor(unknown).name + "' (" +
                       transferred.toString() + " / " +
                       unknownTotal.toString() + ")";
      return false;
    }
    r[unknown.index()] = *quotient;
    queue.push_back(unknown);
    return true;
  };

  // Component index per actor, so each connected component can be
  // normalized independently (a disconnected graph has one free scale
  // factor per component).
  std::vector<std::size_t> component(g.actorCount(), 0);
  std::size_t componentCount = 0;
  for (std::size_t seed = 0; seed < g.actorCount(); ++seed) {
    if (!included(seed) || r[seed].has_value()) continue;
    const std::size_t comp = componentCount++;
    r[seed] = Expr(1);
    component[seed] = comp;
    std::deque<ActorId> queue{ActorId(static_cast<std::uint32_t>(seed))};
    while (!queue.empty()) {
      const ActorId a = queue.front();
      queue.pop_front();
      component[a.index()] = comp;
      for (std::size_t bi : adjacency[a.index()]) {
        if (!propagate(balances[bi], queue)) return out;
      }
    }
  }

  // Final verification pass over every channel (covers chords whose both
  // endpoints were solved through other channels).
  for (const Balance& b : balances) {
    const Expr lhs = *r[b.prod.index()] * b.prodTotal;
    const Expr rhs = *r[b.cons.index()] * b.consTotal;
    if (lhs != rhs) {
      out.consistent = false;
      out.diagnostic = "balance violated on channel '" +
                       g.channel(b.channel).name + "': " + lhs.toString() +
                       " != " + rhs.toString();
      return out;
    }
  }

  // A trivial (zero or negative) solution for any actor means the graph
  // has no valid repetition vector.
  std::vector<Expr> rs(g.actorCount());
  for (std::size_t comp = 0; comp < componentCount; ++comp) {
    std::vector<std::size_t> memberIdx;
    std::vector<Expr> memberVals;
    for (std::size_t i = 0; i < g.actorCount(); ++i) {
      // Unmasked actors never received a solution; they must not be
      // swept into component 0 through the default component index.
      if (r[i].has_value() && component[i] == comp) {
        memberIdx.push_back(i);
        memberVals.push_back(*r[i]);
      }
    }
    memberVals = symbolic::normalizeSolutionVector(memberVals);
    for (std::size_t k = 0; k < memberIdx.size(); ++k) {
      rs[memberIdx[k]] = memberVals[k];
    }
  }
  for (std::size_t i = 0; i < g.actorCount(); ++i) {
    if (included(i) && rs[i].isZero()) {
      out.consistent = false;
      out.diagnostic =
          "actor '" + g.actor(ActorId(static_cast<std::uint32_t>(i))).name +
          "' has a trivial repetition count";
      return out;
    }
  }

  out.consistent = true;
  out.r = rs;
  out.q.reserve(rs.size());
  for (std::size_t i = 0; i < rs.size(); ++i) {
    if (!included(i)) {
      out.q.emplace_back();
      continue;
    }
    const std::int64_t tau = g.phases(ActorId(static_cast<std::uint32_t>(i)));
    out.q.push_back(rs[i] * Expr(tau));
  }
  return out;
}

}  // namespace tpdf::csdf
