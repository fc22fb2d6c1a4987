#include "csdf/repetition.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>

#include "support/checked.hpp"
#include "support/error.hpp"
#include "support/rational.hpp"
#include "support/strings.hpp"

namespace tpdf::csdf {

using graph::ActorId;
using graph::ChannelId;
using graph::Graph;
using support::Rational;
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

constexpr std::uint32_t kNone = ~std::uint32_t{0};

bool included(std::span<const char> actorMask, std::size_t actor) {
  return actorMask.empty() || actorMask[actor] != 0;
}

/// Period sum of a port's effective rates when they are all integer
/// constants; 0 otherwise.  A zero sum is returned as 0 too: both cases
/// belong to the symbolic solve.  Throws OverflowError where the
/// symbolic period sum would.
std::int64_t constantPeriodSum(const Graph& g, graph::PortId p) {
  std::int64_t sum = 0;
  for (const Expr& e : g.effectiveRates(p).entries()) {
    if (e.isZero()) continue;
    if (!e.isConstant()) return 0;
    const Rational c = e.constant();
    if (!c.isInteger() || c.isNegative()) return 0;
    sum = support::checkedAdd(sum, c.num());
  }
  return sum;
}

/// A positive fraction in lowest terms.  Each operation below yields the
/// reduced value support::Rational would and overflows exactly when that
/// value does not fit, so a component the constant-rate solve finishes
/// never overflows in the symbolic one.
struct Fraction {
  std::int64_t num = 1;
  std::int64_t den = 1;

  /// This times the positive integer k.
  Fraction times(std::int64_t k) const {
    const std::int64_t g = support::gcd64(k, den);
    return {support::checkedMul(num, k / g), den / g};
  }
  /// This divided by the positive integer k.
  Fraction over(std::int64_t k) const {
    const std::int64_t g = support::gcd64(num, k);
    return {num / g, support::checkedMul(den, k / g)};
  }
  bool operator==(const Fraction&) const = default;
};

/// The constant-rate solve.  Walks the connected components of the
/// included actors over the frozen CSR adjacency, in seed order, and
/// solves each one whose period sums are all constant and non-zero in
/// checked int64 fractions: r = 1 for the seed, r_b = r_a * X_a / Y_b
/// along the channel that first reaches b, every other channel checked
/// once.  A solved component is normalized as normalizeSolutionVector
/// would and its entries go to `value`.  The actors of every other
/// component (parametric, a zero period sum, a balance violated or an
/// overflow) are marked in `pending` for the symbolic solve, which then
/// produces the same diagnostic it always has.  Positive rates make a
/// component's minimal solution unique, so both solves agree on it.
void solveConstantComponents(const Graph& g, std::span<const char> actorMask,
                             std::vector<std::int64_t>& value,
                             std::vector<char>& pending) {
  const std::size_t n = g.actorCount();
  std::vector<std::uint32_t> position(n, kNone);  // index in `order`
  std::vector<std::uint32_t> order;  // actors in BFS order, by component
  order.reserve(n);
  std::vector<Fraction> r(n);

  for (std::size_t seed = 0; seed < n; ++seed) {
    if (!included(actorMask, seed) || position[seed] != kNone) continue;
    const std::size_t begin = order.size();
    position[seed] = static_cast<std::uint32_t>(begin);
    r[seed] = Fraction{};
    order.push_back(static_cast<std::uint32_t>(seed));
    bool solved = true;

    // Takes channel `c` from the actor at BFS index `i`, its producer
    // end when `fromProd`.  Each channel is visited from both ends; the
    // visit from the end reached first solves or checks it.
    const auto visit = [&](std::size_t i, ChannelId c, bool fromProd) {
      const ActorId other = fromProd ? g.destActor(c) : g.sourceActor(c);
      const std::uint32_t seen = position[other.index()];
      if (seen == kNone) {
        position[other.index()] = static_cast<std::uint32_t>(order.size());
        order.push_back(other.value);
      } else if (seen < i || (seen == i && !fromProd)) {
        return;  // second visit
      }
      if (!solved) return;
      const graph::Channel& ch = g.channel(c);
      try {
        const std::int64_t prodTotal = constantPeriodSum(g, ch.src);
        const std::int64_t consTotal = constantPeriodSum(g, ch.dst);
        if (prodTotal == 0 || consTotal == 0) {
          solved = false;
        } else if (seen == kNone) {
          const Fraction& known = r[order[i]];
          r[other.index()] =
              fromProd ? known.times(prodTotal).over(consTotal)
                       : known.times(consTotal).over(prodTotal);
        } else {
          solved = r[g.sourceActor(c).index()].times(prodTotal) ==
                   r[g.destActor(c).index()].times(consTotal);
        }
      } catch (const support::OverflowError&) {
        solved = false;
      }
    };
    for (std::size_t i = begin; i < order.size(); ++i) {
      const ActorId a(order[i]);
      for (const ChannelId c : g.outChannels(a)) visit(i, c, true);
      for (const ChannelId c : g.inChannels(a)) visit(i, c, false);
    }

    const std::span<const std::uint32_t> members(order.data() + begin,
                                                 order.size() - begin);
    if (solved) {
      // Scale by the lcm of the denominators; the seed's r = 1 makes the
      // gcd of the numerators 1 already.
      try {
        std::int64_t denLcm = 1;
        for (const std::uint32_t a : members) {
          denLcm = support::lcm64(denLcm, r[a].den);
        }
        for (const std::uint32_t a : members) {
          value[a] = support::checkedMul(r[a].num, denLcm / r[a].den);
        }
      } catch (const support::OverflowError&) {
        solved = false;
      }
    }
    if (!solved) {
      for (const std::uint32_t a : members) {
        value[a] = 0;
        pending[a] = 1;
      }
    }
  }
}

/// Theorem 1's spanning-tree solve in expression arithmetic over the
/// actors marked in `pending` (whole components), seeded in actor order
/// and walking channels in id order.  Writes their r entries to `rs`;
/// on an inconsistency sets out.diagnostic and returns false.
bool solveSymbolic(const Graph& g, const std::vector<char>& pending,
                   std::vector<Expr>& rs, RepetitionVector& out) {
  const std::size_t n = g.actorCount();
  std::vector<Balance> balances;
  // Per-actor balance lists in CSR form, in channel order.
  std::vector<std::uint32_t> adjOffset(n + 1, 0);
  for (const graph::Channel& c : g.channels()) {
    const ActorId prod = g.sourceActor(c.id);
    const ActorId cons = g.destActor(c.id);
    if (!pending[prod.index()]) continue;
    Balance b;
    b.prod = prod;
    b.cons = cons;
    b.prodTotal = g.effectiveRates(c.src).periodSum();
    b.consTotal = g.effectiveRates(c.dst).periodSum();
    b.channel = c.id;
    ++adjOffset[prod.index() + 1];
    ++adjOffset[cons.index() + 1];
    balances.push_back(std::move(b));
  }
  for (std::size_t i = 0; i < n; ++i) adjOffset[i + 1] += adjOffset[i];
  std::vector<std::uint32_t> adjacency(adjOffset[n]);
  {
    std::vector<std::uint32_t> cursor(adjOffset.begin(), adjOffset.end() - 1);
    for (std::size_t bi = 0; bi < balances.size(); ++bi) {
      adjacency[cursor[balances[bi].prod.index()]++] =
          static_cast<std::uint32_t>(bi);
      adjacency[cursor[balances[bi].cons.index()]++] =
          static_cast<std::uint32_t>(bi);
    }
  }

  std::vector<std::optional<Expr>> r(n);

  // Try to solve a balance for the unknown side given the known side.
  // Returns false and sets `out` on an inconsistency.
  auto propagate = [&](const Balance& b,
                       std::vector<ActorId>& queue) -> bool {
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
  // factor per component; a zero-rate channel that leaves its far end
  // unsolved splits a component, and the far end seeds its own).
  std::vector<std::uint32_t> component(n, kNone);
  std::uint32_t componentCount = 0;
  std::vector<ActorId> queue;
  for (std::size_t seed = 0; seed < n; ++seed) {
    if (!pending[seed] || r[seed].has_value()) continue;
    const std::uint32_t comp = componentCount++;
    r[seed] = Expr(1);
    queue.assign(1, ActorId(static_cast<std::uint32_t>(seed)));
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const ActorId a = queue[head];
      component[a.index()] = comp;
      for (std::uint32_t i = adjOffset[a.index()];
           i < adjOffset[a.index() + 1]; ++i) {
        if (!propagate(balances[adjacency[i]], queue)) return false;
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
      return false;
    }
  }

  // Normalize each component's entries together: group the members of
  // every component in one pass (actor order within a component).
  std::vector<std::uint32_t> memberOffset(componentCount + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (component[i] != kNone) ++memberOffset[component[i] + 1];
  }
  for (std::uint32_t c = 0; c < componentCount; ++c) {
    memberOffset[c + 1] += memberOffset[c];
  }
  std::vector<std::uint32_t> members(memberOffset[componentCount]);
  {
    std::vector<std::uint32_t> cursor(memberOffset.begin(),
                                      memberOffset.end() - 1);
    for (std::size_t i = 0; i < n; ++i) {
      if (component[i] != kNone) {
        members[cursor[component[i]]++] = static_cast<std::uint32_t>(i);
      }
    }
  }
  std::vector<Expr> memberVals;
  for (std::uint32_t c = 0; c < componentCount; ++c) {
    memberVals.clear();
    for (std::uint32_t k = memberOffset[c]; k < memberOffset[c + 1]; ++k) {
      memberVals.push_back(*r[members[k]]);
    }
    memberVals = symbolic::normalizeSolutionVector(memberVals);
    for (std::uint32_t k = memberOffset[c]; k < memberOffset[c + 1]; ++k) {
      rs[members[k]] = std::move(memberVals[k - memberOffset[c]]);
    }
  }
  return true;
}

RepetitionVector solve(const Graph& g, std::span<const char> actorMask,
                       bool constantFirst) {
  if (!actorMask.empty() && actorMask.size() != g.actorCount()) {
    throw support::Error("actor mask has " +
                         std::to_string(actorMask.size()) +
                         " entries for " + std::to_string(g.actorCount()) +
                         " actors");
  }
  RepetitionVector out;
  const std::size_t n = g.actorCount();
  if (!actorMask.empty()) {
    for (const graph::Channel& c : g.channels()) {
      if (included(actorMask, g.sourceActor(c.id).index()) !=
          included(actorMask, g.destActor(c.id).index())) {
        throw support::Error("actor mask splits a connected component at "
                             "channel '" + g.channel(c.id).name + "'");
      }
    }
  }

  // Per actor: the constant-rate solve's entry (0 if it left the actor
  // to the symbolic solve), else the symbolic solve's entry in `rs`.
  std::vector<std::int64_t> value(n, 0);
  std::vector<char> pending(n, 0);
  if (constantFirst) {
    solveConstantComponents(g, actorMask, value, pending);
  } else {
    for (std::size_t i = 0; i < n; ++i) pending[i] = included(actorMask, i);
  }
  std::vector<Expr> rs;
  if (std::find(pending.begin(), pending.end(), 1) != pending.end()) {
    rs.resize(n);
    if (!solveSymbolic(g, pending, rs, out)) return out;
  }

  // A trivial (zero or negative) solution for any actor means the graph
  // has no valid repetition vector.
  for (std::size_t i = 0; i < n; ++i) {
    if (pending[i] && rs[i].isZero()) {
      out.consistent = false;
      out.diagnostic =
          "actor '" + g.actor(ActorId(static_cast<std::uint32_t>(i))).name +
          "' has a trivial repetition count";
      return out;
    }
  }

  out.consistent = true;
  out.r.reserve(n);
  out.q.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!included(actorMask, i)) {
      out.r.emplace_back();
      out.q.emplace_back();
      continue;
    }
    const std::int64_t tau = g.phases(ActorId(static_cast<std::uint32_t>(i)));
    std::int64_t q = 0;
    if (!pending[i] && !__builtin_mul_overflow(value[i], tau, &q)) {
      out.r.emplace_back(value[i]);
      out.q.emplace_back(q);
    } else {
      Expr r = pending[i] ? std::move(rs[i]) : Expr(value[i]);
      out.q.push_back(r * Expr(tau));
      out.r.push_back(std::move(r));
    }
  }
  return out;
}

}  // namespace

RepetitionVector computeRepetitionVector(const Graph& g,
                                         std::span<const char> actorMask) {
  return solve(g, actorMask, true);
}

RepetitionVector computeRepetitionVectorSymbolic(
    const Graph& g, std::span<const char> actorMask) {
  return solve(g, actorMask, false);
}

}  // namespace tpdf::csdf
