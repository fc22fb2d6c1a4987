#include "core/safety.hpp"

#include "support/error.hpp"

namespace tpdf::core {

using graph::ActorId;
using graph::Graph;
using symbolic::Expr;

namespace {

/// Checks Equation 9 on one channel between the control actor and a
/// neighbour.  Returns an empty string on success, a diagnostic otherwise.
std::string checkChannel(const Graph& g,
                         const graph::Channel& c, bool controlIsProducer,
                         const Expr& qLNeighbour) {
  const graph::PortId ctlPort = controlIsProducer ? c.src : c.dst;
  const graph::PortId actorPort = controlIsProducer ? c.dst : c.src;
  try {
    const Expr ctlSide =
        g.effectiveRates(ctlPort).cumulative(std::int64_t{1});
    const Expr actorSide =
        g.effectiveRates(actorPort).cumulative(qLNeighbour);
    if (ctlSide != actorSide) {
      return "channel '" + c.name + "': control transfers " +
             ctlSide.toString() + " token(s) per firing but its area " +
             "transfers " + actorSide.toString() + " per local iteration";
    }
  } catch (const support::Error& e) {
    return "channel '" + c.name + "': " + e.what();
  }
  return "";
}

}  // namespace

RateSafetyReport checkRateSafety(const Graph& g,
                                 const csdf::RepetitionVector& rv) {
  RateSafetyReport report;
  if (!rv.consistent) {
    report.diagnostic = "graph is not rate consistent: " + rv.diagnostic;
    return report;
  }

  report.safe = true;
  for (const graph::Actor& actor : g.actors()) {
    if (actor.kind != graph::ActorKind::Control) continue;

    ControlSafety cs;
    cs.control = actor.id;
    cs.area = controlArea(g, actor.id);
    cs.local = localSolution(g, rv, cs.area.all);
    if (!cs.local.ok) {
      cs.diagnostic = cs.local.diagnostic;
      report.perControl.push_back(std::move(cs));
      report.safe = false;
      continue;
    }

    // The control actor must fire exactly once per local iteration.
    bool ok = true;
    const auto perLocal = rv.qOf(actor.id).divideExact(cs.local.qG);
    if (!perLocal) {
      cs.diagnostic = "control firing count " + rv.qOf(actor.id).toString() +
                      " is not a multiple of the local iteration gcd " +
                      cs.local.qG.toString();
      ok = false;
    } else {
      cs.firingsPerLocalIteration = *perLocal;
      if (!perLocal->isOne()) {
        cs.diagnostic = "control actor '" + actor.name + "' fires " +
                        perLocal->toString() +
                        " times per local iteration of its area (must be 1)";
        ok = false;
      }
    }

    // Equation 9 on every channel between the control actor and its
    // predecessors / successors.
    if (ok) {
      for (graph::ChannelId cid : g.outChannels(actor.id)) {
        const graph::Channel& c = g.channel(cid);
        const ActorId neighbour = g.destActor(cid);
        if (neighbour == actor.id) continue;  // self-loop: no Eq. 9 form
        const std::string err =
            checkChannel(g, c, /*controlIsProducer=*/true,
                         cs.local.of(neighbour));
        if (!err.empty()) {
          cs.diagnostic = err;
          ok = false;
          break;
        }
      }
    }
    if (ok) {
      for (graph::ChannelId cid : g.inChannels(actor.id)) {
        const graph::Channel& c = g.channel(cid);
        const ActorId neighbour = g.sourceActor(cid);
        if (neighbour == actor.id) continue;  // self-loop: no Eq. 9 form
        const std::string err =
            checkChannel(g, c, /*controlIsProducer=*/false,
                         cs.local.of(neighbour));
        if (!err.empty()) {
          cs.diagnostic = err;
          ok = false;
          break;
        }
      }
    }

    cs.safe = ok;
    if (!ok) {
      report.safe = false;
      if (report.diagnostic.empty()) report.diagnostic = cs.diagnostic;
    }
    report.perControl.push_back(std::move(cs));
  }
  return report;
}

RateSafetyReport checkRateSafety(const AnalysisContext& ctx) {
  return checkRateSafety(ctx.view(), ctx.repetition());
}

void RateSafetyReport::write(support::json::Writer& w, const Graph& g) const {
  w.beginObject().member("safe", safe);
  if (!diagnostic.empty()) w.member("diagnostic", diagnostic);
  w.key("controls").beginArray();
  for (const ControlSafety& cs : perControl) {
    w.beginObject().member("control", g.actor(cs.control).name);
    w.member("safe", cs.safe);
    if (!cs.diagnostic.empty()) w.member("diagnostic", cs.diagnostic);
    w.key("area").beginArray();
    for (const graph::ActorId a : cs.area.all) w.value(g.actor(a).name);
    w.endArray();
    if (cs.local.ok) w.member("qG", cs.local.qG.toString());
    w.member("firingsPerLocalIteration",
             cs.firingsPerLocalIteration.toString());
    w.endObject();
  }
  w.endArray().endObject();
}

}  // namespace tpdf::core
