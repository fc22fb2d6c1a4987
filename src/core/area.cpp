#include "core/area.hpp"

#include <algorithm>

namespace tpdf::core {

using graph::ActorId;
using graph::Graph;

namespace {

std::set<ActorId> successorsOf(const Graph& g, const std::set<ActorId>& from) {
  std::set<ActorId> out;
  for (ActorId a : from) {
    for (graph::ChannelId c : g.outChannels(a)) {
      out.insert(g.destActor(c));
    }
  }
  return out;
}

std::set<ActorId> predecessorsOf(const Graph& g,
                                 const std::set<ActorId>& from) {
  std::set<ActorId> out;
  for (ActorId a : from) {
    for (graph::ChannelId c : g.inChannels(a)) {
      out.insert(g.sourceActor(c));
    }
  }
  return out;
}

}  // namespace

ControlArea controlArea(const Graph& g, ActorId ctl) {
  ControlArea area;
  area.control = ctl;
  area.prec = predecessorsOf(g, {ctl});
  area.succ = successorsOf(g, {ctl});

  // infl(g) = (succ(prec(g)) ∩ prec(succ(g))) \ {g}.
  const std::set<ActorId> succOfPrec = successorsOf(g, area.prec);
  const std::set<ActorId> precOfSucc = predecessorsOf(g, area.succ);
  std::set_intersection(succOfPrec.begin(), succOfPrec.end(),
                        precOfSucc.begin(), precOfSucc.end(),
                        std::inserter(area.infl, area.infl.begin()));
  area.infl.erase(ctl);

  area.all = area.prec;
  area.all.insert(area.succ.begin(), area.succ.end());
  area.all.insert(area.infl.begin(), area.infl.end());
  area.all.erase(ctl);
  return area;
}

std::string ControlArea::toString(const Graph& g) const {
  std::string out = "{";
  bool first = true;
  for (ActorId a : all) {
    if (!first) out += ", ";
    out += g.actor(a).name;
    first = false;
  }
  return out + "}";
}

}  // namespace tpdf::core
