#include "core/modecheck.hpp"

#include <algorithm>
#include <set>

namespace tpdf::core {

using graph::ActorId;
using graph::Graph;
using graph::PortId;
using graph::PortKind;

Graph modeRestrictedTopology(const TpdfGraph& model, ActorId kernel,
                             const ModeSpec& mode) {
  const Graph& g = model.graph();

  // Channels to drop: those attached to the kernel's rejected data ports.
  std::set<std::uint32_t> dropped;
  auto rejectSide = [&](PortKind kind, const std::vector<PortId>& active) {
    if (active.empty()) return;  // empty list = every port stays live
    for (PortId pid : g.actor(kernel).ports) {
      const graph::Port& p = g.port(pid);
      if (p.kind != kind) continue;
      if (std::find(active.begin(), active.end(), pid) == active.end()) {
        dropped.insert(p.channel.value);
      }
    }
  };
  if (mode.mode != Mode::WaitAll) {
    rejectSide(PortKind::DataIn, mode.activeInputs);
    rejectSide(PortKind::DataOut, mode.activeOutputs);
  }

  Graph restricted(g.name() + "_" + mode.name);
  for (const std::string& p : g.params()) restricted.addParam(p);
  for (const graph::Actor& a : g.actors()) {
    const ActorId id = restricted.addActor(a.name, a.kind);
    for (PortId pid : a.ports) {
      const graph::Port& p = g.port(pid);
      restricted.addPort(id, p.name, p.kind, p.rates(), p.priority);
    }
    restricted.setExecTime(id, a.execTime);
  }
  for (const graph::Channel& c : g.channels()) {
    if (dropped.count(c.id.value) != 0) continue;
    // Actor and port creation order is identical, so ids line up.
    restricted.addChannel(c.name, c.src, c.dst, c.initialTokens);
  }
  return restricted;
}

std::vector<ModeConsistency> checkModeRestrictedConsistency(
    const TpdfGraph& model) {
  std::vector<ModeConsistency> out;
  for (const graph::Actor& a : model.graph().actors()) {
    if (a.kind != graph::ActorKind::Kernel) continue;
    const std::vector<ModeSpec>& modes = model.modes(a.id);
    // Kernels with the implicit single WaitAll mode restrict nothing.
    if (modes.size() == 1 && modes[0].mode == Mode::WaitAll &&
        modes[0].activeInputs.empty() && modes[0].activeOutputs.empty()) {
      continue;
    }
    for (const ModeSpec& mode : modes) {
      ModeConsistency mc;
      mc.kernel = a.id;
      mc.mode = mode.name;
      const Graph restricted = modeRestrictedTopology(model, a.id, mode);
      mc.repetition = csdf::computeRepetitionVector(restricted);
      mc.consistent = mc.repetition.consistent;
      mc.diagnostic = mc.repetition.diagnostic;
      out.push_back(std::move(mc));
    }
  }
  return out;
}

}  // namespace tpdf::core
