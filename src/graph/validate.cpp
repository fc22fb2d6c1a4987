// Structural validation of graphs against Definition 2's well-formedness
// rules.  Analyses assume a validated graph.
#include <set>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "support/error.hpp"

namespace tpdf::graph {
namespace {

[[noreturn]] void fail(const std::string& message) {
  throw support::ModelError(message);
}

}  // namespace

void Graph::validate() const {
  if (actors_.empty()) fail("graph has no actors");

  std::set<std::string> knownParams(params_.begin(), params_.end());

  for (const Actor& a : actors_) {
    int controlInputs = 0;
    for (PortId pid : a.ports) {
      const Port& p = ports_[pid.index()];

      // Every parameter used in a rate must be declared.
      for (const symbolic::Expr& e : p.rates().entries()) {
        std::set<std::string> used;
        if (!e.isConstant()) e.collectParams(used);
        for (const std::string& name : used) {
          if (knownParams.count(name) == 0) {
            fail("port '" + a.name + "." + p.name +
                 "' uses undeclared parameter '" + name + "'");
          }
        }
        // Rates must not be identically negative; reject negative
        // constants outright.
        if (e.isConstant() && e.constant().isNegative()) {
          fail("port '" + a.name + "." + p.name + "' has negative rate " +
               e.toString());
        }
      }

      switch (p.kind) {
        case PortKind::ControlIn:
          ++controlInputs;
          if (a.kind == ActorKind::Kernel) {
            // Kernels may have at most one control port and its per-firing
            // rate must be 0 or 1 (Definition 2: Rk(m, c, n) in {0,1}).
            for (const symbolic::Expr& e : p.rates().entries()) {
              if (!e.isConstant() || (e.constant() != 0 &&
                                      e.constant() != 1)) {
                fail("control port '" + a.name + "." + p.name +
                     "' must have rates in {0,1}, got " + e.toString());
              }
            }
          }
          break;
        case PortKind::ControlOut:
          if (a.kind != ActorKind::Control) {
            fail("actor '" + a.name +
                 "' is a kernel but has control output port '" + p.name +
                 "' (control channels can start only from a control actor)");
          }
          break;
        case PortKind::DataIn:
        case PortKind::DataOut:
          break;
      }
    }
    if (a.kind == ActorKind::Kernel && controlInputs > 1) {
      fail("kernel '" + a.name + "' has " + std::to_string(controlInputs) +
           " control ports; at most one is allowed");
    }
    if (a.ports.empty()) {
      fail("actor '" + a.name + "' has no ports");
    }
  }

  std::vector<char> connected(ports_.size(), 0);  // indexed by port id
  for (const Channel& c : channels_) {
    const Port& src = ports_[c.src.index()];
    const Port& dst = ports_[c.dst.index()];
    if (isInput(src.kind)) {
      fail("channel '" + c.name + "' starts at input port '" +
           actors_[src.actor.index()].name + "." + src.name + "'");
    }
    if (!isInput(dst.kind)) {
      fail("channel '" + c.name + "' ends at output port '" +
           actors_[dst.actor.index()].name + "." + dst.name + "'");
    }
    if (isControl(src.kind) != isControl(dst.kind)) {
      fail("channel '" + c.name +
           "' mixes a control port with a data port");
    }
    if (std::exchange(connected[c.src.index()], 1) != 0) {
      fail("output port of channel '" + c.name +
           "' is attached to more than one channel");
    }
    if (std::exchange(connected[c.dst.index()], 1) != 0) {
      fail("input port of channel '" + c.name +
           "' is attached to more than one channel");
    }
  }

  for (const Port& p : ports_) {
    if (!p.channel.valid()) {
      fail("port '" + actors_[p.actor.index()].name + "." + p.name +
           "' is not connected to any channel");
    }
  }
}

}  // namespace tpdf::graph
