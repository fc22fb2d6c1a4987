// Graphviz export: kernels as boxes, control actors as hexagons, control
// channels dashed, rates as edge labels.
#include <sstream>

#include "graph/graph.hpp"

namespace tpdf::graph {

std::string Graph::toDot() const {
  std::ostringstream os;
  os << "digraph \"" << name_ << "\" {\n";
  os << "  rankdir=LR;\n";
  for (const Actor& a : actors_) {
    os << "  \"" << a.name << "\" [shape="
       << (a.kind == ActorKind::Control ? "hexagon" : "box") << "];\n";
  }
  for (const Channel& c : channels_) {
    const Port& src = ports_[c.src.index()];
    const Port& dst = ports_[c.dst.index()];
    os << "  \"" << actors_[src.actor.index()].name << "\" -> \""
       << actors_[dst.actor.index()].name << "\" [label=\"" << c.name << " "
       << src.rates().toString() << "->" << dst.rates().toString();
    if (c.initialTokens > 0) {
      os << " (" << c.initialTokens << ")";
    }
    os << "\"";
    if (isControlChannel(c.id)) os << " style=dashed";
    os << "];\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace tpdf::graph
