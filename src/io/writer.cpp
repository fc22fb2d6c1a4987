// Writer for the .tpdf format (see format.hpp).
#include <fstream>
#include <sstream>

#include "io/format.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace tpdf::io {

using graph::Graph;
using graph::PortKind;

namespace {

std::string portKeyword(PortKind k) {
  switch (k) {
    case PortKind::DataIn:
      return "in";
    case PortKind::DataOut:
      return "out";
    case PortKind::ControlIn:
      return "ctl_in";
    case PortKind::ControlOut:
      return "ctl_out";
  }
  return "?";
}

}  // namespace

std::string writeGraph(const Graph& g) {
  std::ostringstream os;
  os << "graph " << g.name() << " {\n";

  for (const std::string& p : g.params()) {
    os << "  param " << p << ";\n";
  }
  if (!g.params().empty()) os << "\n";

  for (const graph::Actor& a : g.actors()) {
    os << "  " << (a.kind == graph::ActorKind::Kernel ? "kernel" : "control")
       << " " << a.name << " {\n";
    for (graph::PortId pid : a.ports) {
      const graph::Port& p = g.port(pid);
      os << "    " << portKeyword(p.kind) << " " << p.name << " rates "
         << p.rates().toString();
      if (p.priority != 0) os << " priority " << p.priority;
      os << ";\n";
    }
    const bool defaultExec = a.execTime.size() == 1 && a.execTime[0] == 1.0;
    if (!defaultExec) {
      os << "    exec";
      for (double t : a.execTime) os << " " << support::formatDouble(t);
      os << ";\n";
    }
    os << "  }\n";
  }

  if (g.channelCount() > 0) os << "\n";
  for (const graph::Channel& c : g.channels()) {
    const graph::Port& src = g.port(c.src);
    const graph::Port& dst = g.port(c.dst);
    os << "  channel " << c.name << " from "
       << g.actor(src.actor).name << "." << src.name << " to "
       << g.actor(dst.actor).name << "." << dst.name;
    if (c.initialTokens > 0) os << " init " << c.initialTokens;
    os << ";\n";
  }

  os << "}\n";
  return os.str();
}

void writeGraphFile(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw support::Error("cannot open '" + path + "' for writing");
  }
  out << writeGraph(g);
}

void writeJson(support::json::Writer& w, const Graph& g) {
  w.beginObject().member("name", g.name()).key("params").beginArray();
  for (const std::string& p : g.params()) w.value(p);
  w.endArray().key("actors").beginArray();
  for (const graph::Actor& a : g.actors()) {
    w.beginObject().member("name", a.name);
    w.member("kind", a.kind == graph::ActorKind::Kernel ? "kernel" : "control");
    w.key("ports").beginArray();
    for (const graph::PortId pid : a.ports) {
      const graph::Port& p = g.port(pid);
      w.beginObject().member("name", p.name);
      w.member("kind", portKeyword(p.kind))
          .member("rates", p.rates().toString());
      if (p.priority != 0) w.member("priority", p.priority);
      w.endObject();
    }
    w.endArray().key("execTime").beginArray();
    for (const double t : a.execTime) w.value(t);
    w.endArray().endObject();
  }
  w.endArray().key("channels").beginArray();
  for (const graph::Channel& c : g.channels()) {
    const graph::Port& src = g.port(c.src);
    const graph::Port& dst = g.port(c.dst);
    w.beginObject().member("name", c.name);
    w.member("from", g.actor(src.actor).name + "." + src.name);
    w.member("to", g.actor(dst.actor).name + "." + dst.name);
    if (c.initialTokens != 0) w.member("initialTokens", c.initialTokens);
    w.endObject();
  }
  w.endArray().endObject();
}

}  // namespace tpdf::io
