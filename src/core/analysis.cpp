#include "core/analysis.hpp"

#include <sstream>

namespace tpdf::core {

AnalysisReport analyze(const graph::Graph& g,
                       const symbolic::Environment& env,
                       support::Budget* budget) {
  return analyze(AnalysisContext(g), env, budget);
}

AnalysisReport analyze(const AnalysisContext& ctx,
                       const symbolic::Environment& env,
                       support::Budget* budget) {
  AnalysisReport report;
  report.repetition = ctx.repetition();
  report.safety = checkRateSafety(ctx);
  report.liveness = checkLiveness(ctx, env, 2, budget);
  return report;
}

AnalysisReport analyze(const TpdfGraph& g, const symbolic::Environment& env,
                       support::Budget* budget) {
  g.validate();
  return analyze(g.graph(), env, budget);
}

std::string AnalysisReport::toString(const graph::Graph& g) const {
  std::ostringstream os;
  os << "graph '" << g.name() << "': " << g.actorCount() << " actors, "
     << g.channelCount() << " channels\n";

  os << "rate consistency: ";
  if (repetition.consistent) {
    os << "CONSISTENT, q = " << repetition.toString() << "\n";
  } else {
    os << "INCONSISTENT (" << repetition.diagnostic << ")\n";
  }

  os << "rate safety:      ";
  if (safety.safe) {
    os << "SAFE";
    if (safety.perControl.empty()) {
      os << " (no control actors)";
    }
    os << "\n";
    for (const ControlSafety& cs : safety.perControl) {
      os << "  Area(" << g.actor(cs.control).name
         << ") = " << cs.area.toString(g) << ", q_G = "
         << cs.local.qG.toString() << "\n";
    }
  } else {
    os << "UNSAFE (" << safety.diagnostic << ")\n";
  }

  os << "liveness:         ";
  if (liveness.live) {
    os << "LIVE";
    if (!liveness.parametricSchedule.empty()) {
      os << ", schedule: " << liveness.parametricSchedule;
    }
    os << "\n";
    for (const CycleReport& c : liveness.cycles) {
      os << "  cycle (" << c.localSchedule.toString(g) << "): "
         << (c.strictClusterable ? "clusterable" : "late schedule required")
         << "\n";
    }
  } else {
    os << "DEADLOCK (" << liveness.diagnostic << ")\n";
  }

  os << "boundedness:      "
     << (bounded() ? "BOUNDED (Theorem 2)" : "NOT GUARANTEED") << "\n";
  return os.str();
}

void AnalysisReport::write(support::json::Writer& w,
                           const graph::Graph& g) const {
  w.beginObject().member("graph", g.name()).member("actors", g.actorCount());
  w.member("channels", g.channelCount()).member("consistent", consistent());
  w.member("rateSafe", rateSafe()).member("live", live());
  w.member("bounded", bounded());
  repetition.write(w.key("repetition"), g);
  safety.write(w.key("safety"), g);
  liveness.write(w.key("liveness"), g);
  w.endObject();
}

}  // namespace tpdf::core
