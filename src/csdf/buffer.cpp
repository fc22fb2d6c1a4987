#include "csdf/buffer.hpp"

#include <utility>

#include "support/checked.hpp"

namespace tpdf::csdf {

std::int64_t BufferReport::total() const {
  std::int64_t sum = 0;
  for (std::int64_t v : perChannel) sum = support::checkedAdd(sum, v);
  return sum;
}

std::int64_t BufferReport::dataTotal(const graph::Graph& g) const {
  std::int64_t sum = 0;
  for (const graph::Channel& c : g.channels()) {
    if (!g.isControlChannel(c.id)) {
      sum = support::checkedAdd(sum, perChannel[c.id.index()]);
    }
  }
  return sum;
}

std::int64_t BufferReport::controlTotal(const graph::Graph& g) const {
  std::int64_t sum = 0;
  for (const graph::Channel& c : g.channels()) {
    if (g.isControlChannel(c.id)) {
      sum = support::checkedAdd(sum, perChannel[c.id.index()]);
    }
  }
  return sum;
}

void BufferReport::write(support::json::Writer& w,
                         const graph::Graph& g) const {
  w.beginObject().member("ok", ok);
  if (!diagnostic.empty()) w.member("diagnostic", diagnostic);
  if (ok) {
    w.member("total", total()).member("dataTotal", dataTotal(g));
    w.member("controlTotal", controlTotal(g)).key("channels").beginArray();
    for (const graph::Channel& c : g.channels()) {
      w.beginObject().member("channel", c.name);
      w.member("tokens", perChannel[c.id.index()]);
      w.member("control", g.isControlChannel(c.id)).endObject();
    }
    schedule.write(w.endArray().key("schedule"), g);
  }
  w.endObject();
}

BufferReport minimumBuffers(const graph::Graph& g,
                            const RepetitionVector& rv,
                            const symbolic::Environment& env,
                            SchedulePolicy policy,
                            const graph::EvaluatedRates* rates,
                            support::Budget* budget) {
  BufferReport report;
  LivenessResult live = findSchedule(g, rv, env, policy, rates, budget);
  if (!live.live) {
    report.diagnostic = live.diagnostic;
    return report;
  }
  return buffersForSchedule(g, std::move(live.schedule), env, rates,
                            budget);
}

BufferReport buffersForSchedule(const graph::Graph& g, Schedule s,
                                const symbolic::Environment& env,
                                const graph::EvaluatedRates* rates,
                                support::Budget* budget) {
  BufferReport report;
  const ScheduleCheck check = validateSchedule(g, s, env, rates, budget);
  if (!check.ok) {
    report.diagnostic = check.diagnostic;
    return report;
  }
  report.ok = true;
  report.perChannel = check.maxOccupancy;
  report.schedule = std::move(s);
  return report;
}

}  // namespace tpdf::csdf
