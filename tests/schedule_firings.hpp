// Expands a run-length csdf::Schedule into its firing sequence, one
// (actor, k) pair per firing: the form the firing-order tests compare.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "csdf/schedule.hpp"
#include "graph/ids.hpp"

namespace tpdf::csdf {

using Firing = std::pair<graph::ActorId, std::int64_t>;

inline std::vector<Firing> expandFirings(const Schedule& s) {
  std::vector<Firing> out;
  out.reserve(s.size());
  for (const ScheduleRun& run : s.runs()) {
    for (std::int64_t i = 0; i < run.count; ++i) {
      out.emplace_back(run.actor, run.firstK + i);
    }
  }
  return out;
}

}  // namespace tpdf::csdf
