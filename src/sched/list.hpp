// Static list scheduling of a canonical period onto a Platform
// (Section III-D).
//
// The two TPDF-specific rules are implemented exactly as stated:
//   1. control actors have the highest scheduling priority (a ready
//      control occurrence is placed before any ready kernel occurrence,
//      optionally on a dedicated PE);
//   2. a kernel that receives a control token is released by the arrival
//      of that token: its control dependencies carry no link latency
//      ("the system acts as if it was instantaneous") and control-token
//      receivers are preferred among kernels of equal rank.
// Ties are broken by critical-path rank (longest path to a sink).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sched/canonical.hpp"
#include "sched/platform.hpp"
#include "support/json.hpp"

namespace tpdf::sched {

struct ScheduledOccurrence {
  std::size_t node = 0;   // index into CanonicalPeriod::nodes()
  std::size_t pe = 0;
  double start = 0.0;
  double finish = 0.0;
};

struct ListSchedule {
  std::vector<ScheduledOccurrence> entries;  // in start order
  double makespan = 0.0;

  /// Entry of a given canonical-period node.
  const ScheduledOccurrence& of(std::size_t node) const;

  /// Gantt-style rendering, one line per PE.
  std::string toString(const CanonicalPeriod& cp) const;

  /// {"makespan": 12.5, "entries": [{"node": "A1", "pe": 0, "start":
  /// 0.0, "finish": 1.0}, ...]} in start order.
  void write(support::json::Writer& w, const CanonicalPeriod& cp) const;
  support::json::Value toJson(const CanonicalPeriod& cp) const {
    return support::json::toValue(*this, cp);
  }
};

struct ListSchedulerOptions {
  /// Disable rule 1 (used by the scheduling ablation bench).
  bool controlPriority = true;
};

/// Schedules `cp` on `platform`.  Every dependency is honoured; a node
/// starts at max(PE available, preds finish + link latency if mapped on a
/// different PE; control-token edges are latency-free).  A non-null
/// `budget` is checkpointed once per placed occurrence and may abort
/// with support::BudgetExceeded.
ListSchedule listSchedule(const CanonicalPeriod& cp, const Platform& platform,
                          const ListSchedulerOptions& options = {},
                          support::Budget* budget = nullptr);

/// Static per-link load of one canonical iteration under the platform's
/// topology: every cross-PE data dependency contributes one unit-token
/// transfer along its precomputed route.  Indexed by link id; empty when
/// the platform has no topology.  Dependencies touching the off-fabric
/// control PE are not routed (control traffic is quasi-instantaneous).
struct LinkLoad {
  std::int64_t transfers = 0;
  /// Total uncontended occupancy (sum of per-transfer service times).
  double busy = 0.0;
};
std::vector<LinkLoad> linkLoad(const CanonicalPeriod& cp,
                               const ListSchedule& schedule,
                               const Platform& platform);

}  // namespace tpdf::sched
