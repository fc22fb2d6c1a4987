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

/// listSchedule() for one period on many platforms.  The critical-path
/// ranks depend only on the period, so they are computed once, and the
/// per-run state is kept between runs: a run after the first allocates
/// nothing unless its platform has more PEs.  The sweep schedules each
/// valuation's period on every platform variant through one of these.
class ListScheduler {
 public:
  /// `cp` must outlive the scheduler.
  explicit ListScheduler(const CanonicalPeriod& cp,
                         const ListSchedulerOptions& options = {});

  /// Schedules the period on `platform` as listSchedule() does and
  /// returns the makespan.  When `entries` is not null, the placements
  /// are appended to it in placement order.
  double run(const Platform& platform, support::Budget* budget = nullptr,
             std::vector<ScheduledOccurrence>* entries = nullptr);

 private:
  // Per-node state in one record, so that visiting a node (placing it,
  // reading a placed predecessor, releasing a successor) touches one
  // place in memory.
  struct NodeState {
    double exec = 0.0;
    double rank = 0.0;        // critical-path rank, fixed by rank()
    double finish = 0.0;      // once placed
    std::size_t pe = 0;       // once placed
    std::size_t pending = 0;  // unplaced predecessors (in rank(): successors)
    bool control = false;     // an occurrence of a control actor
  };
  // A ready node with its priority key: control actors first (rule 1),
  // then by descending rank, then by node index for determinism.
  struct Ready {
    bool control;
    double rank;
    std::size_t node;
  };
  /// The ready heap's order: its top is the highest-priority node.  The
  /// order is strict and total, so the pick does not depend on the
  /// heap's layout.
  static bool lowerPriority(const Ready& a, const Ready& b);

  /// Computes the ranks and `initial_` (once, on the first run, so that
  /// a bad platform is reported before a cyclic period).
  void rank();

  const CanonicalPeriod* cp_;
  ListSchedulerOptions options_;
  bool hasRanks_ = false;
  std::vector<NodeState> state_;
  std::vector<Ready> initial_;  // heap of the nodes ready at the start
  std::vector<Ready> ready_;    // per run
  std::vector<double> peAvailable_;
};

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
