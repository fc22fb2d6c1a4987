// Sequential schedules of one graph iteration.
//
// A Schedule is a concrete firing order for one iteration (each actor j
// appears exactly q_j times).  Definition 1 of the paper: repeating such
// a schedule forever keeps every buffer bounded.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "graph/rates.hpp"
#include "support/budget.hpp"
#include "support/json.hpp"
#include "symbolic/env.hpp"

namespace tpdf::csdf {

/// A run of consecutive firings of one actor: its firing indices
/// firstK, firstK + 1, ..., firstK + count - 1 (0-based within the
/// iteration; the phase of firing k is k mod tau).  Packed into 16
/// bytes, the size of one (actor, k) pair, so a finely interleaved
/// schedule (one firing per run) costs no more than a firing list.
struct ScheduleRun {
  std::int64_t firstK = 0;
  graph::ActorId actor;
  std::uint32_t count = 0;

  bool operator==(const ScheduleRun&) const = default;
};
static_assert(sizeof(ScheduleRun) == 16);

/// Stored run-length encoded, the looped form the paper writes
/// schedules in (Figure 1: (a3)^2 (a1)^3 (a2)^2): memory grows with the
/// number of runs, not with the number of firings — a 100k-actor chain
/// whose iteration is ~19M firings holds 100k runs.  push() extends the
/// last run only when it fires the same actor at the next index, so the
/// encoding is lossless (any firing sequence, valid or not, expands
/// back exactly) and canonical (equal sequences have equal runs); a run
/// that would exceed 2^32 - 1 firings continues in a new one.
class Schedule {
 public:
  /// Appends one firing: firing index `k` of actor `a`.
  void push(graph::ActorId a, std::int64_t k) { push(a, k, 1); }

  /// Appends `count` firings of `a`, indices firstK .. firstK+count-1,
  /// exactly as `count` single pushes would: the first extends the last
  /// run when it continues it, and the rest go into runs of at most
  /// 2^32 - 1 firings each.
  void push(graph::ActorId a, std::int64_t firstK, std::int64_t count) {
    constexpr std::int64_t kMaxRun = std::numeric_limits<std::uint32_t>::max();
    firings_ += static_cast<std::size_t>(count);
    if (!runs_.empty()) {
      ScheduleRun& last = runs_.back();
      if (last.actor == a && last.firstK + last.count == firstK) {
        const std::int64_t add = std::min(count, kMaxRun - last.count);
        last.count += static_cast<std::uint32_t>(add);
        firstK += add;
        count -= add;
      }
    }
    for (; count > 0; count -= kMaxRun, firstK += kMaxRun) {
      runs_.push_back({.firstK = firstK,
                       .actor = a,
                       .count = static_cast<std::uint32_t>(
                           std::min(count, kMaxRun))});
    }
  }

  bool empty() const { return firings_ == 0; }
  /// Number of firings (not runs).
  std::size_t size() const { return firings_; }
  const std::vector<ScheduleRun>& runs() const { return runs_; }

  /// Number of firings of `a` in this schedule.
  std::int64_t countOf(graph::ActorId a) const;

  /// Grouped rendering, e.g. "a3^2 a1^3 a2^2"; singleton groups are
  /// printed without the exponent: "A B C".  A group is every adjacent
  /// firing of one actor (runs split only by an index gap are merged).
  std::string toString(const graph::Graph& g) const;

  /// {"firings": N, "runs": [{"actor": "a3", "count": 2}, ...]} with the
  /// same grouping as toString() (lossless for a valid schedule: each
  /// actor's firing indices are consecutive, so k is recoverable per
  /// group).
  void write(support::json::Writer& w, const graph::Graph& g) const;
  support::json::Value toJson(const graph::Graph& g) const {
    return support::json::toValue(*this, g);
  }

 private:
  std::vector<ScheduleRun> runs_;
  std::size_t firings_ = 0;
};

/// Result of token-accurate schedule validation / construction.
struct ScheduleCheck {
  bool ok = false;
  std::string diagnostic;
  /// Channel occupancy after executing the schedule (indexed by channel);
  /// for a full iteration of a consistent graph this equals the initial
  /// occupancy (Theorem 2).
  std::vector<std::int64_t> finalOccupancy;
  /// Per-channel maximum occupancy observed during execution.
  std::vector<std::int64_t> maxOccupancy;
};

/// Executes `s` token-accurately under `env` and checks that no channel
/// ever goes negative.  All ports of an actor are treated as required
/// (the conservative dataflow rule used by the static analyses).  When
/// `rates` is non-null (built from `g` under `env`) no rate expression is
/// re-evaluated at all.  Without `rates`, rates are evaluated lazily per
/// firing event, so a partial schedule stays checkable even when actors
/// it never fires have unbound parameters under `env`.  A non-null
/// `budget` is checkpointed once per replayed firing.
ScheduleCheck validateSchedule(const graph::Graph& g, const Schedule& s,
                               const symbolic::Environment& env = {},
                               const graph::EvaluatedRates* rates = nullptr,
                               support::Budget* budget = nullptr);

}  // namespace tpdf::csdf
