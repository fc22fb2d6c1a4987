// Minimum buffer sizing (used for the Figure 8 reproduction).
//
// The minimum buffer capacity of a channel for a given sequential
// schedule is the maximum occupancy the channel reaches while executing
// it.  minimumBuffers() searches with the greedy min-occupancy policy,
// which is exact for the chain-shaped graphs of the OFDM case study and a
// sound upper bound in general.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "csdf/liveness.hpp"
#include "graph/graph.hpp"
#include "support/json.hpp"
#include "symbolic/env.hpp"

namespace tpdf::csdf {

struct BufferReport {
  bool ok = false;
  std::string diagnostic;
  /// Max occupancy per channel (indexed by ChannelId).
  std::vector<std::int64_t> perChannel;
  /// The schedule whose execution produced these occupancies.
  Schedule schedule;

  /// Sum over all channels.
  std::int64_t total() const;
  /// Sum over data channels only.
  std::int64_t dataTotal(const graph::Graph& g) const;
  /// Sum over control channels only.
  std::int64_t controlTotal(const graph::Graph& g) const;

  std::int64_t of(graph::ChannelId c) const {
    return perChannel.at(c.index());
  }

  /// {"ok": true, "total": N, "dataTotal": N, "controlTotal": N,
  /// "channels": [{"channel": "e1", "tokens": N, "control": false}, ...],
  /// "schedule": <Schedule::write>}.
  void write(support::json::Writer& w, const graph::Graph& g) const;
  support::json::Value toJson(const graph::Graph& g) const {
    return support::json::toValue(*this, g);
  }
};

/// Computes per-channel minimum buffer sizes for one iteration of `g`
/// under `env`: the schedule search and its replay both reuse `rv` (and
/// `rates`, when non-null — built from `g` under `env`) instead of
/// recomputing them.  A non-null `budget` is checkpointed once per
/// firing of the schedule search and replay and may abort with
/// support::BudgetExceeded.
BufferReport minimumBuffers(const graph::Graph& g, const RepetitionVector& rv,
                            const symbolic::Environment& env = {},
                            SchedulePolicy policy = SchedulePolicy::MinOccupancy,
                            const graph::EvaluatedRates* rates = nullptr,
                            support::Budget* budget = nullptr);

/// Buffer sizes for a caller-provided schedule, which the report keeps
/// (taken by value: move a schedule in that is not needed afterwards).
/// `rates` and `budget` as for validateSchedule.
BufferReport buffersForSchedule(const graph::Graph& g, Schedule s,
                                const symbolic::Environment& env = {},
                                const graph::EvaluatedRates* rates = nullptr,
                                support::Budget* budget = nullptr);

}  // namespace tpdf::csdf
