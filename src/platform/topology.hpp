// The interconnect model of an MPPA-like execution platform (the
// fabric the paper's Kalray MPPA-256 target actually has, which the
// old 3-field sched::Platform abstracted away entirely).
//
// A Topology is a set of PEs plus an explicit directed link list, with
// per-link bandwidth (tokens per time unit; +inf = unlimited) and
// latency, and a precomputed deterministic route table: one fixed link
// sequence per ordered PE pair (XY dimension-order routing on meshes,
// BFS shortest path with lowest-link-id tie-breaking elsewhere, the
// single shared medium on a bus).  Routes never change at run time, so
// both the static scheduler bound (sched::listSchedule) and the
// event-driven contention model (sim::Simulator link reservations)
// charge the same links for the same transfer.
//
// An *ideal* topology — a crossbar whose links all have infinite
// bandwidth and zero latency — is the legacy platform: it adds zero
// cost everywhere and reproduces pre-platform schedules and sim traces
// byte-identically (tests/platform_golden_test.cpp pins this).
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>


namespace tpdf::platform {

enum class TopologyKind { Crossbar, Bus, Ring, Mesh };

/// "crossbar", "bus", "ring", "mesh".
std::string toString(TopologyKind k);

/// One directed communication resource.  Transfers crossing a link
/// occupy it for serviceTime(); concurrent transfers serialize.
struct Link {
  std::uint32_t id = 0;
  /// "0->1" for point-to-point links, "bus" for the shared medium.
  std::string name;
  /// Endpoint PEs (equal and meaningless for the bus medium).
  std::size_t src = 0;
  std::size_t dst = 0;
  /// Tokens per time unit; +inf = unlimited.
  double bandwidth = std::numeric_limits<double>::infinity();
  /// Fixed traversal delay per transfer.
  double latency = 0.0;
};

class Topology {
 public:
  /// Dedicated link per ordered PE pair: contention-free point-to-point.
  static Topology crossbar(
      std::size_t pes,
      double bandwidth = std::numeric_limits<double>::infinity(),
      double latency = 0.0);
  /// One shared medium every transfer serializes on.
  static Topology bus(std::size_t pes,
                      double bandwidth = std::numeric_limits<double>::infinity(),
                      double latency = 0.0);
  /// Unidirectional ring 0 -> 1 -> ... -> n-1 -> 0.
  static Topology ring(std::size_t pes,
                       double bandwidth = std::numeric_limits<double>::infinity(),
                       double latency = 0.0);
  /// rows x cols grid, bidirectional neighbor links, XY (column-first)
  /// dimension-order routing.  PE id = row * cols + col.
  static Topology mesh(std::size_t rows, std::size_t cols,
                       double bandwidth = std::numeric_limits<double>::infinity(),
                       double latency = 0.0);

  TopologyKind kind() const { return kind_; }
  std::size_t peCount() const { return pes_; }
  /// Mesh shape; rows() == 0 for non-meshes.
  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  const std::vector<Link>& links() const { return links_; }
  const Link& link(std::uint32_t id) const { return links_[id]; }

  /// The precomputed link sequence from `src` to `dst` (empty when
  /// src == dst).  Both must be < peCount().
  const std::vector<std::uint32_t>& route(std::size_t src,
                                          std::size_t dst) const {
    return routes_[src * pes_ + dst];
  }

  /// Time one transfer of `tokens` tokens occupies `l`.
  static double serviceTime(const Link& l, std::int64_t tokens) {
    const double transmit =
        std::isinf(l.bandwidth) ? 0.0 : static_cast<double>(tokens) / l.bandwidth;
    return l.latency + transmit;
  }

  /// Total uncontended traversal delay of one transfer along the route
  /// (the static communication cost the list scheduler charges).
  double routeCost(std::size_t src, std::size_t dst,
                   std::int64_t tokens = 1) const;

  /// True when the fabric cannot shape timing at all: a crossbar whose
  /// links all have infinite bandwidth and zero latency (the legacy
  /// platform semantics).
  bool ideal() const;

 private:
  Topology() = default;
  /// Route table for point-to-point topologies: BFS shortest path over
  /// the link list, neighbors explored in ascending link-id order (so
  /// routes are deterministic and reproducible).
  void buildRoutesBfs();
  void buildRoutesXy();

  TopologyKind kind_ = TopologyKind::Crossbar;
  std::size_t pes_ = 0;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<Link> links_;
  // Flat [src * pes_ + dst] table of link-id sequences.
  std::vector<std::vector<std::uint32_t>> routes_;
};

}  // namespace tpdf::platform
