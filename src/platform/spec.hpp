// The user-facing platform description: the `--platform` grammar of
// tpdfc / tpdfd and the `"platform"` field of Map/Simulate/Sweep
// requests.
//
// Grammar (documented in docs/platform.md):
//
//   spec     := kind [":" size] option*
//   kind     := "crossbar" | "bus" | "ring" | "mesh"
//   size     := INT                 (crossbar / bus / ring PE count)
//             | INT "x" INT         (mesh rows x cols; mandatory for mesh)
//   option   := ",bw=" NUMBER      (link bandwidth, tokens/time; "inf" ok)
//             | ",lat=" NUMBER     (link latency, time units)
//
// Examples: "mesh:4x4,bw=8,lat=2", "bus:4,bw=1", "crossbar" (size
// inherited from the request's PE count).  Parse failures carry a
// 1-based column into the spec text so the API can surface a
// positioned invalid-request diagnostic; negative (or zero) bandwidths
// and negative latencies are rejected the same way.
#pragma once

#include <cstddef>
#include <limits>
#include <string>

#include "platform/topology.hpp"
#include "support/json.hpp"

namespace tpdf::platform {

struct PlatformSpec {
  TopologyKind kind = TopologyKind::Crossbar;
  /// PE count; 0 = inherit the request's `pes`.  For meshes rows/cols
  /// are authoritative and pes == rows * cols.
  std::size_t pes = 0;
  std::size_t rows = 0;
  std::size_t cols = 0;
  double bandwidth = std::numeric_limits<double>::infinity();
  double latency = 0.0;

  /// Instantiates the topology; `defaultPes` fills in an omitted size.
  Topology build(std::size_t defaultPes) const;

  /// True when the spec describes the legacy ideal fabric (crossbar,
  /// infinite bandwidth, zero latency).
  bool ideal() const {
    return kind == TopologyKind::Crossbar &&
           std::isinf(bandwidth) && latency == 0.0;
  }

  /// Normalized spec string, e.g. "mesh:4x4,bw=8,lat=2".
  std::string canonical(std::size_t defaultPes) const;

  /// {"kind", "pes", "bandwidth" (omitted when infinite), "latency"}
  /// plus {"rows", "cols"} for meshes.
  void write(support::json::Writer& w, std::size_t defaultPes) const;
};

/// Outcome of parsePlatformSpec: either `spec` (ok) or a positioned
/// error (`column` is 1-based into the spec text).
struct SpecParse {
  bool ok = false;
  PlatformSpec spec;
  std::string error;
  std::size_t column = 1;
};

SpecParse parsePlatformSpec(const std::string& text);

}  // namespace tpdf::platform
