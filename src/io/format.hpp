// The .tpdf textual interchange format.
//
// A plain-text equivalent of SDF3's XML graph files, covering the full
// structural model (parameters, kernels, control actors, ports with
// cyclo-static symbolic rates and priorities, per-phase execution times,
// channels with initial tokens).  Example:
//
//   graph fig2 {
//     param p;
//
//     kernel A { out o rates [p]; }
//     kernel B {
//       in i rates [1];
//       out oC rates [1];
//       exec 1 2;
//     }
//     control C { in i rates [2]; ctl_out o rates [2]; }
//     kernel F {
//       in iD rates [0,2] priority 1;
//       ctl_in c rates [1,1];
//     }
//
//     channel e1 from A.o to B.i;
//     channel e2 from B.oC to C.i init 2;
//   }
//
// writeGraph() and readGraph() round-trip losslessly.
#pragma once

#include <iosfwd>
#include <string>

#include "graph/graph.hpp"
#include "support/json.hpp"

namespace tpdf::io {

/// Parses a .tpdf document.  Throws support::ParseError with line/column
/// on syntax errors and support::ModelError when the parsed graph fails
/// validation.
graph::Graph readGraph(const std::string& text);

/// Streaming parse: tokenizes incrementally from `in` through a bounded
/// buffer window (the whole document is never materialized), with the
/// same grammar and the same ParseError line/column positions as the
/// string overload.  `bufferBytes` sets the refill chunk size; the
/// default suits files, tests shrink it to stress window refills.
graph::Graph readGraph(std::istream& in, std::size_t bufferBytes = 65536);

/// Opens and streams `path` through readGraph(std::istream&).
graph::Graph readGraphFile(const std::string& path);

/// Renders `g` in the .tpdf format.
std::string writeGraph(const graph::Graph& g);
void writeGraphFile(const graph::Graph& g, const std::string& path);

/// Structural JSON rendering of `g`: parameters, actors with their ports
/// (rates as the same strings the .tpdf format uses), channels with
/// endpoints and initial tokens.  The machine-readable sibling of
/// writeGraph(), emitted by `tpdfc echo --json`.
void writeJson(support::json::Writer& w, const graph::Graph& g);
inline support::json::Value toJson(const graph::Graph& g) {
  support::json::Writer w(support::json::Layout::Compact);
  writeJson(w, g);
  return support::json::parse(w.finish());
}

}  // namespace tpdf::io
