// The TPDF model of computation (Definition 2 of the paper).
//
// A TpdfGraph is a dataflow Graph plus the TPDF-specific metadata:
// kernel roles (plain / Select-duplicate / Transaction), the mode table
// addressed by control tokens, and control-actor kinds (regular / clock).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/graph.hpp"

namespace tpdf::core {

/// The four kernel modes of Definition 2.
enum class Mode {
  /// Select exactly one data input (or output).
  SelectOne,
  /// Select a subset of the data inputs (outputs).
  SelectMany,
  /// Select the available data input with the highest port priority; used
  /// by Transaction for deadline-driven choice (Section II-B).
  HighestPriority,
  /// Wait until all data inputs are available (plain dataflow behaviour).
  WaitAll,
};

std::string toString(Mode m);

/// Distinguished data-distribution kernels of Section II-B.
enum class KernelRole {
  Plain,
  /// 1 input, n outputs; each token is copied to the currently enabled
  /// combination of outputs.
  SelectDuplicate,
  /// n inputs, 1 output; atomically selects a predefined number of tokens
  /// from one or several inputs (speculation, redundancy with vote,
  /// highest priority at a deadline, active-path selection).
  Transaction,
};

std::string toString(KernelRole r);

/// Control actors are regular (fire on their input tokens) or clocks
/// (watchdog timers emitting a control token on every timeout).
enum class ControlKind { Regular, Clock };

/// One entry of a kernel's mode table.  A control token carrying value i
/// makes the kernel fire in mode spec i.  Empty port lists mean "all
/// ports of that direction".
struct ModeSpec {
  std::string name;
  Mode mode = Mode::WaitAll;
  std::vector<graph::PortId> activeInputs;
  std::vector<graph::PortId> activeOutputs;
};

/// A TPDF graph: the structural Graph plus kernel/control metadata.
class TpdfGraph {
 public:
  explicit TpdfGraph(graph::Graph g);

  /// The structural graph, read-only: it is built before the TpdfGraph
  /// and sealed by the first analysis that freezes it.
  const graph::Graph& graph() const { return graph_; }
  const std::string& name() const { return graph_.name(); }

  // ---- Kernel metadata ----------------------------------------------

  void setRole(graph::ActorId kernel, KernelRole role);
  KernelRole role(graph::ActorId kernel) const;

  void setModes(graph::ActorId kernel, std::vector<ModeSpec> modes);
  /// The kernel's mode table; kernels without a control port have an
  /// implicit single WaitAll mode.
  const std::vector<ModeSpec>& modes(graph::ActorId kernel) const;

  /// The kernel's control input port, if it has one.
  std::optional<graph::PortId> controlPort(graph::ActorId kernel) const;

  // ---- Control-actor metadata -----------------------------------------

  /// Declares `ctl` to be a clock with the given timeout period
  /// (scheduler time units; e.g. the 500 ms deadline of Figure 6).
  void setClock(graph::ActorId ctl, double period);
  ControlKind controlKind(graph::ActorId ctl) const;
  std::optional<double> clockPeriod(graph::ActorId ctl) const;

  /// All control actors of the graph (the paper's set G).
  std::vector<graph::ActorId> controlActors() const;
  /// All kernels (the paper's set K).
  std::vector<graph::ActorId> kernels() const;

  /// TPDF-specific validation on top of Graph::validate(): mode tables
  /// reference ports of the right actor/direction, Select-duplicate has
  /// one data input, Transaction has one data output, clock periods are
  /// positive.
  void validate() const;

 private:
  graph::Graph graph_;
  std::unordered_map<graph::ActorId, KernelRole> roles_;
  std::unordered_map<graph::ActorId, std::vector<ModeSpec>> modes_;
  std::unordered_map<graph::ActorId, double> clockPeriods_;
  std::vector<ModeSpec> defaultModes_;
};

}  // namespace tpdf::core
