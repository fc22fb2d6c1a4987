// The dataflow graph representation shared by the CSDF engine and the
// TPDF core (Definition 2 of the paper).
//
// A Graph holds kernels and control actors, their data/control ports with
// cyclo-static symbolic rate sequences and priorities, channels with
// initial tokens, and the set of integer parameters.
//
// A Graph is built, then sealed: its first freeze() (which any derived
// accessor runs) seals it, and every mutator called after that throws
// support::Error and leaves the graph unchanged.  TPDF fixes a graph's
// topology; only parameter values and modes change at run time, and
// those live outside the Graph.  A copy of a sealed graph starts
// unsealed, so a derived graph is built by copying and extending.
//
// Storage is built for million-actor graphs: entity names live in one
// arena-backed pool (a Name is a 16-byte view, not a std::string) and
// are looked up through flat (hash, id) indices, rate sequences live out
// of line and an actor's first two port ids inline (so the element
// vectors hold small records and an actor needs no heap block of its
// own), and per-actor adjacency is a CSR block built once at sealing
// and served as spans.  See docs/analysis-pipeline.md ("Memory layout").
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "graph/ids.hpp"
#include "graph/name.hpp"
#include "graph/rates.hpp"
#include "support/arena.hpp"
#include "support/error.hpp"
#include "support/inlinevec.hpp"

namespace tpdf::graph {

/// Kernels compute on data; control actors emit control tokens that select
/// kernel modes (Definition 2: K and G with K disjoint from G).
enum class ActorKind { Kernel, Control };

enum class PortKind { DataIn, DataOut, ControlIn, ControlOut };

inline bool isInput(PortKind k) {
  return k == PortKind::DataIn || k == PortKind::ControlIn;
}
inline bool isControl(PortKind k) {
  return k == PortKind::ControlIn || k == PortKind::ControlOut;
}

std::string toString(PortKind k);
std::string toString(ActorKind k);

struct Port {
  PortId id;
  ActorId actor;
  Name name;
  PortKind kind = PortKind::DataIn;
  /// Port priority (the paper's alpha function); larger value wins.  Used
  /// by the HighestPriority mode of Transaction kernels.
  int priority = 0;
  /// The channel attached to this port, if any.
  ChannelId channel;

  /// The port's rate sequence, held by the owning Graph (ports with the
  /// same small constant rate share one) and valid as long as it is.
  const RateSeq& rates() const { return *rates_; }

 private:
  friend class Graph;
  const RateSeq* rates_ = nullptr;
};

struct Actor {
  ActorId id;
  Name name;
  ActorKind kind = ActorKind::Kernel;
  /// Ports in declaration order; two inline slots cover a chain stage.
  support::InlineVec<PortId, 2> ports;
  /// Worst-case execution time per phase (defaults to a single 1.0);
  /// consumed by the scheduler and the simulator.  Two inline slots cover
  /// the default and every committed example without a heap allocation.
  support::InlineVec<double, 2> execTime{1.0};

  double execTimeOfPhase(std::int64_t n) const {
    // A negative index would wrap through the size_t cast into a huge
    // modulus and read a phase that was never meant.
    if (n < 0) {
      throw support::Error("negative firing index " + std::to_string(n) +
                           " for actor '" + name + "'");
    }
    return execTime[static_cast<std::size_t>(n) % execTime.size()];
  }
};

struct Channel {
  ChannelId id;
  Name name;
  PortId src;
  PortId dst;
  std::int64_t initialTokens = 0;
};

/// A TPDF graph (also used for plain SDF/CSDF graphs, which simply have
/// no control actors and constant rates).
class Graph {
 public:
  explicit Graph(std::string name = "graph") : name_(std::move(name)) {}

  // Deep copy: names are copied into the copy's own pool so the copy is
  // self-contained (the source may die first).
  Graph(const Graph& o);
  Graph& operator=(const Graph& o);
  // Interner chunks are pointer-stable, so a move keeps every Name valid.
  Graph(Graph&&) noexcept = default;
  Graph& operator=(Graph&&) noexcept = default;

  const std::string& name() const { return name_; }

  // ---- Construction ------------------------------------------------
  //
  // Every mutator throws support::Error once the graph is sealed.

  /// Declares an integer parameter (element of the paper's set P).
  /// Throws support::ModelError on an empty name or one colliding with
  /// an existing parameter or actor.
  void addParam(const std::string& name);

  ActorId addActor(const std::string& name,
                   ActorKind kind = ActorKind::Kernel);

  PortId addPort(ActorId actor, const std::string& name, PortKind kind,
                 RateSeq rates, int priority = 0);

  ChannelId addChannel(const std::string& name, PortId src, PortId dst,
                       std::int64_t initialTokens = 0);

  void setExecTime(ActorId actor, std::span<const double> perPhase);

  // ---- Access ------------------------------------------------------

  std::size_t actorCount() const { return actors_.size(); }
  std::size_t channelCount() const { return channels_.size(); }
  std::size_t portCount() const { return ports_.size(); }

  const Actor& actor(ActorId id) const { return actors_.at(id.index()); }
  const Port& port(PortId id) const { return ports_.at(id.index()); }
  const Channel& channel(ChannelId id) const {
    return channels_.at(id.index());
  }

  const std::vector<Actor>& actors() const { return actors_; }
  const std::vector<Port>& ports() const { return ports_; }
  const std::vector<Channel>& channels() const { return channels_; }
  /// Parameter names, sorted (the paper's set P).
  const std::vector<std::string>& params() const { return params_; }
  bool hasParam(std::string_view name) const;

  std::optional<ActorId> findActor(std::string_view name) const;
  std::optional<ChannelId> findChannel(std::string_view name) const;

  /// Resolves "actor.port".
  std::optional<PortId> findPort(std::string_view qualifiedName) const;
  /// Resolves port `port` of actor `actor`.
  std::optional<PortId> findPort(std::string_view actor,
                                 std::string_view port) const;

  /// Channels whose source port belongs to `a`, in port order.  Served
  /// from the frozen CSR block: no per-call allocation; the span lives
  /// as long as the graph.
  std::span<const ChannelId> outChannels(ActorId a) const {
    const Frozen& f = freeze();
    return f.outAdj.subspan(f.outOffset[a.index()],
                            f.outOffset[a.index() + 1] -
                                f.outOffset[a.index()]);
  }
  /// Channels whose destination port belongs to `a`, in port order.
  std::span<const ChannelId> inChannels(ActorId a) const {
    const Frozen& f = freeze();
    return f.inAdj.subspan(f.inOffset[a.index()],
                           f.inOffset[a.index() + 1] - f.inOffset[a.index()]);
  }

  /// Channel endpoint actors, read from the frozen per-channel arrays.
  ActorId sourceActor(ChannelId c) const {
    return freeze().srcActor[c.index()];
  }
  ActorId destActor(ChannelId c) const {
    return freeze().dstActor[c.index()];
  }

  bool isControlChannel(ChannelId c) const {
    return isControl(port(channel(c).src).kind) ||
           isControl(port(channel(c).dst).kind);
  }

  /// Number of phases tau of the actor: the least common multiple of its
  /// port sequence lengths (equals the common length for classic CSDF),
  /// read from the frozen per-actor table.
  std::int64_t phases(ActorId a) const { return freeze().tau[a.index()]; }

  /// The rate sequence of `p`, cyclically extended to the actor's phase
  /// count.  When the port's own sequence already has tau entries (the
  /// common case) this is the port's sequence itself; shorter ones are
  /// materialized at freeze time.
  const RateSeq& effectiveRates(PortId p) const {
    return *freeze().effective[p.index()];
  }

  /// Offset of port `p` in an EvaluatedRates table (graph/rates.hpp);
  /// the port's slice has length phases(port's actor).  Ports are laid
  /// out in id order.
  std::uint32_t rateOffset(PortId p) const {
    return freeze().rateOffset[p.index()];
  }
  /// Total length of an EvaluatedRates table.
  std::size_t rateTableSize() const { return freeze().rateTableSize; }

  // ---- Frozen storage ----------------------------------------------

  /// Flat derived storage of the sealed graph: CSR channel adjacency,
  /// phase counts, channel endpoints, extended rate tables and the
  /// rate-table layout.  All trivially-copyable blocks live in one
  /// arena; `effective` pointers alias either a Port's own RateSeq or
  /// `extendedStore`.
  struct Frozen {
    std::span<const std::uint32_t> outOffset;  // actorCount + 1
    std::span<const std::uint32_t> inOffset;   // actorCount + 1
    std::span<const ChannelId> outAdj;
    std::span<const ChannelId> inAdj;
    std::span<const std::int64_t> tau;          // per actor
    std::span<const ActorId> srcActor;          // per channel
    std::span<const ActorId> dstActor;          // per channel
    std::span<const RateSeq* const> effective;  // per port
    std::span<const std::uint32_t> rateOffset;  // per port
    std::size_t rateTableSize = 0;
  };

  /// Seals the graph and returns its derived storage, built on the
  /// first call and O(1) after.  Not synchronized: freeze once (any
  /// derived accessor does) before sharing the graph across threads.
  const Frozen& freeze() const {
    if (!sealed_) [[unlikely]] build();
    return frozen_;
  }

  /// Bytes held by the name pool (diagnostics/bench): every actor and
  /// channel name plus each distinct port name once.
  std::size_t namePoolBytes() const { return interner_.bytesUsed(); }

  /// Bytes held by the frozen CSR arena (0 until freeze() first runs).
  /// Together with namePoolBytes() this approximates the entry's
  /// resident size for cache accounting (tpdfd's byte-bounded LRU).
  std::size_t frozenBytes() const { return frozenArena_.bytesUsed(); }

  /// Structural validation (Definition 2's well-formedness): throws
  /// support::ModelError describing the first violation found.
  void validate() const;

  /// Graphviz dot rendering of the topology (control channels dashed).
  std::string toDot() const;

 private:
  /// Name -> index map over names the element vectors hold themselves.
  /// Open addressing with linear probing; a slot packs (32-bit hash,
  /// index + 1), 0 marks it empty, and growth re-places slots by their
  /// stored hash.  It holds no pointers, so copies and moves keep it.
  class NameIndex {
   public:
    static std::uint32_t hash(std::string_view s) {
      return static_cast<std::uint32_t>(std::hash<std::string_view>{}(s));
    }

    /// Id of the element of `elems` named `key` (hash `h`), if any.
    template <typename Elem>
    auto find(std::string_view key, std::uint32_t h,
              const std::vector<Elem>& elems) const
        -> std::optional<decltype(Elem::id)> {
      if (slots_.empty()) return std::nullopt;
      const std::size_t mask = slots_.size() - 1;
      for (std::size_t i = h & mask;; i = (i + 1) & mask) {
        const std::uint64_t slot = slots_[i];
        if (slot == 0) return std::nullopt;
        const Elem& e = elems[static_cast<std::uint32_t>(slot) - 1];
        if ((slot >> 32) == h && e.name == key) return e.id;
      }
    }

    /// Records `index` under hash `h`; its name must not be present.
    void insert(std::uint32_t h, std::uint32_t index);

   private:
    std::vector<std::uint64_t> slots_;  // power-of-two size, <= half full
    std::size_t size_ = 0;
  };

  Name intern(std::string_view s) { return Name(interner_.intern(s)); }
  Name copyName(std::string_view s) { return Name(interner_.copy(s)); }
  /// Stores `rates` for a port; the constant sequences [0] to
  /// [kSharedRates - 1] are stored once and shared.
  const RateSeq* storeRates(RateSeq rates);
  /// Throws support::Error naming `op` when the graph is sealed.
  void requireUnsealed(const char* op) const;
  /// Points every Name and rate sequence of elements copied from another
  /// graph into this graph's own pool and store.
  void rehome();
  void build() const;

  std::string name_;
  support::StringInterner interner_;
  std::vector<Actor> actors_;
  std::vector<Port> ports_;
  std::vector<Channel> channels_;
  std::vector<std::string> params_;  // sorted
  // Rate sequences the ports point into; a deque never moves an element
  // (not on growth, not when the Graph is moved).
  std::deque<RateSeq> rateStore_;
  static constexpr std::size_t kSharedRates = 16;
  std::array<const RateSeq*, kSharedRates> sharedRates_{};
  NameIndex actorIndex_;
  NameIndex channelIndex_;

  // Derived storage, built lazily by the first freeze(), which seals.
  mutable Frozen frozen_;
  mutable support::Arena frozenArena_;
  mutable std::deque<RateSeq> extendedStore_;
  mutable bool sealed_ = false;
};

}  // namespace tpdf::graph
