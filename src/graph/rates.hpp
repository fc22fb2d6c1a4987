// Cyclo-static rate sequences with symbolic entries.
//
// A port's rate sequence [x(0), ..., x(tau-1)] gives the number of tokens
// produced/consumed by each firing phase (CSDF semantics, Section II-A);
// entries are symbolic expressions so the same type serves SDF (length 1,
// constant), CSDF (length tau, constant) and TPDF (parametric).
//
// EvaluatedRates complements the symbolic sequences with per-environment
// integer rates (one flat table laid out like Graph::rateOffset), which
// is what the schedulers and the simulator consume in their hot loops.
// core::AnalysisContext (core/context.hpp) memoizes one per valuation.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "graph/ids.hpp"
#include "support/error.hpp"
#include "support/inlinevec.hpp"
#include "symbolic/env.hpp"
#include "symbolic/expr.hpp"

namespace tpdf::graph {

/// A non-empty cyclic sequence of token rates.
class RateSeq {
 public:
  /// Inline entry storage: SDF ports (length 1, the overwhelmingly
  /// common case) carry their single entry in place, so a Port costs no
  /// rate-sequence heap allocation.
  using EntryVec = support::InlineVec<symbolic::Expr, 1>;

  RateSeq() : entries_{symbolic::Expr(1)} {}
  explicit RateSeq(std::vector<symbolic::Expr> entries);

  /// Convenience: a length-1 sequence.
  static RateSeq constant(std::int64_t v) {
    return RateSeq(EntryVec{symbolic::Expr(v)});
  }
  static RateSeq of(const symbolic::Expr& e) { return RateSeq(EntryVec{e}); }

  const EntryVec& entries() const { return entries_; }
  std::size_t length() const { return entries_.size(); }

  /// Rate of the n-th firing (0-based), i.e. entries[n mod length].
  const symbolic::Expr& at(std::int64_t n) const {
    return entries_[static_cast<std::size_t>(n % length())];
  }

  /// Sum over one full period.
  symbolic::Expr periodSum() const;

  /// Cumulative rate X(n): tokens transferred by the first n firings
  /// (Section II-A).  X(0) == 0.
  symbolic::Expr cumulative(std::int64_t n) const;

  /// Symbolic cumulative rate X(n) for a symbolic firing count.  Exact
  /// when n is a concrete integer, when the sequence is uniform (all
  /// entries equal), or when n is an exact multiple of the period.
  /// Throws support::Error otherwise.
  symbolic::Expr cumulative(const symbolic::Expr& n) const;

  /// True when every entry is a non-negative constant.
  bool isConstant() const;

  /// True when all entries are equal.
  bool isUniform() const;

  bool operator==(const RateSeq& o) const { return entries_ == o.entries_; }
  bool operator!=(const RateSeq& o) const { return !(*this == o); }

  /// "[1,0,1]", "[p]", "[2p,0]".
  std::string toString() const;

  /// Parses "[1,0,1]", "p", "[2p, 0]" (brackets optional for length 1).
  static RateSeq parse(std::string_view text);

 private:
  explicit RateSeq(EntryVec entries) : entries_(std::move(entries)) {}

  EntryVec entries_;
};

class Graph;

/// All port rates of one graph evaluated to integers under one
/// environment, in the flat layout of Graph::rateOffset.  The table keeps
/// its own copy of that layout, so a lookup needs no graph.  Negative
/// evaluated rates are rejected at construction (they would corrupt
/// every occupancy computation downstream).
class EvaluatedRates {
 public:
  EvaluatedRates(const Graph& g, const symbolic::Environment& env);

  /// The port's integer rates, one entry per phase.
  std::span<const std::int64_t> of(PortId p) const {
    const std::uint32_t begin = offset_[p.index()];
    return {table_.data() + begin, offset_[p.index() + 1] - begin};
  }

  /// Rate of the port's n-th firing (n mod tau).  A negative index
  /// would wrap through the size_t cast into a huge modulus and pick an
  /// arbitrary phase, so it is rejected.
  std::int64_t at(PortId p, std::int64_t firing) const {
    if (firing < 0) {
      throw support::Error("negative firing index " +
                           std::to_string(firing) + " in rate lookup");
    }
    const auto rates = of(p);
    return rates[static_cast<std::size_t>(firing) % rates.size()];
  }

 private:
  std::vector<std::uint32_t> offset_;  // per port, plus the table size
  std::vector<std::int64_t> table_;
};

}  // namespace tpdf::graph
