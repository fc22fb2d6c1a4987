// Parameter environments: bindings of integer parameters to values.
//
// TPDF parameters (Definition 2's set P) are symbolic integers assumed
// strictly positive, exactly like SPDF/BPDF.  An Environment instantiates
// them, e.g. {p = 4} or {beta = 10, N = 512, L = 1}, which is what the
// scheduler and the simulator need to run a concrete iteration.
// Expr::evaluate()/evaluateInt() (expr.hpp) take one; `tpdfc` builds one
// from its name=value command-line pairs.
//
// Alongside the name-keyed map the environment keeps an interned
// (ParamId, value) list so the evaluation hot path (Monomial::evaluate)
// resolves parameters without touching strings; with the handful of
// parameters a real graph has, the linear scan beats any map.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "support/error.hpp"
#include "support/json.hpp"
#include "symbolic/param.hpp"

namespace tpdf::symbolic {

/// Maps parameter names to concrete positive integer values.
class Environment {
 public:
  Environment() = default;
  Environment(std::initializer_list<std::pair<const std::string, std::int64_t>>
                  bindings)
      : values_(bindings) {
    for (const auto& [name, value] : values_) {
      checkPositive(name, value);
      byId_.emplace_back(ParamTable::instance().intern(name), value);
    }
  }

  void bind(const std::string& name, std::int64_t value) {
    checkPositive(name, value);
    values_[name] = value;
    const ParamId id = ParamTable::instance().intern(name);
    for (auto& [boundId, boundValue] : byId_) {
      if (boundId == id) {
        boundValue = value;
        return;
      }
    }
    byId_.emplace_back(id, value);
  }

  bool has(const std::string& name) const { return values_.count(name) != 0; }

  std::int64_t lookup(const std::string& name) const {
    const auto it = values_.find(name);
    if (it == values_.end()) {
      throw support::Error("unbound parameter '" + name + "'");
    }
    return it->second;
  }

  /// Interned fast path used by Monomial::evaluate.
  std::int64_t lookup(ParamId id) const {
    for (const auto& [boundId, value] : byId_) {
      if (boundId == id) return value;
    }
    throw support::Error("unbound parameter '" +
                         ParamTable::instance().name(id) + "'");
  }

  const std::map<std::string, std::int64_t>& bindings() const {
    return values_;
  }

  /// {"p": 4, ...} in name order.
  void write(support::json::Writer& w) const {
    w.beginObject();
    for (const auto& [name, value] : values_) w.member(name, value);
    w.endObject();
  }

 private:
  static void checkPositive(const std::string& name, std::int64_t value) {
    if (value <= 0) {
      throw support::Error("parameter '" + name +
                           "' must be a positive integer, got " +
                           std::to_string(value));
    }
  }

  std::map<std::string, std::int64_t> values_;
  std::vector<std::pair<ParamId, std::int64_t>> byId_;
};

}  // namespace tpdf::symbolic
