// Parameter environments: bindings of integer parameters to values.
//
// TPDF parameters (Definition 2's set P) are symbolic integers assumed
// strictly positive, exactly like SPDF/BPDF.  An Environment instantiates
// them, e.g. {p = 4} or {beta = 10, N = 512, L = 1}, which is what the
// scheduler and the simulator need to run a concrete iteration.
// Expr::evaluate()/evaluateInt() (expr.hpp) take one; `tpdfc` builds one
// from its name=value command-line pairs.
//
// The bindings are a flat list sorted by name (the order renderings and
// binding keys use), with the interned ParamId of each entry alongside,
// so the evaluation hot path (Monomial::evaluate) resolves parameters
// without touching strings.  With the handful of parameters a real graph
// has, a linear scan beats any map, and a copy is two allocations.
#pragma once

#include <algorithm>
#include <cstdint>
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
  using Bindings = std::vector<std::pair<std::string, std::int64_t>>;

  Environment() = default;
  /// The first binding of a name repeated in the list wins.
  Environment(std::initializer_list<std::pair<const std::string, std::int64_t>>
                  bindings) {
    for (const auto& [name, value] : bindings) {
      checkPositive(name, value);
      if (find(name) == nullptr) insert(position(name), name, value);
    }
  }

  void bind(const std::string& name, std::int64_t value) {
    checkPositive(name, value);
    const auto at = position(name);
    if (at != values_.end() && at->first == name) {
      values_[static_cast<std::size_t>(at - values_.cbegin())].second = value;
    } else {
      insert(at, name, value);
    }
  }

  bool has(const std::string& name) const { return find(name) != nullptr; }

  std::int64_t lookup(const std::string& name) const {
    if (const std::int64_t* value = find(name)) return *value;
    throw support::Error("unbound parameter '" + name + "'");
  }

  /// The value bound to `name`, or nullptr when it is unbound.
  const std::int64_t* find(const std::string& name) const {
    const auto it = position(name);
    return it != values_.end() && it->first == name ? &it->second : nullptr;
  }

  /// Interned fast path used by Monomial::evaluate.
  std::int64_t lookup(ParamId id) const {
    if (const std::int64_t* value = find(id)) return *value;
    throw support::Error("unbound parameter '" +
                         ParamTable::instance().name(id) + "'");
  }

  /// The value bound to `id`, or nullptr when it is unbound.
  const std::int64_t* find(ParamId id) const {
    for (std::size_t i = 0; i < ids_.size(); ++i) {
      if (ids_[i] == id) return &values_[i].second;
    }
    return nullptr;
  }

  /// (name, value) pairs in name order.
  const Bindings& bindings() const { return values_; }

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

  /// The first binding whose name is not less than `name`.
  Bindings::const_iterator position(const std::string& name) const {
    return std::lower_bound(values_.begin(), values_.end(), name,
                            [](const auto& binding, const std::string& n) {
                              return binding.first < n;
                            });
  }

  void insert(Bindings::const_iterator at, const std::string& name,
              std::int64_t value) {
    const ParamId id = ParamTable::instance().intern(name);
    const auto index = at - values_.cbegin();
    if (values_.empty()) {
      // Real graphs have a handful of parameters: room for them at once.
      values_.reserve(kInitialCapacity);
      ids_.reserve(kInitialCapacity);
    }
    values_.emplace(values_.cbegin() + index, name, value);
    ids_.insert(ids_.cbegin() + index, id);
  }

  static constexpr std::size_t kInitialCapacity = 4;

  Bindings values_;            // sorted by name
  std::vector<ParamId> ids_;  // ids_[i] is the interned values_[i].first
};

}  // namespace tpdf::symbolic
