#include "core/context.hpp"

namespace tpdf::core {

AnalysisContext::AnalysisContext(const graph::Graph& g) : g_(&g) {
  g.freeze();
}

const csdf::RepetitionVector& AnalysisContext::repetition() const {
  if (!repetitionComputed_) {
    repetition_ = csdf::computeRepetitionVector(*g_);
    repetitionComputed_ = true;
  }
  return repetition_;
}

const graph::EvaluatedRates& AnalysisContext::rates(
    const symbolic::Environment& env) const {
  std::string key;
  for (const auto& [name, value] : env.bindings()) {
    key += name;
    key += '=';
    key += std::to_string(value);
    key += ';';
  }
  for (auto it = rateTables_.begin(); it != rateTables_.end(); ++it) {
    if (it->first == key) {
      rateTables_.splice(rateTables_.begin(), rateTables_, it);
      return it->second;
    }
  }
  // Build before evicting: a throwing evaluation leaves the memo as is.
  graph::EvaluatedRates table(*g_, env);
  if (rateTables_.size() == kRateTables) rateTables_.pop_back();
  return rateTables_.emplace_front(std::move(key), std::move(table)).second;
}

}  // namespace tpdf::core
