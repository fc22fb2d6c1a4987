#include "graph/rates.hpp"

#include <cctype>
#include <string_view>
#include <utility>

#include "graph/graph.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace tpdf::graph {

using symbolic::Expr;

RateSeq::RateSeq(std::vector<Expr> entries) {
  if (entries.empty()) {
    throw support::ModelError("rate sequence must be non-empty");
  }
  entries_.reserve(entries.size());
  for (Expr& e : entries) entries_.push_back(std::move(e));
}

Expr RateSeq::periodSum() const {
  Expr sum;
  for (const Expr& e : entries_) sum += e;
  return sum;
}

Expr RateSeq::cumulative(std::int64_t n) const {
  if (n < 0) {
    throw support::Error("cumulative rate of negative firing count");
  }
  const std::int64_t len = static_cast<std::int64_t>(length());
  const std::int64_t full = n / len;
  Expr sum = periodSum() * Expr(full);
  for (std::int64_t i = 0; i < n % len; ++i) sum += entries_[i];
  return sum;
}

Expr RateSeq::cumulative(const Expr& n) const {
  if (n.isConstant()) {
    return cumulative(n.constant().toInteger());
  }
  if (isUniform()) {
    return n * entries_[0];
  }
  const auto periods = n.divideExact(Expr(static_cast<std::int64_t>(length())));
  if (periods) {
    // Accept only genuine divisibility: every coefficient of the quotient
    // must be an integer (n = tau * m), not a Laurent artefact like p/2.
    bool integral = true;
    for (const symbolic::Monomial& t : periods->terms()) {
      if (!t.coeff().isInteger()) {
        integral = false;
        break;
      }
    }
    if (integral) return *periods * periodSum();
  }
  throw support::Error("cannot evaluate cumulative rate of " + toString() +
                       " for symbolic firing count " + n.toString());
}

bool RateSeq::isConstant() const {
  for (const Expr& e : entries_) {
    if (!e.isConstant()) return false;
    if (e.constant().isNegative()) return false;
  }
  return true;
}

bool RateSeq::isUniform() const {
  for (const Expr& e : entries_) {
    if (e != entries_[0]) return false;
  }
  return true;
}

std::string RateSeq::toString() const {
  std::vector<std::string> parts;
  parts.reserve(entries_.size());
  for (const Expr& e : entries_) parts.push_back(e.toString());
  return "[" + support::join(parts, ",") + "]";
}

namespace {

/// Line/column of 1-based `offset` within `text` (both 1-based), so a
/// parse failure inside a multi-line bracketed list still points at the
/// right spot of the specification.
std::pair<int, int> positionAt(std::string_view text, std::size_t offset) {
  int line = 1;
  int column = 1;
  for (std::size_t i = 0; i + 1 < offset && i < text.size(); ++i) {
    if (text[i] == '\n') {
      ++line;
      column = 1;
    } else {
      ++column;
    }
  }
  return {line, column};
}

bool isSpace(char c) { return std::isspace(static_cast<unsigned char>(c)); }

/// The value of an entry that is one plain decimal literal (surrounding
/// space allowed), or -1 for anything else, which the expression parser
/// then reads.  Literals of more than 18 digits also go there, so its
/// overflow diagnostic stays the only one.
std::int64_t plainInteger(std::string_view field) {
  while (!field.empty() && isSpace(field.front())) field.remove_prefix(1);
  while (!field.empty() && isSpace(field.back())) field.remove_suffix(1);
  if (field.empty() || field.size() > 18) return -1;
  std::int64_t value = 0;
  for (const char c : field) {
    if (c < '0' || c > '9') return -1;
    value = value * 10 + (c - '0');
  }
  return value;
}

}  // namespace

RateSeq RateSeq::parse(std::string_view text) {
  // Track offsets into `text` so every ParseError carries a position
  // relative to the whole specification, not to one entry's substring —
  // callers (the .tpdf reader) then remap it to a file position.
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && isSpace(text[begin])) ++begin;
  while (end > begin && isSpace(text[end - 1])) --end;
  if (begin < end && text[begin] == '[') {
    if (text[end - 1] != ']') {
      const auto [line, column] = positionAt(text, begin + 1);
      throw support::ParseError(
          "unterminated rate sequence '" + std::string(text) + "'", line,
          column);
    }
    ++begin;
    --end;
  }
  EntryVec entries;
  std::size_t fieldStart = begin;
  for (std::size_t i = begin; i <= end; ++i) {
    if (i != end && text[i] != ',') continue;
    const std::string_view field = text.substr(fieldStart, i - fieldStart);
    // A constant entry ("[2]", "[1,0,1]") is built directly.
    if (const std::int64_t v = plainInteger(field); v >= 0) {
      entries.emplace_back(v);
      fieldStart = i + 1;
      continue;
    }
    try {
      entries.push_back(symbolic::parseExpr(field));
    } catch (const support::ParseError& e) {
      // The expression parser reports (1, offset-in-entry); shift to the
      // entry's place in the specification.
      const std::size_t offset =
          fieldStart + static_cast<std::size_t>(e.column());
      const auto [line, column] = positionAt(text, offset);
      throw support::ParseError(e.message(), line, column);
    }
    fieldStart = i + 1;
  }
  return RateSeq(std::move(entries));
}

EvaluatedRates::EvaluatedRates(const Graph& g,
                               const symbolic::Environment& env) {
  offset_.resize(g.portCount() + 1);
  table_.resize(g.rateTableSize());
  offset_[g.portCount()] = static_cast<std::uint32_t>(table_.size());
  // Actor-then-port order matches the pre-table scheduler's evaluation
  // order, so the first negative rate reported is the same one.
  for (const Actor& a : g.actors()) {
    const std::int64_t tau = g.phases(a.id);
    for (PortId pid : a.ports) {
      const Port& p = g.port(pid);
      const RateSeq& rates = g.effectiveRates(pid);
      offset_[pid.index()] = g.rateOffset(pid);
      std::int64_t* slot = table_.data() + offset_[pid.index()];
      for (std::int64_t i = 0; i < tau; ++i) {
        const std::int64_t v = rates.at(i).evaluateInt(env);
        if (v < 0) {
          throw support::Error("port '" + a.name + "." + p.name +
                               "' has negative rate " + std::to_string(v) +
                               " under the given environment");
        }
        slot[i] = v;
      }
    }
  }
}

}  // namespace tpdf::graph
