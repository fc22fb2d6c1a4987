#include "symbolic/expr.hpp"

#include <algorithm>
#include <limits>
#include <ostream>

#include "support/checked.hpp"
#include "support/error.hpp"

namespace tpdf::symbolic {

using support::Rational;

Expr::Expr(std::int64_t value) : Expr(Monomial(Rational(value))) {}

Expr::Expr(Rational value) : Expr(Monomial(value)) {}

Expr::Expr(Monomial m) {
  if (!m.isZero()) terms_.push_back(std::move(m));
}

void Expr::combineAdjacent() {
  std::size_t w = 0;
  for (std::size_t r = 0; r < terms_.size(); ++r) {
    Monomial& t = terms_[r];
    if (t.isZero()) continue;
    if (w > 0 && terms_[w - 1].samePowerProduct(t)) {
      terms_[w - 1].coeff_ += t.coeff_;
      if (terms_[w - 1].coeff_.isZero()) --w;
    } else {
      if (w != r) terms_[w] = std::move(t);
      ++w;
    }
  }
  terms_.resize(w);
}

void Expr::canonicalize() {
  std::sort(terms_.begin(), terms_.end(), Monomial::powerProductLess);
  combineAdjacent();
}

Expr& Expr::mergeAccumulate(const Expr& o, bool negate) {
  if (o.terms_.empty()) return *this;
  // Self-merge (e += e, e -= e) must not iterate o while growing terms_.
  if (this == &o) {
    if (negate) {
      terms_.clear();
    } else {
      for (Monomial& t : terms_) t.coeff_ += t.coeff_;
    }
    return *this;
  }
  const std::size_t mid = terms_.size();
  terms_.reserve(mid + o.terms_.size());
  for (const Monomial& t : o.terms_) {
    terms_.push_back(negate ? -t : t);
  }
  std::inplace_merge(terms_.begin(),
                     terms_.begin() + static_cast<std::ptrdiff_t>(mid),
                     terms_.end(), Monomial::powerProductLess);
  combineAdjacent();
  return *this;
}

Rational Expr::constant() const {
  if (terms_.empty()) return Rational(0);
  if (terms_.size() == 1 && terms_[0].isConstant()) {
    return terms_[0].coeff();
  }
  throw support::Error("expression '" + toString() + "' is not constant");
}

Monomial Expr::asMonomial() const {
  if (terms_.empty()) return Monomial();
  if (terms_.size() == 1) return terms_[0];
  throw support::Error("expression '" + toString() + "' is not a monomial");
}

Expr Expr::operator-() const {
  Expr out;
  out.terms_.reserve(terms_.size());
  for (const Monomial& t : terms_) out.terms_.push_back(-t);
  return out;
}

Expr Expr::operator+(const Expr& o) const {
  Expr out = *this;
  out.mergeAccumulate(o, false);
  return out;
}

Expr Expr::operator-(const Expr& o) const {
  Expr out = *this;
  out.mergeAccumulate(o, true);
  return out;
}

Expr Expr::operator*(const Expr& o) const {
  if (terms_.empty() || o.terms_.empty()) return Expr();

  // Scaling by a constant keeps both the power products and their order:
  // no merge needed at all.
  if (o.isConstant()) {
    Expr out = *this;
    for (Monomial& t : out.terms_) t.coeff_ *= o.terms_[0].coeff();
    return out;
  }
  if (isConstant()) return o * *this;

  Expr out;
  out.terms_.reserve(terms_.size() * o.terms_.size());
  for (const Monomial& a : terms_) {
    for (const Monomial& b : o.terms_) {
      out.terms_.push_back(a * b);
    }
  }
  // Cross products are not order-preserving in general (exponents can
  // cancel), so this is the one operation that still re-sorts.
  out.canonicalize();
  return out;
}

Expr& Expr::operator*=(const Expr& o) {
  if (terms_.empty()) return *this;
  if (o.terms_.empty()) {
    terms_.clear();
    return *this;
  }
  if (o.isConstant()) {
    const Rational c = o.terms_[0].coeff();
    for (Monomial& t : terms_) t.coeff_ *= c;
    return *this;
  }
  if (o.isMonomial() && this != &o) {
    // Termwise product by one monomial, re-canonicalized in place.
    const Monomial m = o.terms_[0];
    for (Monomial& t : terms_) t = t * m;
    canonicalize();
    return *this;
  }
  return *this = *this * o;
}

Expr Expr::dividedBy(const Monomial& m) const {
  Expr out;
  out.terms_.reserve(terms_.size());
  for (const Monomial& t : terms_) out.terms_.push_back(t / m);
  out.canonicalize();
  return out;
}

std::optional<Expr> Expr::divideExact(const Expr& o) const {
  if (o.isZero()) {
    throw support::DivisionByZeroError("division by the zero expression");
  }
  if (isZero()) return Expr();
  if (o.isMonomial()) return dividedBy(o.asMonomial());

  // Multivariate long division where the quotient may be a Laurent
  // polynomial.  Divide the leading term of the remainder by the leading
  // term of the divisor; succeed only on zero remainder.  The iteration
  // guard catches non-terminating Laurent cases.
  const Monomial lead = o.terms().back();
  Expr remainder = *this;
  Expr quotient;
  for (int guard = 0; guard < 256 && !remainder.isZero(); ++guard) {
    const Monomial t = remainder.terms().back() / lead;
    quotient += Expr(t);
    remainder -= Expr(t) * o;
  }
  if (!remainder.isZero()) return std::nullopt;
  return quotient;
}

Rational Expr::evaluate(const Environment& env) const {
  // One power memo for the whole sum: terms of the same expression reuse
  // each param^exp instead of recomputing it.
  PowerCache cache;
  Rational sum(0);
  for (const Monomial& t : terms_) sum += t.evaluate(env, cache);
  return sum;
}

namespace {

/// base^exp for exp > 0 by binary exponentiation, as Monomial's Rational
/// power memo computes it; false when a step overflows int64.
bool checkedPow(std::int64_t base, std::int32_t exp, std::int64_t& out) {
  out = 1;
  while (true) {
    if ((exp & 1) != 0 && __builtin_mul_overflow(out, base, &out)) return false;
    exp >>= 1;
    if (exp == 0) return true;
    if (__builtin_mul_overflow(base, base, &base)) return false;
  }
}

/// The sum of `terms` in checked int64: each term's coefficient times
/// its parameter powers, summed in term order, exactly the products and
/// partial sums the Rational path forms.  False on anything that path
/// handles differently: a fractional coefficient, a negative exponent,
/// an unbound parameter, an overflow, or INT64_MIN (which Rational
/// cannot normalize, so there it throws).
bool evaluateChecked(const Expr::TermVec& terms, const Environment& env,
                     std::int64_t& sum) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  sum = 0;
  for (const Monomial& t : terms) {
    if (!t.coeff().isInteger()) return false;
    std::int64_t value = t.coeff().num();
    if (value == kMin) return false;
    for (const ParamExp& pe : t.exponents()) {
      const std::int64_t* bound = env.find(pe.id);
      std::int64_t power = 0;
      if (bound == nullptr || pe.exp < 0 || !checkedPow(*bound, pe.exp, power) ||
          __builtin_mul_overflow(value, power, &value) || value == kMin) {
        return false;
      }
    }
    if (__builtin_add_overflow(sum, value, &sum) || sum == kMin) return false;
  }
  return true;
}

}  // namespace

std::int64_t Expr::evaluateInt(const Environment& env) const {
  // Rates are integer polynomials in practice: evaluate them in checked
  // int64 and fall back to the exact Rational path (gcd per operation)
  // only when that fails, so its value and its error texts stay the
  // contract.
  std::int64_t fast = 0;
  if (evaluateChecked(terms_, env, fast)) return fast;
  const Rational v = evaluate(env);
  if (!v.isInteger()) {
    throw support::Error("expression '" + toString() +
                         "' does not evaluate to an integer (" +
                         v.toString() + ")");
  }
  return v.toInteger();
}

Monomial Expr::content() const {
  Monomial g;
  for (const Monomial& t : terms_) g = monomialGcd(g, t);
  return g;
}

void Expr::collectParams(std::set<std::string>& out) const {
  const ParamTable& table = ParamTable::instance();
  for (const Monomial& t : terms_) {
    for (const ParamExp& pe : t.exponents()) {
      out.insert(table.name(pe.id));
    }
  }
}

std::string Expr::toString() const {
  if (terms_.empty()) return "0";
  std::string out;
  for (std::size_t i = 0; i < terms_.size(); ++i) {
    const std::string s = terms_[i].toString();
    if (i == 0) {
      out += s;
    } else if (!s.empty() && s[0] == '-') {
      out += s;
    } else {
      out += "+" + s;
    }
  }
  return out;
}

Monomial exprGcd(const Expr& a, const Expr& b) {
  return monomialGcd(a.content(), b.content());
}

std::vector<Expr> normalizeSolutionVector(const std::vector<Expr>& v) {
  std::int64_t denLcm = 1;
  std::int64_t numGcd = 0;
  for (const Expr& e : v) {
    for (const Monomial& t : e.terms()) {
      denLcm = support::lcm64(denLcm, t.coeff().den());
      numGcd = support::gcd64(numGcd, t.coeff().num());
    }
  }
  if (numGcd == 0) numGcd = 1;  // all-zero vector

  const Rational scale(denLcm, numGcd);
  std::vector<Expr> out;
  out.reserve(v.size());
  for (const Expr& e : v) {
    Expr scaled = e;
    scaled *= Expr(scale);
    out.push_back(std::move(scaled));
  }
  return out;
}

std::ostream& operator<<(std::ostream& os, const Expr& e) {
  return os << e.toString();
}

}  // namespace tpdf::symbolic
