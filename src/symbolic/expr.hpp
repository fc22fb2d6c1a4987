// Symbolic rate expressions: canonical sums of monomials.
//
// This is the value type used everywhere a production/consumption rate or
// a repetition count appears.  It covers every expression in the paper:
// constants, p, 2p, beta*N, beta*(N+L), and the rational intermediates
// produced while solving balance equations (p/2, ...).
//
// The term list is kept sorted by power product at all times, so the
// arithmetic operators are linear merges of already-sorted lists (no
// re-sorting canonicalization pass); += / -= merge in place, and
// evaluation shares one parameter-power memo across all terms.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "support/inlinevec.hpp"
#include "support/rational.hpp"
#include "symbolic/monomial.hpp"

namespace tpdf::symbolic {

/// A multivariate "Laurent polynomial" over the parameters with rational
/// coefficients, kept in canonical form: terms sorted by power product,
/// no duplicate power products, no zero terms.
class Expr {
 public:
  /// Inline term storage: almost every rate expression in a real graph
  /// is one constant or one monomial, so the single inline slot makes
  /// Expr construction/copy allocation-free in the common case.
  using TermVec = support::InlineVec<Monomial, 1>;

  /// Zero.
  Expr() = default;
  Expr(std::int64_t value);  // NOLINT(google-explicit-constructor)
  Expr(support::Rational value);  // NOLINT(google-explicit-constructor)
  Expr(Monomial m);  // NOLINT(google-explicit-constructor)

  static Expr param(const std::string& name) {
    return Expr(Monomial::param(name));
  }

  const TermVec& terms() const { return terms_; }

  bool isZero() const { return terms_.empty(); }
  bool isConstant() const {
    return terms_.empty() || (terms_.size() == 1 && terms_[0].isConstant());
  }
  bool isOne() const { return terms_.size() == 1 && terms_[0].isOne(); }
  bool isMonomial() const { return terms_.size() <= 1; }

  /// The value of a constant expression; throws otherwise.
  support::Rational constant() const;

  /// The single monomial of a monomial expression; throws otherwise.
  Monomial asMonomial() const;

  Expr operator-() const;
  Expr operator+(const Expr& o) const;
  Expr operator-(const Expr& o) const;
  Expr operator*(const Expr& o) const;

  /// In-place merge of `o`'s (sorted) terms into this term list.
  Expr& operator+=(const Expr& o) { return mergeAccumulate(o, false); }
  Expr& operator-=(const Expr& o) { return mergeAccumulate(o, true); }
  Expr& operator*=(const Expr& o);

  /// Termwise division by a monomial (always exact).
  Expr dividedBy(const Monomial& m) const;

  /// Exact polynomial division: returns q with q * o == *this, or nullopt
  /// when no such (Laurent-)polynomial quotient is found.
  std::optional<Expr> divideExact(const Expr& o) const;

  bool operator==(const Expr& o) const { return terms_ == o.terms_; }
  bool operator!=(const Expr& o) const { return !(*this == o); }

  support::Rational evaluate(const Environment& env) const;

  /// Evaluates and requires the result to be an integer.
  std::int64_t evaluateInt(const Environment& env) const;

  /// Content: gcd of all terms (coefficient gcd, per-parameter minimum
  /// exponent).  content(0) == 0.
  Monomial content() const;

  /// Adds every parameter mentioned to `out`.
  void collectParams(std::set<std::string>& out) const;

  /// "0", "2p", "bL+bN", "p^2-1".  Terms are printed in canonical order.
  std::string toString() const;

 private:
  /// Merges the sorted term list of `o` (negated when `negate`) into the
  /// sorted term list of *this; the single non-trivial step of + and -.
  Expr& mergeAccumulate(const Expr& o, bool negate);

  /// Restores the invariant on an unsorted term list (used only after a
  /// general product, whose cross terms are not order-preserving).
  void canonicalize();

  /// Sums runs of equal power products and drops zero terms, in place;
  /// requires terms_ sorted.
  void combineAdjacent();

  TermVec terms_;
};

/// gcd of two expressions through their contents.  For two monomials this
/// is the exact monomial gcd; for sums it is the gcd of the contents,
/// which is sound (divides both) though not always maximal.
Monomial exprGcd(const Expr& a, const Expr& b);

/// Scales a vector of expressions to the minimal "integer" form used for
/// repetition vectors: multiplies by the lcm of all coefficient
/// denominators, then divides by the gcd of all coefficient numerators.
/// Parameter exponents are left untouched (a parametric vector like
/// [2, 2p, p] is already minimal; dividing by p would change its meaning
/// at p = 1).
std::vector<Expr> normalizeSolutionVector(const std::vector<Expr>& v);

std::ostream& operator<<(std::ostream& os, const Expr& e);

/// Parses an expression: integers, parameter names, + - * / ( ) and
/// implicit multiplication by juxtaposition ("2p", "beta(N+L)").
/// Division must be exact.  Throws ParseError on malformed input.
Expr parseExpr(std::string_view text);

}  // namespace tpdf::symbolic
