// Monomials: rational coefficient times a product of parameter powers.
//
// Every individual rate in the paper (p, 2p, beta*N, ...) is a monomial;
// sums of monomials (beta*(N+L)) live one layer up in Expr.  Monomials are
// closed under multiplication and exact division (exponents may go
// negative transiently while solving balance equations, e.g. r_C = p/2
// before normalization).
//
// Representation: parameter names are interned to ParamId (param.hpp) and
// the exponent list is an inline small-vector of (ParamId, exponent)
// pairs kept sorted in canonical *name* order — the same order a
// std::map<std::string, int> would iterate in, so renderings and the
// canonical Expr term order are unchanged, but multiplication, gcd and
// comparisons are allocation-free linear merges.
#pragma once

#include <string>

#include "support/rational.hpp"
#include "support/inlinevec.hpp"
#include "symbolic/env.hpp"
#include "symbolic/param.hpp"

namespace tpdf::symbolic {

/// One parameter ^ exponent factor of a monomial.
struct ParamExp {
  ParamId id;
  std::int32_t exp = 0;

  bool operator==(const ParamExp& o) const {
    return id == o.id && exp == o.exp;
  }
  bool operator!=(const ParamExp& o) const { return !(*this == o); }
};

/// Exponent list sorted by parameter name; inline up to four parameters
/// (no real graph in the paper exceeds two).
using ExpVec = support::InlineVec<ParamExp, 4>;

/// Memo of parameter powers computed while evaluating one expression;
/// avoids re-walking the environment and re-exponentiating when the same
/// param^exp occurs in several terms.  See Expr::evaluate.
class PowerCache {
 public:
  /// value^|exp| for `id` bound in `env`, computed once per (id, exp).
  const support::Rational& power(const Environment& env, ParamId id,
                                 std::int32_t exp);

 private:
  struct Entry {
    ParamId id;
    std::int32_t exp;
    support::Rational value;
  };
  support::InlineVec<Entry, 8> entries_;
};

/// coeff * prod(param_i ^ exp_i) with nonzero exponents only and, for the
/// zero monomial, an empty exponent list.
class Monomial {
 public:
  /// The zero monomial.
  Monomial() = default;

  /// A constant monomial.
  explicit Monomial(support::Rational coeff);

  /// coeff * name^1.
  Monomial(support::Rational coeff, const std::string& name);

  /// coeff * prod(powers); `powers` must be sorted in canonical name
  /// order with nonzero exponents (the invariant every Monomial keeps).
  Monomial(support::Rational coeff, ExpVec powers);

  static Monomial one() { return Monomial(support::Rational(1)); }
  static Monomial param(const std::string& name) {
    return Monomial(support::Rational(1), name);
  }

  const support::Rational& coeff() const { return coeff_; }
  const ExpVec& exponents() const { return exponents_; }

  bool isZero() const { return coeff_.isZero(); }
  bool isConstant() const { return exponents_.empty(); }
  bool isOne() const { return coeff_.isOne() && exponents_.empty(); }

  /// Exponent of `name` (0 if absent).
  int exponentOf(const std::string& name) const;
  /// Exponent of `id` (0 if absent).
  int exponentOf(ParamId id) const;

  Monomial operator-() const;
  Monomial operator*(const Monomial& o) const;
  /// Exact division; always defined for nonzero divisor because negative
  /// exponents are representable.
  Monomial operator/(const Monomial& o) const;
  Monomial pow(int e) const;

  /// Multiplies only the coefficient.
  Monomial scaled(const support::Rational& c) const;

  bool operator==(const Monomial& o) const {
    return coeff_ == o.coeff_ && exponents_ == o.exponents_;
  }
  bool operator!=(const Monomial& o) const { return !(*this == o); }

  /// True when the exponent lists are equal (the terms can be summed).
  bool samePowerProduct(const Monomial& o) const {
    return exponents_ == o.exponents_;
  }

  /// Deterministic order on power products (lexicographic on the
  /// name-sorted exponent list, i.e. exactly the order the former
  /// std::map representation compared in), used to canonicalize Expr
  /// term lists.
  static bool powerProductLess(const Monomial& a, const Monomial& b);

  support::Rational evaluate(const Environment& env) const;
  /// Evaluation variant sharing a power memo across terms.
  support::Rational evaluate(const Environment& env,
                             PowerCache& cache) const;

  /// "0", "3/2", "p", "2p", "p^2q", "(1/2)p".
  std::string toString() const;

 private:
  friend class Expr;

  support::Rational coeff_ = support::Rational(0);
  ExpVec exponents_;
};

/// gcd of two monomials: rationalGcd of the coefficients and, per
/// parameter, the minimum exponent occurring in *both* lists (a parameter
/// absent from one side contributes exponent 0).  gcd(0, m) == |m|.
Monomial monomialGcd(const Monomial& a, const Monomial& b);

}  // namespace tpdf::symbolic
