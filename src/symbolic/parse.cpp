// Recursive-descent parser for rate expressions.
//
// Grammar (standard precedence, implicit multiplication by juxtaposition):
//   expr   := term (('+' | '-') term)*
//   term   := unary (('*' | '/')? unary)*      -- absent operator means '*'
//   unary  := '-' unary | primary
//   primary:= INTEGER | IDENT | '(' expr ')'
// Division must be exact in the Laurent-polynomial sense.
#include <cctype>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include "support/checked.hpp"
#include "support/error.hpp"
#include "symbolic/expr.hpp"

namespace tpdf::symbolic {
namespace {

class ExprParser {
 public:
  explicit ExprParser(std::string_view text) : text_(text) {}

  Expr parse() {
    const Expr e = parseExprRule();
    skipSpace();
    if (pos_ != text_.size()) {
      fail("unexpected trailing input '" + std::string(text_.substr(pos_)) +
           "'");
    }
    return e;
  }

 private:
  /// Recursion ceiling for nested parentheses / chained unary minus.  An
  /// adversarial input like "((((…1…))))" must fail with a positioned
  /// ParseError, not exhaust the thread stack; real rate expressions nest
  /// a handful of levels.
  static constexpr int kMaxDepth = 64;

  [[noreturn]] void fail(const std::string& message) const {
    throw support::ParseError("expression error: " + message, 1,
                              static_cast<int>(pos_) + 1);
  }

  /// RAII depth guard entered by the recursive rules.
  struct DepthGuard {
    explicit DepthGuard(ExprParser& p) : parser(p) {
      if (++parser.depth_ > kMaxDepth) {
        parser.fail("expression nested too deeply (limit " +
                    std::to_string(kMaxDepth) + ")");
      }
    }
    ~DepthGuard() { --parser.depth_; }
    DepthGuard(const DepthGuard&) = delete;
    DepthGuard& operator=(const DepthGuard&) = delete;
    ExprParser& parser;
  };

  void skipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    skipSpace();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  bool startsPrimary() {
    const char c = peek();
    return c == '(' || std::isdigit(static_cast<unsigned char>(c)) ||
           std::isalpha(static_cast<unsigned char>(c)) || c == '_';
  }

  Expr parseExprRule() {
    Expr value = parseTerm();
    while (true) {
      const char c = peek();
      if (c == '+') {
        ++pos_;
        value += parseTerm();
      } else if (c == '-') {
        ++pos_;
        value -= parseTerm();
      } else {
        return value;
      }
    }
  }

  Expr parseTerm() {
    Expr value = parseUnary();
    while (true) {
      const char c = peek();
      if (c == '*') {
        ++pos_;
        value *= parseUnary();
      } else if (c == '/') {
        ++pos_;
        const Expr divisor = parseUnary();
        const auto q = value.divideExact(divisor);
        if (!q) {
          fail("inexact division of '" + value.toString() + "' by '" +
               divisor.toString() + "'");
        }
        value = *q;
      } else if (startsPrimary()) {
        value *= parseUnary();  // juxtaposition: "2p", "beta(N+L)"
      } else {
        return value;
      }
    }
  }

  Expr parseUnary() {
    if (peek() == '-') {
      const DepthGuard guard(*this);
      ++pos_;
      return -parseUnary();
    }
    return parsePrimary();
  }

  Expr parsePrimary() {
    const char c = peek();
    if (c == '(') {
      const DepthGuard guard(*this);
      ++pos_;
      const Expr inner = parseExprRule();
      if (peek() != ')') fail("expected ')'");
      ++pos_;
      return inner;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::int64_t value = 0;
      constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        const std::int64_t digit = text_[pos_] - '0';
        // Positioned rejection (not a bare checked-arithmetic throw), so
        // the .tpdf reader can remap it to a file line/column.
        if (value > (kMax - digit) / 10) fail("integer literal overflows");
        value = value * 10 + digit;
        ++pos_;
      }
      return Expr(value);
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      const std::size_t start = pos_;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '_')) {
        ++pos_;
      }
      return Expr::param(std::string(text_.substr(start, pos_ - start)));
    }
    fail(std::string("unexpected character '") + c + "'");
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Expr parseExpr(std::string_view text) { return ExprParser(text).parse(); }

}  // namespace tpdf::symbolic
