// Error types shared by every tpdf library.
//
// Analyses report *expected* negative outcomes (inconsistent graph,
// deadlock, unsafe control area) through result/report value types, never
// through exceptions.  Exceptions are reserved for contract violations and
// malformed inputs: out-of-range ids, arithmetic overflow, parse errors.
#pragma once

#include <stdexcept>
#include <string>

namespace tpdf::support {

/// Base class of every exception thrown by this project.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when a checked integer operation would overflow.
class OverflowError : public Error {
 public:
  explicit OverflowError(const std::string& what) : Error(what) {}
};

/// Thrown on division by zero in exact arithmetic.
class DivisionByZeroError : public Error {
 public:
  explicit DivisionByZeroError(const std::string& what) : Error(what) {}
};

/// Thrown when a graph is structurally malformed (dangling port, duplicate
/// name, control channel into a data port, ...).  Distinct from an analysis
/// returning "not consistent": a malformed graph cannot even be analyzed.
/// The .tpdf reader attaches the position of the declaration that failed;
/// what() never includes it.
class ModelError : public Error {
 public:
  explicit ModelError(const std::string& what, int line = -1,
                      int column = -1)
      : Error(what), line_(line), column_(column) {}

  /// 1-based source position; -1 when the error carries none.
  int line() const { return line_; }
  int column() const { return column_; }

 private:
  int line_;
  int column_;
};

/// Thrown by the .tpdf text-format reader on syntax errors.
class ParseError : public Error {
 public:
  ParseError(const std::string& what, int line, int column)
      : Error(what + " at line " + std::to_string(line) + ", column " +
              std::to_string(column)),
        message_(what),
        line_(line),
        column_(column) {}

  /// The bare message, without the appended position suffix — what a
  /// handler needs to rethrow at a corrected position (the .tpdf reader
  /// remaps expression-local rate-parse positions to file positions).
  const std::string& message() const { return message_; }

  int line() const { return line_; }
  int column() const { return column_; }

 private:
  std::string message_;
  int line_;
  int column_;
};

}  // namespace tpdf::support
