// Diagnostics and status codes of the tpdf::api service façade.
//
// The façade (api/session.hpp) never lets an exception cross the API
// boundary: every outcome — success, negative analysis verdict, bad
// request, malformed input, internal fault — is a Status plus a list of
// structured Diagnostics on the response.  Source positions
// (support::ParseError's line/column, and a read-time ModelError's) and
// input file names survive as fields instead of being flattened into
// message text, so clients (CI gates, dashboards, the `tpdfc --json`
// output) can point at the offending source line.
//
// Diagnostic codes are stable kebab-case identifiers (documented in
// docs/api.md); clients should branch on `code`, never on message text.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "support/json.hpp"

namespace tpdf::api {

enum class Severity { Note, Warning, Error };

/// "note", "warning", "error".
std::string toString(Severity s);

/// Outcome class of a façade call; exitCode() maps it onto the
/// documented tpdfc exit-code contract.
enum class Status {
  /// The request ran and the verdict is positive (analysis: bounded).
  Ok,
  /// The request ran but the verdict is negative: inconsistent rates,
  /// unsafe, deadlocked, unschedulable, simulation failure.
  AnalysisNegative,
  /// The request itself is malformed: unknown graph id, missing input,
  /// conflicting fields (the CLI analogue is a usage error).
  InvalidRequest,
  /// The input could not be processed: parse error, model validation
  /// failure, unbound parameter, arithmetic overflow.
  InputError,
  /// A defect in the toolkit itself (unexpected exception).
  InternalError,
  /// The request hit a resource limit (deadline, work budget, or
  /// cooperative cancellation) before completing.  Distinct from every
  /// other status: the verdict is neither positive nor negative — the
  /// analysis simply was not allowed to finish.
  ResourceLimit,
};

/// "ok", "analysis-negative", "invalid-request", "input-error",
/// "internal-error", "resource-limit".
std::string toString(Status s);

/// The inverse of toString(Status): nullopt for an unknown string.  The
/// tpdfc client mode uses this to map a daemon envelope's status back
/// onto the documented exit-code contract.
std::optional<Status> statusFromString(const std::string& s);

/// The documented tpdfc exit-code contract: Ok = 0, AnalysisNegative = 1,
/// InvalidRequest = 2, InputError = 3 (InternalError also maps to 3: from
/// a script's point of view the input could not be processed),
/// ResourceLimit = 4 (a deadline/work/cancellation trip — retry with a
/// larger budget, the input itself may be fine).
int exitCode(Status s);

/// One structured finding attached to a response.
struct Diagnostic {
  Severity severity = Severity::Error;
  /// Stable machine-readable identifier, e.g. "parse-error".
  std::string code;
  /// Human-readable explanation.
  std::string message;
  /// Input file (or batch entry label) the finding refers to, if any.
  std::string file;
  /// 1-based source position; -1 when the finding carries no position.
  int line = -1;
  int column = -1;

  /// "error [parse-error] graph.tpdf:3:7: expected '{'".
  std::string toString() const;

  /// {"severity": "error", "code": "parse-error", "message": ...,
  /// "file": ..., "line": 3, "column": 7} (position fields only when
  /// present).
  void write(support::json::Writer& w) const;
  support::json::Value toJson() const { return support::json::toValue(*this); }
};

/// Base of every façade response: a status and its diagnostics.
struct Response {
  Status status = Status::Ok;
  std::vector<Diagnostic> diagnostics;

  bool ok() const { return status == Status::Ok; }

  /// Appends a Note-severity diagnostic (does not change the status).
  void note(std::string code, std::string message);

  /// Appends a Warning-severity diagnostic (does not change the status).
  void warn(std::string code, std::string message);

  /// Appends an Error-severity diagnostic and downgrades the status.
  void fail(Status s, std::string code, std::string message,
            std::string file = "", int line = -1, int column = -1);

  /// Message of the first Error-severity diagnostic, or "" when none.
  std::string firstError() const;

  /// The leading members of every response document: "status" and
  /// "diagnostics" (["<Diagnostic::write>", ...] in append order).
  void write(support::json::Writer& w) const;
};

/// Runs `fn` under the façade's no-throw guarantee: every exception type
/// the toolkit can raise is mapped to a Status + structured Diagnostic
/// on `response` (ParseError and a positioned ModelError keep their
/// line/column; `file` names the input the failure refers to, when
/// known).  Session methods and the tpdfd request executor share this
/// one mapping so a given failure produces the same diagnostic through
/// either surface.
void guardedRun(Response& response, const std::string& file,
                const std::function<void()>& fn);

}  // namespace tpdf::api
