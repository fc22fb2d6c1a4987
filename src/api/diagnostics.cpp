#include "api/diagnostics.hpp"

#include <exception>

#include "support/budget.hpp"
#include "support/error.hpp"

namespace tpdf::api {

std::string toString(Severity s) {
  switch (s) {
    case Severity::Note:
      return "note";
    case Severity::Warning:
      return "warning";
    case Severity::Error:
      return "error";
  }
  return "?";
}

std::string toString(Status s) {
  switch (s) {
    case Status::Ok:
      return "ok";
    case Status::AnalysisNegative:
      return "analysis-negative";
    case Status::InvalidRequest:
      return "invalid-request";
    case Status::InputError:
      return "input-error";
    case Status::InternalError:
      return "internal-error";
    case Status::ResourceLimit:
      return "resource-limit";
  }
  return "?";
}

std::optional<Status> statusFromString(const std::string& s) {
  if (s == "ok") return Status::Ok;
  if (s == "analysis-negative") return Status::AnalysisNegative;
  if (s == "invalid-request") return Status::InvalidRequest;
  if (s == "input-error") return Status::InputError;
  if (s == "internal-error") return Status::InternalError;
  if (s == "resource-limit") return Status::ResourceLimit;
  return std::nullopt;
}

int exitCode(Status s) {
  switch (s) {
    case Status::Ok:
      return 0;
    case Status::AnalysisNegative:
      return 1;
    case Status::InvalidRequest:
      return 2;
    case Status::InputError:
    case Status::InternalError:
      return 3;
    case Status::ResourceLimit:
      return 4;
  }
  return 3;
}

std::string Diagnostic::toString() const {
  std::string out = api::toString(severity) + " [" + code + "]";
  if (!file.empty()) {
    out += " " + file;
    if (line >= 0) {
      out += ":" + std::to_string(line) + ":" + std::to_string(column);
    }
    out += ":";
  }
  return out + " " + message;
}

void Diagnostic::write(support::json::Writer& w) const {
  w.beginObject().member("severity", api::toString(severity));
  w.member("code", code).member("message", message);
  if (!file.empty()) w.member("file", file);
  if (line >= 0) w.member("line", line).member("column", column);
  w.endObject();
}

void Response::note(std::string code, std::string message) {
  diagnostics.push_back(Diagnostic{Severity::Note, std::move(code),
                                   std::move(message), "", -1, -1});
}

void Response::warn(std::string code, std::string message) {
  diagnostics.push_back(Diagnostic{Severity::Warning, std::move(code),
                                   std::move(message), "", -1, -1});
}

void Response::fail(Status s, std::string code, std::string message,
                    std::string file, int line, int column) {
  status = s;
  diagnostics.push_back(Diagnostic{Severity::Error, std::move(code),
                                   std::move(message), std::move(file), line,
                                   column});
}

std::string Response::firstError() const {
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == Severity::Error) return d.message;
  }
  return "";
}

void Response::write(support::json::Writer& w) const {
  w.member("status", toString(status)).key("diagnostics").beginArray();
  for (const Diagnostic& d : diagnostics) d.write(w);
  w.endArray();
}

void guardedRun(Response& response, const std::string& file,
                const std::function<void()>& fn) {
  try {
    fn();
  } catch (const support::BudgetExceeded& e) {
    // Before the support::Error catch (BudgetExceeded derives from it):
    // a deadline/work/cancellation trip is the stable resource-limit
    // outcome (exit 4), not a generic runtime error.
    response.fail(Status::ResourceLimit, "resource-limit", e.what(), file);
  } catch (const support::ParseError& e) {
    response.fail(Status::InputError, "parse-error", e.what(), file, e.line(),
                  e.column());
  } catch (const support::ModelError& e) {
    response.fail(Status::InputError, "model-error", e.what(), file, e.line(),
                  e.column());
  } catch (const support::OverflowError& e) {
    response.fail(Status::InputError, "overflow", e.what(), file);
  } catch (const support::DivisionByZeroError& e) {
    response.fail(Status::InputError, "division-by-zero", e.what(), file);
  } catch (const support::Error& e) {
    response.fail(Status::InputError, "runtime-error", e.what(), file);
  } catch (const std::exception& e) {
    response.fail(Status::InternalError, "internal-error", e.what(), file);
  } catch (...) {
    response.fail(Status::InternalError, "internal-error",
                  "unknown non-standard exception", file);
  }
}

}  // namespace tpdf::api
