// Wire protocol of the tpdfd daemon: newline-delimited JSON requests,
// one envelope response per request.
//
// Framing.  A request is one line of UTF-8 JSON terminated by '\n' (a
// trailing '\r' is tolerated, blank lines are ignored).  LineFramer
// accumulates partial reads into complete lines and latches an
// oversized-line condition: a line that exceeds the configured bound is
// never buffered further — the server answers one `oversized-line`
// reject envelope and drops the connection.
//
// Requests.  {"command": "<name>", ...} — commands mirror the tpdfc
// subcommands (analyze, schedule, buffers, map, simulate, sweep, batch,
// verify), whose fields come from the api request schema
// (api/requests.hpp: a key the command does not declare is an
// invalid-request), plus daemon-side ones (load, erase, stats, ping).
// A graph is referenced by inline source text ("graph"), a server-side
// file ("path"), or a previously loaded id ("id"); inline text and files
// are admitted through the shared GraphCache, so identical sources from
// any number of clients share one parsed graph and one memoized
// AnalysisContext.
//
// Responses.  The existing one-envelope contract: {"tool": "tpdfd",
// "version", "command", "status", "diagnostics", ...payload}, exactly
// the api::*Response::write() members tpdfc --json prints, plus a
// "serve" block ({"cached": bool, "analysisUs": µs}) on graph commands
// so clients can separate server-side analysis cost from transport.
// Malformed JSON yields a positioned `invalid-request` diagnostic (the
// parse error's line/column refer to the request line itself).
//
// ClientSession is one connection's protocol state: its own
// api::Session (id namespace isolation between clients) over the shared
// cache.  handle() is synchronous and never throws; the server runs it
// on a worker pool.  Holding GraphCache::Entry::mutex for the duration
// of a request serializes work per cached graph (the shared
// AnalysisContext is not thread-safe) while distinct graphs proceed in
// parallel.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/session.hpp"
#include "serve/cache.hpp"

namespace tpdf::support {
class Budget;
}

namespace tpdf::serve {

/// Splits a byte stream into newline-terminated frames.
class LineFramer {
 public:
  /// Lines longer than `maxLineBytes` latch overflow; 0 = unbounded.
  explicit LineFramer(std::size_t maxLineBytes)
      : maxLineBytes_(maxLineBytes) {}

  /// Appends complete lines (without the terminator, '\r' stripped,
  /// blank lines skipped) to `out`.  Returns false once a line exceeds
  /// the bound — the framer stays latched and buffers nothing further.
  bool feed(std::string_view bytes, std::vector<std::string>& out);

  bool overflowed() const { return overflowed_; }
  /// Bytes of the current (incomplete) line.
  std::size_t buffered() const { return buffer_.size(); }

 private:
  std::string buffer_;
  std::size_t maxLineBytes_;
  bool overflowed_ = false;
};

/// Server-side policy applied to every request of a connection.
struct RequestPolicy {
  /// Deadline applied when the request carries none (0 = none).
  std::int64_t defaultTimeoutMs = 0;
  /// Run-wide cancel source (the daemon's hard-shutdown switch); chained
  /// into every request budget.  Must outlive the session.
  const support::Budget* cancelParent = nullptr;
};

/// One connection's protocol state: a private api::Session namespace
/// over the shared graph cache.
class ClientSession {
 public:
  ClientSession(GraphCache& cache, RequestPolicy policy)
      : cache_(cache), policy_(policy) {}

  struct Result {
    /// The envelope, compact JSON, no trailing newline.
    std::string line;
    /// The envelope's status (drives logging/metrics; the wire carries
    /// the string form).
    api::Status status = api::Status::Ok;
    std::string command;
  };

  /// Executes one framed request line.  Never throws; every failure is
  /// an envelope with structured diagnostics.
  Result handle(const std::string& requestLine);

  /// The reject envelope the server sends before dropping a connection
  /// whose current line exceeded `maxLineBytes` (LineFramer overflow
  /// means the offending request can never be parsed).
  static Result oversizedLineReject(std::size_t maxLineBytes);

  /// The backpressure reject: the server's bounded request queue is
  /// full.  status resource-limit with a `server-overloaded` diagnostic
  /// — the request was NOT executed and is safe to retry.
  static Result overloadedReject(std::size_t maxQueue);

 private:
  struct Target {
    std::shared_ptr<GraphCache::Entry> entry;
    std::string id;
    bool cached = false;  // true when served from the shared cache (hit)
  };

  /// Resolves the request's graph reference ("graph" text, "path", or
  /// "id") into an adopted session graph; records failures on `bad`.
  Target resolveTarget(const support::json::Value& doc, api::Response& bad);

  GraphCache& cache_;
  RequestPolicy policy_;
  api::Session session_;
  /// Cache entries adopted into session_, by session id: requests
  /// against these graphs must hold the entry mutex (shared context).
  std::map<std::string, std::shared_ptr<GraphCache::Entry>> adopted_;
};

}  // namespace tpdf::serve
