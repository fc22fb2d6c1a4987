#include "serve/protocol.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <mutex>
#include <optional>
#include <span>
#include <sstream>
#include <tuple>
#include <type_traits>
#include <utility>

#include "api/version.hpp"
#include "support/budget.hpp"
#include "support/error.hpp"

namespace tpdf::serve {

// ---- LineFramer ---------------------------------------------------------

bool LineFramer::feed(std::string_view bytes, std::vector<std::string>& out) {
  if (overflowed_) return false;
  std::size_t start = 0;
  while (start < bytes.size()) {
    const std::size_t nl = bytes.find('\n', start);
    if (nl == std::string_view::npos) {
      buffer_.append(bytes.substr(start));
      break;
    }
    buffer_.append(bytes.substr(start, nl - start));
    if (maxLineBytes_ != 0 && buffer_.size() > maxLineBytes_) {
      overflowed_ = true;
      buffer_.clear();
      return false;
    }
    if (!buffer_.empty() && buffer_.back() == '\r') buffer_.pop_back();
    if (!buffer_.empty()) out.push_back(std::move(buffer_));
    buffer_.clear();
    start = nl + 1;
  }
  if (maxLineBytes_ != 0 && buffer_.size() > maxLineBytes_) {
    overflowed_ = true;
    buffer_.clear();
    return false;
  }
  return true;
}

// ---- envelope helpers ---------------------------------------------------

namespace {

using support::json::Value;
using support::json::Writer;

/// The reply line: {"tool": "tpdfd", "version", "command"} and then the
/// members `write` puts — the same envelope shape tpdfc --json emits,
/// written compact straight into the line.
template <typename Members>
ClientSession::Result finish(const std::string& command, api::Status status,
                             Members&& write) {
  Writer w(support::json::Layout::Compact);
  api::beginEnvelope(w, "tpdfd", command);
  write(w);
  w.endObject();
  return {w.finish(), status, command};
}

/// An envelope carrying only status + diagnostics (no payload ran).
ClientSession::Result reject(const std::string& command,
                             const api::Response& response) {
  return finish(command, response.status,
                [&](Writer& w) { response.write(w); });
}

/// A graph reference: inline "graph" text, a server-side "path", or a
/// loaded "id" (each "" when absent; a non-string is a failure).
struct GraphRef {
  std::string text, path, id;
};
constexpr std::string_view kGraphRefKeys[] = {"graph", "path", "id"};
constexpr std::string_view kIdKey[] = {"id"};

GraphRef readGraphRef(const Value& doc, api::Response& bad) {
  GraphRef ref;
  std::string* fields[] = {&ref.text, &ref.path, &ref.id};
  for (std::size_t i = 0; i < std::size(kGraphRefKeys); ++i) {
    const std::string key(kGraphRefKeys[i]);
    const Value* v = doc.find(key);
    if (v == nullptr) continue;
    if (!v->isString()) {
      bad.fail(api::Status::InvalidRequest, "invalid-request",
               "\"" + key + "\" must be a string");
    } else {
      *fields[i] = v->asString();
    }
  }
  return ref;
}

/// Rejects the first member of `doc` outside "command" and `keys` (the
/// daemon-only commands' fields; the request commands have tables).
bool onlyKeys(const Value& doc, std::span<const std::string_view> keys,
              const std::string& command, api::Response& bad) {
  for (const auto& [key, value] : doc.members()) {
    if (key != "command" &&
        std::find(keys.begin(), keys.end(), key) == keys.end()) {
      bad.fail(api::Status::InvalidRequest, "invalid-request",
               "unknown key \"" + key + "\" for command \"" + command +
                   "\"");
      return false;
    }
  }
  return true;
}

/// The Session operation of each api::Request alternative, in order.
constexpr auto kOperations = std::make_tuple(
    &api::Session::analyze, &api::Session::schedule, &api::Session::buffers,
    &api::Session::map, &api::Session::simulate, &api::Session::sweep,
    &api::Session::batch, &api::Session::verify);

template <std::size_t I = 0, typename R>
auto execute(api::Session& session, const R& request) {
  using Alternative = std::variant_alternative_t<I, api::Request>;
  if constexpr (std::is_same_v<R, Alternative>) {
    return (session.*std::get<I>(kOperations))(request);
  } else {
    return execute<I + 1>(session, request);
  }
}

/// Reads a server-side file into a string (for "path" graph refs);
/// failures surface as input-error diagnostics.
bool readFileText(const std::string& path, std::string& out,
                  api::Response& bad) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    bad.fail(api::Status::InputError, "io-error",
             "cannot open '" + path + "'", path);
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

/// Microseconds elapsed since `start`.
double elapsedUs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

// ---- canned rejects -----------------------------------------------------

ClientSession::Result ClientSession::oversizedLineReject(
    std::size_t maxLineBytes) {
  api::Response response;
  response.fail(api::Status::InvalidRequest, "oversized-line",
                "request line exceeds the " + std::to_string(maxLineBytes) +
                    "-byte limit; connection closed");
  return reject("", response);
}

ClientSession::Result ClientSession::overloadedReject(std::size_t maxQueue) {
  api::Response response;
  response.fail(api::Status::ResourceLimit, "server-overloaded",
                "request queue is full (" + std::to_string(maxQueue) +
                    " in flight); the request was not executed — retry "
                    "after a backoff");
  return reject("", response);
}

// ---- target resolution --------------------------------------------------

ClientSession::Target ClientSession::resolveTarget(const Value& doc,
                                                   api::Response& bad) {
  Target target;
  const auto [text, path, id] = readGraphRef(doc, bad);
  if (!bad.ok()) return target;
  const int refs = (text.empty() ? 0 : 1) + (path.empty() ? 0 : 1) +
                   (id.empty() ? 0 : 1);
  if (refs == 0) {
    bad.fail(api::Status::InvalidRequest, "invalid-request",
             "request needs a graph reference: inline \"graph\" text, a "
             "server-side \"path\", or a loaded \"id\"");
    return target;
  }
  if (refs > 1) {
    bad.fail(api::Status::InvalidRequest, "invalid-request",
             "\"graph\", \"path\" and \"id\" are mutually exclusive");
    return target;
  }

  if (!id.empty()) {
    // Previously loaded/adopted; unknown ids fall through to the
    // session's own unknown-graph diagnostic.
    target.id = id;
    const auto it = adopted_.find(id);
    if (it != adopted_.end()) {
      target.entry = it->second;
      target.cached = true;
    } else if (!session_.has(id)) {
      bad.fail(api::Status::InvalidRequest, "unknown-graph",
               "no graph '" + id + "' loaded on this connection");
    }
    return target;
  }

  std::string source = text;
  if (!path.empty() && !readFileText(path, source, bad)) return target;

  // Admission through the shared cache (may throw on bad input; the
  // caller runs us under guardedRun).
  GraphCache::Acquired acquired = cache_.acquire(source);
  target.entry = std::move(acquired.entry);
  target.cached = acquired.hit;
  target.id = target.entry->id;
  if (!session_.has(target.id)) {
    session_.adopt(target.id, target.entry->model, target.entry->ctx);
    adopted_.emplace(target.id, target.entry);
  }
  return target;
}

// ---- request execution --------------------------------------------------

ClientSession::Result ClientSession::handle(const std::string& requestLine) {
  std::string command;
  api::Response bad;

  Value doc;
  try {
    doc = support::json::parse(requestLine);
  } catch (const support::ParseError& e) {
    bad.fail(api::Status::InvalidRequest, "invalid-request", e.message(), "",
             e.line(), e.column());
    return reject(command, bad);
  }
  if (!doc.isObject()) {
    bad.fail(api::Status::InvalidRequest, "invalid-request",
             "request must be a JSON object");
    return reject(command, bad);
  }
  const Value* cmd = doc.find("command");
  if (cmd == nullptr || !cmd->isString()) {
    bad.fail(api::Status::InvalidRequest, "invalid-request",
             "request needs a string \"command\"");
    return reject(command, bad);
  }
  command = cmd->asString();

  // ---- commands without a graph target ----
  if ((command == "ping" || command == "stats") &&
      !onlyKeys(doc, {}, command, bad)) {
    return reject(command, bad);
  }
  if (command == "ping") return reject(command, bad);  // status ok
  if (command == "stats") {
    return finish(command, api::Status::Ok, [&](Writer& w) {
      bad.write(w);
      cache_.stats().write(w.key("cache"));
      w.key("graphs").beginArray();
      for (const std::string& id : session_.graphIds()) w.value(id);
      w.endArray();
    });
  }
  if (command == "erase") {
    const std::string id =
        onlyKeys(doc, kIdKey, command, bad) ? readGraphRef(doc, bad).id : "";
    if (bad.ok() && id.empty()) {
      bad.fail(api::Status::InvalidRequest, "invalid-request",
               "erase needs an \"id\"");
    }
    if (bad.ok() && !session_.erase(id)) {
      bad.fail(api::Status::InvalidRequest, "unknown-graph",
               "no graph '" + id + "' loaded on this connection");
    }
    adopted_.erase(id);
    return reject(command, bad);  // status ok + empty diagnostics on success
  }

  if (command == "load") {
    // load: admit text/path into the cache, then adopt under the
    // client-chosen id (or the cache id).  The "id" field names the NEW
    // session key here, not an existing graph, so resolve by hand.
    const GraphRef ref = onlyKeys(doc, kGraphRefKeys, command, bad)
                             ? readGraphRef(doc, bad)
                             : GraphRef{};
    if (bad.ok() && ref.text.empty() == ref.path.empty()) {
      bad.fail(api::Status::InvalidRequest, "invalid-request",
               "load takes inline \"graph\" text or a \"path\", not both");
    }
    if (!bad.ok()) return reject(command, bad);
    std::string source = ref.text;
    if (!ref.path.empty() && !readFileText(ref.path, source, bad)) {
      return reject(command, bad);
    }
    api::LoadResponse response;
    api::guardedRun(response, ref.path, [&] {
      GraphCache::Acquired acquired = cache_.acquire(source);
      const std::string key = ref.id.empty() ? acquired.entry->id : ref.id;
      if (!session_.has(key)) {
        session_.adopt(key, acquired.entry->model, acquired.entry->ctx);
        adopted_.emplace(key, acquired.entry);
      } else if (adopted_.count(key) == 0 ||
                 adopted_[key] != acquired.entry) {
        response.fail(api::Status::InvalidRequest, "duplicate-graph",
                      "graph '" + key +
                          "' is already loaded (erase it first)");
        return;
      }
      const graph::Graph& g = acquired.entry->model->graph();
      response.id = key;
      response.graphName = g.name();
      response.actorCount = g.actorCount();
      response.channelCount = g.channelCount();
      response.params.assign(g.params().begin(), g.params().end());
    });
    return finish(command, response.status,
                  [&](Writer& w) { response.write(w); });
  }

  // ---- request commands: fields from the schema (api/requests.hpp) ----
  std::optional<api::Request> request = api::requestFor(command);
  if (!request.has_value()) {
    bad.fail(api::Status::InvalidRequest, "invalid-request",
             "unknown command '" + command + "'");
    return reject(command, bad);
  }
  // Corpus commands (batch, verify) name server-side paths and never
  // touch the cache; the others reference one graph.
  const bool corpus = command == "batch" || command == "verify";
  api::fromJson(doc, *request, bad,
                std::span(kGraphRefKeys).first(corpus ? 0 : 3));
  if (!bad.ok()) return reject(command, bad);

  Target target;
  if (!corpus) {
    api::Response resolveProbe;
    api::guardedRun(resolveProbe, "",
                    [&] { target = resolveTarget(doc, resolveProbe); });
    if (!resolveProbe.ok()) return reject(command, resolveProbe);
  }

  // Serialize on the shared cache entry: the memoized AnalysisContext
  // is single-threaded state.  Requests against different graphs run in
  // parallel on the worker pool.
  std::unique_lock<std::mutex> entryLock;
  if (target.entry != nullptr) {
    entryLock = std::unique_lock<std::mutex>(target.entry->mutex);
  }
  const auto start = std::chrono::steady_clock::now();
  return std::visit(
      [&](auto& r) {
        // Connection policy: the server's default deadline when the
        // request names none; the run-wide cancel always chains.
        if (r.limits.timeoutMs == 0) {
          r.limits.timeoutMs = policy_.defaultTimeoutMs;
        }
        r.limits.cancelParent = policy_.cancelParent;
        if constexpr (requires { r.graphId; }) r.graphId = target.id;
        const auto response = execute(session_, r);
        const double us = elapsedUs(start);
        return finish(command, response.status, [&](Writer& w) {
          if constexpr (requires { response.write(w, nullptr); }) {
            response.write(w, session_.graph(target.id));
          } else {
            response.write(w);
          }
          // Was the graph served from the shared cache, and how long did
          // the server-side execution take (transport excluded)?
          w.key("serve").beginObject().member("cached", target.cached);
          w.member("analysisUs", us).endObject();
        });
      },
      *request);
}

}  // namespace tpdf::serve
