// The tpdfd daemon core: socket accept/IO loop + worker pool.
//
// Topology.  One IO thread (the run() caller) owns every file
// descriptor: it accepts connections, reads bytes into per-connection
// LineFramers, and flushes response bytes.  Framed request lines are
// dispatched to a support::ThreadPool of workers, each executing
// ClientSession::handle() (an api::Session operation under the shared
// GraphCache).  A worker appends the finished envelope to the
// connection's output buffer and writes what the non-blocking socket
// takes at once, so a reply does not wait for the IO thread to wake,
// and a slow or dead client can never stall a worker.  It wakes the IO
// thread through the self-pipe only when that thread has work: a line
// queued behind the request, bytes the socket did not take, a
// connection to close, or a drain in progress.
//
// Ordering.  At most ONE request per connection is in flight at a time
// (later lines queue on the connection), so responses arrive in request
// order without sequence numbers.  Distinct connections execute
// concurrently up to the worker count.
//
// Backpressure.  `maxQueue` bounds the requests admitted to the pool
// across all connections.  A request that arrives while the queue is
// full is answered immediately with a `server-overloaded` envelope
// (status resource-limit, exit 4 at the client) and NOT executed — safe
// to retry.  `maxClients` bounds accepted connections; excess accepts
// are closed right away.
//
// Robustness.  Per-request deadlines (client-specified or the server
// default) run on worker-local Budgets chained to the run-wide cancel.
// Idle connections (no bytes for `idleTimeoutMs`) and oversized request
// lines are dropped — the latter after one `oversized-line` reject.
//
// Shutdown.  requestStop() is async-signal-safe (atomic flag + one
// write to the self-pipe).  First call: graceful — stop accepting,
// stop reading, finish every in-flight request, flush every buffered
// envelope, then run() returns (exit 0).  Second call: hard — the
// run-wide cancel Budget trips every in-flight request's budget, which
// unwinds as `resource-limit` envelopes; drain then proceeds as above,
// so even a hard stop never tears an envelope mid-write.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/cache.hpp"
#include "serve/protocol.hpp"
#include "support/budget.hpp"
#include "support/threadpool.hpp"

namespace tpdf::serve {

struct ServerConfig {
  /// Unix-domain socket path (preferred; takes precedence over TCP).
  std::string unixPath;
  /// TCP listen address, used when unixPath is empty.  port 0 picks an
  /// ephemeral port (Server::boundPort() reports it — tests use this).
  std::string host = "127.0.0.1";
  int port = 0;

  /// Worker threads; 0 = hardware concurrency (clamped to [1, 16]).
  std::size_t workers = 0;
  /// Bound on requests in flight across all connections (>= 1).
  std::size_t maxQueue = 64;
  /// Bound on accepted connections.
  std::size_t maxClients = 64;
  /// Request lines longer than this are rejected (bytes).
  std::size_t maxLineBytes = std::size_t{4} << 20;
  /// Drop connections with no traffic for this long; 0 = never.
  std::int64_t idleTimeoutMs = 0;
  /// Default per-request deadline when the client sends none; 0 = none.
  std::int64_t requestTimeoutMs = 0;
  /// Hard bound on a graceful drain: after this long, connections are
  /// closed with whatever has been flushed so far (a client that never
  /// reads its socket must not pin the daemon open forever).
  std::int64_t drainTimeoutMs = 5000;

  /// Shared graph cache bounds (see GraphCache; 0 = unbounded).
  std::size_t cacheEntries = 64;
  std::size_t cacheBytes = std::size_t{256} << 20;
};

/// Aggregate serving counters (IO-thread owned, snapshot via stats()).
struct ServerStats {
  std::uint64_t accepted = 0;
  std::uint64_t requests = 0;
  std::uint64_t rejectedOverload = 0;
  std::uint64_t rejectedOversized = 0;
  std::uint64_t idleDisconnects = 0;
};

class Server {
 public:
  explicit Server(ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and listens; throws support::Error on socket failure.
  void start();

  /// Runs the IO loop until a stop request has fully drained.  Call
  /// start() first.
  void run();

  /// Async-signal-safe stop request; see the shutdown contract above.
  void requestStop();

  /// The TCP port actually bound (after start(); 0 for unix sockets).
  int boundPort() const { return boundPort_; }

  const GraphCache& cache() const { return cache_; }
  /// Safe to call only after run() returned (IO-thread owned).
  const ServerStats& stats() const { return stats_; }

 private:
  struct Connection;

  void acceptReady();
  void readReady(Connection& conn);
  void flushReady(Connection& conn);
  void dispatchPending(const std::shared_ptr<Connection>& conn);
  void closeConnection(Connection& conn);
  // Both require ioMutex_.
  void writeLocked(Connection& conn);
  void closeLocked(Connection& conn);

  ServerConfig config_;
  GraphCache cache_;
  support::Budget runCancel_;  // chained into every request budget

  int listenFd_ = -1;
  int wakeRead_ = -1;
  int wakeWrite_ = -1;
  int boundPort_ = 0;

  std::atomic<int> stopRequests_{0};

  // IO-thread state.
  std::vector<std::shared_ptr<Connection>> connections_;
  std::size_t inFlight_ = 0;  // worker jobs outstanding (guarded by ioMutex_)
  // Guards inFlight_ and each connection's outbuf, pending lines,
  // in-flight flag, fd/closed and lastActivity.
  std::mutex ioMutex_;
  ServerStats stats_;

  std::unique_ptr<support::ThreadPool> pool_;
};

}  // namespace tpdf::serve
