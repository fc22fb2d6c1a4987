#include "serve/server.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <deque>
#include <thread>
#include <utility>

#include "support/error.hpp"

namespace tpdf::serve {

namespace {

using Clock = std::chrono::steady_clock;

void setNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

std::size_t resolveWorkers(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 4 : hw, 1, 16);
}

}  // namespace

struct Server::Connection {
  Connection(int fd, std::size_t maxLineBytes, GraphCache& cache,
             RequestPolicy policy)
      : fd(fd), framer(maxLineBytes), session(cache, policy) {}

  /// Closed (-1) only by the IO thread, under Server::ioMutex_: workers
  /// write responses to it.
  int fd;
  LineFramer framer;
  ClientSession session;
  /// Framed lines awaiting dispatch: changed by the IO thread under
  /// Server::ioMutex_, read by workers under it.
  std::deque<std::string> pending;
  /// Response bytes awaiting write; guarded by Server::ioMutex_ (workers
  /// append, the IO thread flushes).
  std::string outbuf;
  /// One request on the pool right now; guarded by Server::ioMutex_.
  bool inFlight = false;
  bool closeAfterFlush = false;
  /// Set by the IO thread under Server::ioMutex_.
  bool closed = false;
  /// Guarded by Server::ioMutex_.
  Clock::time_point lastActivity = Clock::now();
};

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      cache_(config_.cacheEntries, config_.cacheBytes) {
  if (config_.maxQueue == 0) config_.maxQueue = 1;
}

Server::~Server() {
  pool_.reset();  // joins workers before connections are torn down
  for (const auto& conn : connections_) {
    if (conn->fd >= 0) ::close(conn->fd);
  }
  if (listenFd_ >= 0) ::close(listenFd_);
  if (wakeRead_ >= 0) ::close(wakeRead_);
  if (wakeWrite_ >= 0) ::close(wakeWrite_);
  if (!config_.unixPath.empty()) ::unlink(config_.unixPath.c_str());
}

void Server::start() {
  int pipeFds[2];
  if (::pipe(pipeFds) != 0) {
    throw support::Error("tpdfd: cannot create wake pipe: " +
                         std::string(std::strerror(errno)));
  }
  wakeRead_ = pipeFds[0];
  wakeWrite_ = pipeFds[1];
  setNonBlocking(wakeRead_);
  setNonBlocking(wakeWrite_);

  if (!config_.unixPath.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (config_.unixPath.size() >= sizeof(addr.sun_path)) {
      throw support::Error("tpdfd: unix socket path too long: " +
                           config_.unixPath);
    }
    std::strncpy(addr.sun_path, config_.unixPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd_ < 0) {
      throw support::Error("tpdfd: cannot create unix socket: " +
                           std::string(std::strerror(errno)));
    }
    ::unlink(config_.unixPath.c_str());  // stale socket from a crash
    if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      throw support::Error("tpdfd: cannot bind '" + config_.unixPath +
                           "': " + std::strerror(errno));
    }
  } else {
    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0) {
      throw support::Error("tpdfd: cannot create TCP socket: " +
                           std::string(std::strerror(errno)));
    }
    const int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
    if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
      throw support::Error("tpdfd: bad listen address: " + config_.host);
    }
    if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      throw support::Error("tpdfd: cannot bind " + config_.host + ":" +
                           std::to_string(config_.port) + ": " +
                           std::strerror(errno));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&bound),
                      &len) == 0) {
      boundPort_ = ntohs(bound.sin_port);
    }
  }
  if (::listen(listenFd_, 128) != 0) {
    throw support::Error("tpdfd: listen failed: " +
                         std::string(std::strerror(errno)));
  }
  setNonBlocking(listenFd_);
  pool_ = std::make_unique<support::ThreadPool>(
      resolveWorkers(config_.workers));
}

void Server::requestStop() {
  // Async-signal-safe: a lock-free atomic increment plus one write(2).
  stopRequests_.fetch_add(1, std::memory_order_relaxed);
  if (wakeWrite_ >= 0) {
    const char byte = 's';
    [[maybe_unused]] const auto n = ::write(wakeWrite_, &byte, 1);
  }
}

void Server::acceptReady() {
  for (;;) {
    const int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient error: try next poll round
    if (connections_.size() >= config_.maxClients) {
      ::close(fd);  // bounded accept queue: shed before any work is done
      continue;
    }
    setNonBlocking(fd);
    RequestPolicy policy;
    policy.defaultTimeoutMs = config_.requestTimeoutMs;
    policy.cancelParent = &runCancel_;
    connections_.push_back(std::make_shared<Connection>(
        fd, config_.maxLineBytes, cache_, policy));
    ++stats_.accepted;
  }
}

void Server::readReady(Connection& conn) {
  char buffer[65536];
  for (;;) {
    const ssize_t n = ::read(conn.fd, buffer, sizeof(buffer));
    if (n == 0) {  // orderly client close
      closeConnection(conn);
      return;
    }
    if (n < 0) return;  // EAGAIN (or error: surfaces as POLLERR/HUP later)
    std::vector<std::string> lines;
    if (!conn.framer.feed(std::string_view(buffer,
                                           static_cast<std::size_t>(n)),
                          lines)) {
      // Oversized line: one structured reject, then drop the connection
      // (the stream can never resynchronize on a frame boundary).
      ++stats_.rejectedOversized;
      const ClientSession::Result r =
          ClientSession::oversizedLineReject(config_.maxLineBytes);
      std::lock_guard<std::mutex> lock(ioMutex_);
      conn.outbuf += r.line;
      conn.outbuf += '\n';
      conn.closeAfterFlush = true;
      conn.pending.clear();
      return;
    }
    {
      std::lock_guard<std::mutex> lock(ioMutex_);
      conn.lastActivity = Clock::now();
      for (std::string& line : lines) conn.pending.push_back(std::move(line));
    }
    if (static_cast<std::size_t>(n) < sizeof(buffer)) return;
  }
}

void Server::dispatchPending(const std::shared_ptr<Connection>& conn) {
  std::lock_guard<std::mutex> lock(ioMutex_);
  while (!conn->inFlight && !conn->pending.empty() && !conn->closed &&
         !conn->closeAfterFlush) {
    if (inFlight_ >= config_.maxQueue) {
      // Backpressure: answer instead of queueing unboundedly.  The
      // request is NOT executed; the client sees resource-limit with a
      // server-overloaded diagnostic and may retry.
      const ClientSession::Result r =
          ClientSession::overloadedReject(config_.maxQueue);
      conn->outbuf += r.line;
      conn->outbuf += '\n';
      ++stats_.rejectedOverload;
      conn->pending.pop_front();
      continue;
    }
    std::string line = std::move(conn->pending.front());
    conn->pending.pop_front();
    conn->inFlight = true;
    ++inFlight_;
    ++stats_.requests;
    std::shared_ptr<Connection> self = conn;
    pool_->submit([this, self, line = std::move(line)]() mutable {
      const ClientSession::Result result = self->session.handle(line);
      bool wake;
      {
        std::lock_guard<std::mutex> workerLock(ioMutex_);
        if (!self->closed) {
          self->outbuf += result.line;
          self->outbuf += '\n';
          // Written here, not by the IO thread, so the reply does not
          // wait for that thread to wake.
          writeLocked(*self);
        }
        self->inFlight = false;
        --inFlight_;
        // The IO thread has work only for a line waiting on this
        // connection, bytes the socket did not take, a connection to
        // close or reap, or a drain waiting for the pool.
        wake = !self->pending.empty() || !self->outbuf.empty() ||
               self->closed || self->closeAfterFlush ||
               stopRequests_.load(std::memory_order_relaxed) > 0;
      }
      if (wake && wakeWrite_ >= 0) {
        const char byte = 'r';
        [[maybe_unused]] const auto n = ::write(wakeWrite_, &byte, 1);
      }
    });
  }
}

void Server::flushReady(Connection& conn) {
  std::lock_guard<std::mutex> lock(ioMutex_);
  writeLocked(conn);
  if (conn.outbuf.empty() && conn.closeAfterFlush) closeLocked(conn);
}

void Server::writeLocked(Connection& conn) {
  while (!conn.outbuf.empty()) {
    const ssize_t n =
        ::write(conn.fd, conn.outbuf.data(), conn.outbuf.size());
    if (n <= 0) return;  // EAGAIN or a dying socket: retry next round
    conn.outbuf.erase(0, static_cast<std::size_t>(n));
    conn.lastActivity = Clock::now();
  }
}

void Server::closeConnection(Connection& conn) {
  std::lock_guard<std::mutex> lock(ioMutex_);
  closeLocked(conn);
}

void Server::closeLocked(Connection& conn) {
  if (conn.fd >= 0) ::close(conn.fd);
  conn.fd = -1;
  conn.closed = true;
  conn.pending.clear();
}

void Server::run() {
  if (listenFd_ < 0 || pool_ == nullptr) {
    throw support::Error("tpdfd: run() before start()");
  }
  bool draining = false;
  bool hardCancelled = false;
  Clock::time_point drainStart{};

  for (;;) {
    const int stops = stopRequests_.load(std::memory_order_relaxed);
    if (stops > 0 && !draining) {
      // Graceful: refuse new connections and new requests, keep every
      // in-flight request running to its complete envelope.
      draining = true;
      drainStart = Clock::now();
      ::close(listenFd_);
      listenFd_ = -1;
    }
    if (stops > 1 && !hardCancelled) {
      // Hard: trip every in-flight budget; requests unwind promptly as
      // resource-limit envelopes and the drain below completes fast.
      hardCancelled = true;
      runCancel_.cancel();
    }

    if (!draining) {
      for (const auto& conn : connections_) dispatchPending(conn);
    }

    // Reap closed connections nobody references for work anymore.
    {
      std::lock_guard<std::mutex> lock(ioMutex_);
      connections_.erase(
          std::remove_if(connections_.begin(), connections_.end(),
                         [](const std::shared_ptr<Connection>& c) {
                           return c->closed && !c->inFlight;
                         }),
          connections_.end());
    }

    if (draining) {
      std::lock_guard<std::mutex> lock(ioMutex_);
      const bool flushed = std::all_of(
          connections_.begin(), connections_.end(),
          [](const std::shared_ptr<Connection>& c) {
            return c->closed || c->outbuf.empty();
          });
      const bool expired =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              Clock::now() - drainStart)
              .count() > config_.drainTimeoutMs;
      if ((inFlight_ == 0 && flushed) || expired) break;
    }

    std::vector<pollfd> fds;
    std::vector<std::shared_ptr<Connection>> polled;
    fds.push_back(pollfd{wakeRead_, POLLIN, 0});
    std::size_t listenSlot = static_cast<std::size_t>(-1);
    if (!draining && listenFd_ >= 0 &&
        connections_.size() < config_.maxClients) {
      listenSlot = fds.size();
      fds.push_back(pollfd{listenFd_, POLLIN, 0});
    }
    const std::size_t firstConn = fds.size();
    for (const auto& conn : connections_) {
      if (conn->closed) continue;
      short events = 0;
      if (!draining && !conn->closeAfterFlush) events |= POLLIN;
      {
        std::lock_guard<std::mutex> lock(ioMutex_);
        if (!conn->outbuf.empty()) events |= POLLOUT;
      }
      if (events == 0 && draining) continue;
      fds.push_back(pollfd{conn->fd, events, 0});
      polled.push_back(conn);
    }

    ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
           /*timeout=*/250);

    if ((fds[0].revents & POLLIN) != 0) {
      char sink[64];
      while (::read(wakeRead_, sink, sizeof(sink)) > 0) {
      }
    }
    if (listenSlot != static_cast<std::size_t>(-1) &&
        (fds[listenSlot].revents & POLLIN) != 0) {
      acceptReady();
    }
    for (std::size_t i = 0; i < polled.size(); ++i) {
      Connection& conn = *polled[i];
      if (conn.closed) continue;
      const short revents = fds[firstConn + i].revents;
      if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0 && !draining) {
        readReady(conn);
      }
      if (conn.closed) continue;
      if ((revents & (POLLOUT | POLLHUP | POLLERR)) != 0 || draining) {
        flushReady(conn);
      }
      if ((revents & (POLLHUP | POLLERR)) != 0) {
        std::lock_guard<std::mutex> lock(ioMutex_);
        if (!conn.closed && !conn.inFlight) closeLocked(conn);
      }
    }

    // Idle sweep: drop quiet connections with nothing queued or owed.
    if (config_.idleTimeoutMs > 0 && !draining) {
      const auto now = Clock::now();
      for (const auto& conn : connections_) {
        std::lock_guard<std::mutex> lock(ioMutex_);
        if (conn->closed || conn->inFlight || !conn->pending.empty() ||
            !conn->outbuf.empty() ||
            std::chrono::duration_cast<std::chrono::milliseconds>(
                now - conn->lastActivity)
                    .count() <= config_.idleTimeoutMs) {
          continue;
        }
        ++stats_.idleDisconnects;
        closeLocked(*conn);
      }
    }
  }

  // Drained (or drain deadline hit): wait out the pool, then close
  // everything.  Responses were flushed above; nothing is torn.
  pool_->wait();
  for (const auto& conn : connections_) {
    if (!conn->closed) closeConnection(*conn);
  }
  connections_.clear();
}

}  // namespace tpdf::serve
