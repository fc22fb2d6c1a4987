// End-to-end tpdfd daemon tests: a real Server on a real socket,
// driven through serve::Client.
//
// Each fixture runs the server IO loop on its own thread against a
// unix-domain socket in a per-test temp directory (one test covers the
// TCP path).  Pins the daemon's externally observable contracts:
// concurrent clients sharing the cache, deadline requests surfacing as
// resource-limit through the wire, backpressure rejects, oversized-line
// reject-then-disconnect, idle disconnects, pipelined requests answered
// in order without waiting on the IO loop's poll timeout, and the
// graceful-drain shutdown (every in-flight request still gets its full
// envelope).
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.hpp"
#include "support/error.hpp"
#include "support/json.hpp"

namespace tpdf::serve {
namespace {

std::string graphText(const std::string& tag) {
  return "graph g_" + tag +
         " {\n"
         "  kernel a { out o rates [1]; }\n"
         "  kernel b { in i rates [1]; }\n"
         "  channel c from a.o to b.i init 1;\n"
         "}\n";
}

/// A parametric graph whose sweep grid makes a usefully slow request.
std::string parametricGraphText() {
  return "graph g_param {\n"
         "  param p;\n"
         "  kernel a { out o rates [p]; }\n"
         "  kernel b { in i rates [1]; }\n"
         "  channel c from a.o to b.i init 1;\n"
         "}\n";
}

std::string analyzeRequest(const std::string& tag) {
  auto request = support::json::Value::object();
  request.set("command", "analyze");
  request.set("graph", graphText(tag));
  return request.dump();
}

std::string statusOf(const std::string& envelopeLine) {
  const support::json::Value doc = support::json::parse(envelopeLine);
  const support::json::Value* status = doc.find("status");
  return status != nullptr ? status->asString() : "";
}

std::string firstCode(const std::string& envelopeLine) {
  const support::json::Value doc = support::json::parse(envelopeLine);
  const support::json::Value* diagnostics = doc.find("diagnostics");
  if (diagnostics == nullptr || diagnostics->size() == 0) return "";
  const support::json::Value* code = diagnostics->items()[0].find("code");
  return code != nullptr ? code->asString() : "";
}

/// Owns a served daemon for one test: start(), run() on a thread, and
/// a guaranteed stop+join in the destructor.
class ServedDaemon {
 public:
  explicit ServedDaemon(ServerConfig config) : server_(std::move(config)) {
    server_.start();
    thread_ = std::thread([this] { server_.run(); });
  }

  ~ServedDaemon() { stop(); }

  void stop() {
    if (thread_.joinable()) {
      server_.requestStop();
      thread_.join();
    }
  }

  Server& server() { return server_; }

 private:
  Server server_;
  std::thread thread_;
};

class ServeServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("tpdfd_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    socket_ = (dir_ / "d.sock").string();
  }

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  ServerConfig configOn(const std::string& path) {
    ServerConfig config;
    config.unixPath = path;
    return config;
  }

  std::filesystem::path dir_;
  std::string socket_;
};

TEST_F(ServeServerTest, PingOverUnixSocket) {
  ServedDaemon daemon(configOn(socket_));
  Client client = Client::connect("unix:" + socket_);
  const std::string reply = client.request("{\"command\":\"ping\"}");
  EXPECT_EQ(statusOf(reply), "ok");
}

TEST_F(ServeServerTest, PingOverTcp) {
  ServerConfig config;  // ephemeral 127.0.0.1 port
  ServedDaemon daemon(config);
  const int port = daemon.server().boundPort();
  ASSERT_GT(port, 0);
  Client client =
      Client::connect("tcp:127.0.0.1:" + std::to_string(port));
  EXPECT_EQ(statusOf(client.request("{\"command\":\"ping\"}")), "ok");
}

TEST_F(ServeServerTest, ConcurrentClientsShareTheCache) {
  ServedDaemon daemon(configOn(socket_));
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kRequests = 10;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, this] {
      try {
        Client client = Client::connect(socket_);
        for (std::size_t i = 0; i < kRequests; ++i) {
          if (statusOf(client.request(analyzeRequest("shared"))) != "ok") {
            failures.fetch_add(1);
          }
        }
      } catch (const support::Error&) {
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Identical text everywhere: exactly one miss, everything else hits.
  const CacheStats stats = daemon.server().cache().stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, kClients * kRequests - 1);
}

TEST_F(ServeServerTest, WorkBudgetSurfacesAsResourceLimitOverTheWire) {
  ServedDaemon daemon(configOn(socket_));
  Client client = Client::connect(socket_);
  auto request = support::json::Value::object();
  request.set("command", "analyze");
  request.set("graph", graphText("deadline"));
  auto limits = support::json::Value::object();
  limits.set("max-work", static_cast<std::int64_t>(1));
  request.set("limits", std::move(limits));
  const std::string reply = client.request(request.dump());
  EXPECT_EQ(statusOf(reply), "resource-limit");
  EXPECT_EQ(firstCode(reply), "resource-limit");
}

TEST_F(ServeServerTest, OverloadRejectsWithServerOverloaded) {
  ServerConfig config = configOn(socket_);
  config.maxQueue = 1;  // one in-flight request serverwide
  ServedDaemon daemon(config);

  // Occupy the only queue slot with a deliberately slow request (a wide
  // sweep grid over a parametric graph).
  Client slow = Client::connect(socket_);
  auto request = support::json::Value::object();
  request.set("command", "sweep");
  request.set("graph", parametricGraphText());
  auto axes = support::json::Value::object();
  axes.set("p", "1:4096");
  request.set("axes", std::move(axes));
  request.set("max-points", static_cast<std::int64_t>(1 << 20));
  slow.send(request.dump());

  // While it runs, every other client's request must be rejected — not
  // queued, not executed — with the documented retry-safe envelope.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  Client fast = Client::connect(socket_);
  const std::string reply = fast.request("{\"command\":\"ping\"}");
  EXPECT_EQ(statusOf(reply), "resource-limit");
  EXPECT_EQ(firstCode(reply), "server-overloaded");

  // The slow request itself still completes normally.
  EXPECT_EQ(statusOf(slow.receive()), "ok");
}

TEST_F(ServeServerTest, OversizedLineRejectsThenDisconnects) {
  ServerConfig config = configOn(socket_);
  config.maxLineBytes = 256;
  ServedDaemon daemon(config);
  Client client = Client::connect(socket_);
  const std::string reply =
      client.request("{\"command\":\"analyze\",\"graph\":\"" +
                     std::string(1024, 'x') + "\"}");
  EXPECT_EQ(statusOf(reply), "invalid-request");
  EXPECT_EQ(firstCode(reply), "oversized-line");
  // The stream cannot be resynchronized: the server closes after the
  // reject envelope.
  EXPECT_THROW(client.receive(), support::Error);
}

TEST_F(ServeServerTest, IdleConnectionsAreDropped) {
  ServerConfig config = configOn(socket_);
  config.idleTimeoutMs = 100;
  ServedDaemon daemon(config);
  Client client = Client::connect(socket_);
  EXPECT_EQ(statusOf(client.request("{\"command\":\"ping\"}")), "ok");
  // Stay silent past the idle bound: the server hangs up (EOF here).
  EXPECT_THROW(client.receive(), support::Error);
}

TEST_F(ServeServerTest, PipelinedRequestsAreAnsweredInOrderWithoutStalls) {
  ServedDaemon daemon(configOn(socket_));
  Client client = Client::connect(socket_);
  // Workers write replies straight to the socket and wake the IO loop
  // only when a line is waiting; a line that arrives while its
  // predecessor runs must still be dispatched at once, not when the
  // loop's 250 ms poll timeout next fires (40 such stalls take 10 s).
  constexpr int kRequests = 40;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kRequests; ++i) {
    client.send(analyzeRequest("p" + std::to_string(i)));
  }
  for (int i = 0; i < kRequests; ++i) {
    const support::json::Value doc = support::json::parse(client.receive());
    ASSERT_EQ(doc.find("status")->asString(), "ok");
    EXPECT_EQ(doc.find("report")->find("graph")->asString(),
              "g_p" + std::to_string(i));
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
}

TEST_F(ServeServerTest, GracefulShutdownDrainsInFlightRequests) {
  ServerConfig config = configOn(socket_);
  // The in-flight sweep below runs ~10x slower under sanitizers; the
  // drain bound must not fire before it completes.
  config.drainTimeoutMs = 300000;
  ServedDaemon daemon(config);
  Client client = Client::connect(socket_);

  // A slow request in flight when the stop lands.
  auto request = support::json::Value::object();
  request.set("command", "sweep");
  request.set("graph", parametricGraphText());
  auto axes = support::json::Value::object();
  axes.set("p", "1:2048");
  request.set("axes", std::move(axes));
  request.set("max-points", static_cast<std::int64_t>(1 << 20));
  client.send(request.dump());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  daemon.server().requestStop();

  // The in-flight request still gets its complete envelope before the
  // server goes away — no torn response, no dropped request.
  const std::string reply = client.receive();
  EXPECT_EQ(statusOf(reply), "ok");
  daemon.stop();  // run() returns once the drain finished

  // New connections are refused after shutdown.
  EXPECT_THROW(Client::connect(socket_), support::Error);
}

TEST_F(ServeServerTest, ServerStatsCountTraffic) {
  ServerConfig config = configOn(socket_);
  config.maxLineBytes = 256;
  ServedDaemon daemon(config);
  {
    Client client = Client::connect(socket_);
    EXPECT_EQ(statusOf(client.request("{\"command\":\"ping\"}")), "ok");
    EXPECT_EQ(statusOf(client.request(analyzeRequest("stats"))), "ok");
  }
  {
    Client client = Client::connect(socket_);
    client.request("{\"command\":\"analyze\",\"graph\":\"" +
                   std::string(1024, 'x') + "\"}");
  }
  daemon.stop();
  const ServerStats& stats = daemon.server().stats();
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.rejectedOversized, 1u);
}

}  // namespace
}  // namespace tpdf::serve
