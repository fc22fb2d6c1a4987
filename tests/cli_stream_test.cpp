// The streamed renderers against their adapters, through the real tools.
//
// `tpdfc --json` and `tpdfd` write every response straight into their
// envelope through support::json::Writer; the `toJson()` adapters parse
// that same output back into a Value.  For every corpus graph and every
// tpdfc command this suite checks that three renderings agree byte for
// byte (with `elapsedMs`, `graphId` and the `serve` block masked):
//   * the envelope the tpdfc binary prints,
//   * the compact line a tpdfd ClientSession answers for the same
//     request (what `--connect` sends),
//   * the envelope rebuilt in-process from the response's toJson()
//     adapter, via Value::pretty() and Value::dump().
// It also pins tpdfc's exit code 3 on an unwritable stdout and valid
// UTF-8 output for file names that are not.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <regex>
#include <sstream>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "api/requests.hpp"
#include "api/session.hpp"
#include "api/version.hpp"
#include "io/format.hpp"
#include "serve/cache.hpp"
#include "serve/protocol.hpp"
#include "support/json.hpp"

namespace tpdf {
namespace {

namespace fs = std::filesystem;
using support::json::Value;

const fs::path kGraphs = fs::path(TPDF_SOURCE_DIR) / "examples" / "graphs";

struct Outcome {
  int exitCode = -1;
  std::string out;
};

/// Runs tpdfc with `args`; stdout goes to `stdoutPath` when given,
/// otherwise it is captured.
Outcome tpdfc(const std::vector<std::string>& args,
              const std::string& stdoutPath = "") {
  int pipeFds[2];
  if (pipe(pipeFds) != 0) return {};
  const pid_t pid = fork();
  if (pid == 0) {
    const int target = stdoutPath.empty()
                           ? pipeFds[1]
                           : open(stdoutPath.c_str(), O_WRONLY | O_TRUNC);
    dup2(target, STDOUT_FILENO);
    const int devNull = open("/dev/null", O_WRONLY);
    dup2(devNull, STDERR_FILENO);
    close(pipeFds[0]);
    std::vector<char*> argv{const_cast<char*>(TPDF_TPDFC_PATH)};
    for (const std::string& a : args) {
      argv.push_back(const_cast<char*>(a.c_str()));
    }
    argv.push_back(nullptr);
    execv(TPDF_TPDFC_PATH, argv.data());
    _exit(127);
  }
  close(pipeFds[1]);
  Outcome run;
  char buf[65536];
  ssize_t n = 0;
  while ((n = read(pipeFds[0], buf, sizeof(buf))) > 0) {
    run.out.append(buf, static_cast<std::size_t>(n));
  }
  close(pipeFds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  run.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

/// Masks the members that name the run or the transport, in either
/// layout: elapsedMs, graphId (tpdfd keys graphs by content hash) and
/// the trailing tpdfd `serve` block.
std::string masked(std::string text) {
  static const std::regex elapsed(R"("elapsedMs": ?[-0-9.e+]+)");
  static const std::regex graphId(R"("graphId": ?"[^"]*")");
  static const std::regex serve(R"(,"serve":\{[^}]*\})");
  text = std::regex_replace(text, elapsed, "\"elapsedMs\":0");
  text = std::regex_replace(text, graphId, "\"graphId\":\"\"");
  return std::regex_replace(text, serve, "");
}

std::string readFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// {"tool", "version", "command"} followed by the members of `body`.
Value envelope(const std::string& tool, const std::string& command,
               const Value& body) {
  auto doc = Value::object();
  doc.set("tool", tool);
  doc.set("version", api::version().semver);
  doc.set("command", command);
  for (const auto& [key, value] : body.members()) doc.set(key, value);
  return doc;
}

/// The response document of `request` run in-process, from its toJson()
/// adapter; `graphFile` is loaded first unless the command reads a corpus.
Value adapterDoc(api::Request request, const fs::path& graphFile) {
  api::Session session;
  std::string id;
  if (!graphFile.empty()) id = session.load({graphFile.string(), "", ""}).id;
  const graph::Graph* g = session.graph(id);
  return std::visit(
      [&](auto& r) -> Value {
        if constexpr (requires { r.graphId; }) r.graphId = id;
        using R = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<R, api::AnalyzeRequest>) {
          return session.analyze(r).toJson(g);
        } else if constexpr (std::is_same_v<R, api::ScheduleRequest>) {
          return session.schedule(r).toJson(g);
        } else if constexpr (std::is_same_v<R, api::BufferRequest>) {
          return session.buffers(r).toJson(g);
        } else if constexpr (std::is_same_v<R, api::MapRequest>) {
          return session.map(r).toJson();
        } else if constexpr (std::is_same_v<R, api::SimulateRequest>) {
          return session.simulate(r).toJson(g);
        } else if constexpr (std::is_same_v<R, api::SweepRequest>) {
          return session.sweep(r).toJson();
        } else if constexpr (std::is_same_v<R, api::BatchRequest>) {
          return session.batch(r).toJson();
        } else {
          return session.verify(r).toJson();
        }
      },
      request);
}

/// One tpdfc invocation: subcommand, input and request words.
struct Case {
  std::string command;  // tpdfc spelling
  fs::path input;
  std::vector<std::string> args;
};

/// The wire command of a tpdfc subcommand.
std::string wireCommand(const std::string& command) {
  return command == "sim" ? "simulate" : command;
}

/// Checks the three renderings of `c` against each other.
void expectAllRenderingsAgree(const Case& c) {
  SCOPED_TRACE(c.command + " " + c.input.string());
  const std::string wire = wireCommand(c.command);
  Value doc;
  std::string error;
  ASSERT_TRUE(api::argvToJson(wire, c.input.string(), c.args, doc, error))
      << error;
  std::optional<api::Request> request = api::requestFor(wire);
  ASSERT_TRUE(request.has_value());
  api::Response bad;
  api::fromJson(doc, *request, bad);
  ASSERT_TRUE(bad.ok()) << bad.firstError();
  const bool corpus = c.command == "batch" || c.command == "verify";
  const Value body = adapterDoc(*request, corpus ? fs::path() : c.input);

  // tpdfc --json streams what the adapter's pretty() prints.
  std::vector<std::string> argv{c.command, c.input.string()};
  argv.insert(argv.end(), c.args.begin(), c.args.end());
  argv.push_back("--json");
  const Outcome streamed = tpdfc(argv);
  EXPECT_EQ(masked(streamed.out),
            masked(envelope("tpdfc", c.command, body).pretty()));
  const Value* status = body.find("status");
  ASSERT_NE(status, nullptr);
  EXPECT_EQ(streamed.exitCode,
            api::exitCode(*api::statusFromString(status->asString())));

  // tpdfd writes the same members compact into its reply line.
  serve::GraphCache cache(8, 0);
  serve::ClientSession session(cache, serve::RequestPolicy{});
  Value line = api::toJson(*request);
  if (!corpus) line.set("graph", readFile(c.input));
  EXPECT_EQ(masked(session.handle(line.dump()).line),
            masked(envelope("tpdfd", wire, body).dump()));
}

/// {"p=1:2", ...}: every parameter of the graph swept over two values.
std::vector<std::string> sweepAxes(const fs::path& file) {
  api::Session session;
  const api::LoadResponse loaded = session.load({file.string(), "", ""});
  std::vector<std::string> axes;
  for (const std::string& p : loaded.params) axes.push_back(p + "=1:2");
  return axes;
}

std::vector<fs::path> corpusGraphs() {
  std::vector<fs::path> files;
  for (const fs::path& dir : {kGraphs, kGraphs / "scenarios"}) {
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (entry.path().extension() == ".tpdf") files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(CliStream, EveryGraphCommandAgreesAcrossRenderings) {
  const std::vector<fs::path> files = corpusGraphs();
  ASSERT_GE(files.size(), 20u);
  // The work cap keeps the large scenario graphs quick; the ones that
  // trip it compare their resource-limit envelopes instead.
  const std::vector<std::string> cap{"--max-work", "200000"};
  for (const fs::path& file : files) {
    for (const std::string command : {"analyze", "schedule", "map", "sim"}) {
      expectAllRenderingsAgree({command, file, cap});
    }
    std::vector<std::string> sweep = sweepAxes(file);
    if (sweep.empty()) continue;
    sweep.insert(sweep.end(), {"--jobs", "2", "--link-bw", "1,4"});
    sweep.insert(sweep.end(), cap.begin(), cap.end());
    expectAllRenderingsAgree({"sweep", file, sweep});
  }
}

TEST(CliStream, PlatformAndTraceVariantsAgreeAcrossRenderings) {
  const fs::path ofdm = kGraphs / "ofdm.tpdf";
  expectAllRenderingsAgree(
      {"map", ofdm, {"b=2", "N=16", "L=2", "--platform", "mesh:2x2,bw=2"}});
  expectAllRenderingsAgree(
      {"sim", ofdm, {"b=2", "N=16", "L=2", "--platform", "bus:4,bw=1"}});
  expectAllRenderingsAgree({"sim", kGraphs / "quickstart.tpdf", {"--trace"}});
  expectAllRenderingsAgree(
      {"schedule", kGraphs / "quickstart.tpdf", {"p=4", "--no-buffers"}});
  expectAllRenderingsAgree({"sweep", kGraphs / "quickstart.tpdf", {"p=9:3"}});
}

TEST(CliStream, CorpusCommandsAgreeAcrossRenderings) {
  expectAllRenderingsAgree({"batch", kGraphs, {"--jobs", "2"}});
  expectAllRenderingsAgree(
      {"batch", kGraphs / "scenarios", {"--max-work", "1"}});
  expectAllRenderingsAgree({"verify", kGraphs, {}});
  expectAllRenderingsAgree(
      {"verify", kGraphs / "fig1.tpdf", {"--negative-selftest"}});
}

TEST(CliStream, LocalCommandsStreamTheirDocuments) {
  // dot, echo and version have no wire command; their envelopes are
  // compared with the same documents built as Values.
  api::Session session;
  for (const fs::path& file : corpusGraphs()) {
    SCOPED_TRACE(file.string());
    const std::string id = session.load({file.string(), "", ""}).id;
    const graph::Graph& g = *session.graph(id);
    auto dot = Value::object();
    dot.set("status", "ok");
    dot.set("diagnostics", Value::array());
    dot.set("dot", g.toDot());
    EXPECT_EQ(tpdfc({"dot", file.string(), "--json"}).out,
              envelope("tpdfc", "dot", dot).pretty());
    auto echo = Value::object();
    echo.set("status", "ok");
    echo.set("diagnostics", Value::array());
    echo.set("tpdf", io::writeGraph(g));
    echo.set("graph", io::toJson(g));
    EXPECT_EQ(tpdfc({"echo", file.string(), "--json"}).out,
              envelope("tpdfc", "echo", echo).pretty());
  }
  auto version = Value::object();
  version.set("status", "ok");
  version.set("diagnostics", Value::array());
  version.set("release", api::version().toJson());
  EXPECT_EQ(tpdfc({"version", "--json"}).out,
            envelope("tpdfc", "version", version).pretty());
}

TEST(CliOutput, WriteErrorOnStdoutExitsThree) {
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full on this system";
  const std::string fig1 = (kGraphs / "fig1.tpdf").string();
  EXPECT_EQ(tpdfc({"analyze", fig1, "--json"}, "/dev/full").exitCode, 3);
  EXPECT_EQ(tpdfc({"analyze", fig1}, "/dev/full").exitCode, 3);
  // Larger than stdio's buffer, so the failure surfaces mid-stream.
  EXPECT_EQ(tpdfc({"echo", (kGraphs / "ofdm.tpdf").string(), "--json"},
                  "/dev/full")
                .exitCode,
            3);
  // The same commands succeed when stdout is writable.
  EXPECT_EQ(tpdfc({"analyze", fig1, "--json"}, "/dev/null").exitCode, 0);
}

TEST(CliOutput, IllFormedUtf8FileNameStaysValidJson) {
  const fs::path dir = fs::temp_directory_path() /
                       ("tpdf_cli_utf8_" + std::to_string(getpid()));
  fs::create_directories(dir);
  const fs::path file = dir / "bad\xFFname.tpdf";
  std::ofstream(file) << "graph broken {";
  const Outcome run = tpdfc({"analyze", file.string(), "--json"});
  fs::remove_all(dir);
  EXPECT_EQ(run.exitCode, 3);
  const Value doc = support::json::parse(run.out);
  const Value& diagnostic = doc.find("diagnostics")->items().at(0);
  EXPECT_EQ(diagnostic.find("code")->asString(), "parse-error");
  EXPECT_NE(diagnostic.find("file")->asString().find("bad\xEF\xBF\xBDname"),
            std::string::npos);
}

TEST(CliOutput, ReadTimeModelErrorNamesItsLine) {
  const fs::path file = fs::temp_directory_path() /
                        ("tpdf_cli_dup_" + std::to_string(getpid()) +
                         ".tpdf");
  std::ofstream(file) << "graph dup {\n  kernel A { }\n\n  kernel A { }\n}\n";
  const Outcome run = tpdfc({"analyze", file.string(), "--json"});
  fs::remove(file);
  EXPECT_EQ(run.exitCode, 3);
  const Value doc = support::json::parse(run.out);
  const Value& diagnostic = doc.find("diagnostics")->items().at(0);
  EXPECT_EQ(diagnostic.find("code")->asString(), "model-error");
  EXPECT_EQ(diagnostic.find("message")->asString(),
            "duplicate actor name 'A'");
  EXPECT_EQ(diagnostic.find("line")->asInt(), 4);
  EXPECT_EQ(diagnostic.find("column")->asInt(), 3);
}

}  // namespace
}  // namespace tpdf
