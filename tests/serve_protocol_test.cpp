// Wire protocol: framing and request handling of the tpdfd daemon.
//
// The fuzz half of this suite hammers LineFramer and
// ClientSession::handle with truncated, interleaved, oversized and
// malformed inputs: the contract is that nothing crashes or hangs —
// every byte sequence either frames into lines or latches overflow,
// and every framed line yields exactly one envelope (malformed JSON a
// positioned `invalid-request` one).
#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "api/requests.hpp"
#include "serve/cache.hpp"
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

support::json::Value parseEnvelope(const ClientSession::Result& result) {
  support::json::Value doc = support::json::parse(result.line);
  EXPECT_TRUE(doc.isObject());
  const support::json::Value* tool = doc.find("tool");
  EXPECT_NE(tool, nullptr);
  if (tool != nullptr) {
    EXPECT_EQ(tool->asString(), "tpdfd");
  }
  EXPECT_NE(doc.find("status"), nullptr);
  EXPECT_NE(doc.find("diagnostics"), nullptr);
  return doc;
}

std::string firstCode(const support::json::Value& envelope) {
  const support::json::Value* diagnostics = envelope.find("diagnostics");
  if (diagnostics == nullptr || diagnostics->size() == 0) return "";
  const support::json::Value* code = diagnostics->items()[0].find("code");
  return code != nullptr ? code->asString() : "";
}

// ---- framing ------------------------------------------------------

TEST(LineFramer, ReassemblesInterleavedPartialWrites) {
  LineFramer framer(0);
  std::vector<std::string> lines;
  EXPECT_TRUE(framer.feed("{\"command\"", lines));
  EXPECT_TRUE(lines.empty());
  EXPECT_GT(framer.buffered(), 0u);
  EXPECT_TRUE(framer.feed(":\"ping\"}\n{\"x\":", lines));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "{\"command\":\"ping\"}");
  EXPECT_TRUE(framer.feed("1}\n", lines));
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[1], "{\"x\":1}");
}

TEST(LineFramer, StripsCarriageReturnAndSkipsBlankLines) {
  LineFramer framer(0);
  std::vector<std::string> lines;
  EXPECT_TRUE(framer.feed("a\r\n\n\r\nb\n", lines));
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "a");
  EXPECT_EQ(lines[1], "b");
}

TEST(LineFramer, OversizedLineLatchesAndStopsBuffering) {
  LineFramer framer(8);
  std::vector<std::string> lines;
  EXPECT_TRUE(framer.feed("short\n", lines));
  EXPECT_FALSE(framer.feed("0123456789", lines));  // exceeds 8, no '\n' yet
  EXPECT_TRUE(framer.overflowed());
  // Latched: nothing accumulates, later newlines do not unlatch.
  EXPECT_FALSE(framer.feed("more\nlines\n", lines));
  EXPECT_TRUE(framer.overflowed());
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_LE(framer.buffered(), 8u);
}

TEST(LineFramer, FuzzArbitraryChunkingNeverLosesBytes) {
  // The same byte stream, fed in every chunking the PRNG produces, must
  // always frame into the same lines.
  const std::string stream =
      "{\"command\":\"ping\"}\n\r\n{\"command\":\"stats\"}\r\nxyz\n";
  std::vector<std::string> expected;
  {
    LineFramer whole(0);
    EXPECT_TRUE(whole.feed(stream, expected));
  }
  std::mt19937 rng(0xC0FFEE);
  for (int round = 0; round < 200; ++round) {
    LineFramer framer(0);
    std::vector<std::string> lines;
    std::size_t offset = 0;
    while (offset < stream.size()) {
      std::uniform_int_distribution<std::size_t> pick(
          1, stream.size() - offset);
      const std::size_t n = pick(rng);
      EXPECT_TRUE(
          framer.feed(std::string_view(stream).substr(offset, n), lines));
      offset += n;
    }
    EXPECT_EQ(lines, expected);
  }
}

// ---- request handling ---------------------------------------------

class ServeProtocolTest : public ::testing::Test {
 protected:
  GraphCache cache_{8, 0};
  ClientSession session_{cache_, RequestPolicy{}};

  ClientSession::Result handle(const std::string& line) {
    return session_.handle(line);
  }
};

TEST_F(ServeProtocolTest, PingAnswersOk) {
  const ClientSession::Result result = handle("{\"command\":\"ping\"}");
  EXPECT_EQ(result.status, api::Status::Ok);
  EXPECT_EQ(result.command, "ping");
  parseEnvelope(result);
}

TEST_F(ServeProtocolTest, MalformedJsonIsPositionedInvalidRequest) {
  const ClientSession::Result result = handle("{\"command\": oops}");
  EXPECT_EQ(result.status, api::Status::InvalidRequest);
  const support::json::Value envelope = parseEnvelope(result);
  EXPECT_EQ(firstCode(envelope), "invalid-request");
  // The parse position points into the request line itself.
  const support::json::Value* diagnostics = envelope.find("diagnostics");
  const support::json::Value* line = diagnostics->items()[0].find("line");
  const support::json::Value* column = diagnostics->items()[0].find("column");
  ASSERT_NE(line, nullptr);
  ASSERT_NE(column, nullptr);
  EXPECT_EQ(line->asInt(), 1);
  EXPECT_GT(column->asInt(), 1);
}

TEST_F(ServeProtocolTest, DuplicateKeysAreInvalidRequest) {
  // With last-one-wins parsing this line used to run map.
  const ClientSession::Result result =
      handle("{\"command\":\"analyze\",\"command\":\"map\"}");
  EXPECT_EQ(result.status, api::Status::InvalidRequest);
  EXPECT_EQ(result.command, "");
  const support::json::Value envelope = parseEnvelope(result);
  EXPECT_EQ(firstCode(envelope), "invalid-request");
  const support::json::Value& d = envelope.find("diagnostics")->items()[0];
  EXPECT_NE(d.find("message")->asString().find("\"command\""),
            std::string::npos);
  EXPECT_EQ(d.find("line")->asInt(), 1);
  EXPECT_EQ(d.find("column")->asInt(), 22);
  // Nested request fields are checked too.
  EXPECT_EQ(handle("{\"command\":\"analyze\",\"graph\":\"g\","
                   "\"bindings\":{\"p\":2,\"p\":3}}")
                .status,
            api::Status::InvalidRequest);
}

TEST_F(ServeProtocolTest, NonObjectAndMissingCommandAreRejected) {
  EXPECT_EQ(handle("[1,2,3]").status, api::Status::InvalidRequest);
  EXPECT_EQ(handle("\"ping\"").status, api::Status::InvalidRequest);
  EXPECT_EQ(handle("{}").status, api::Status::InvalidRequest);
  EXPECT_EQ(handle("{\"command\":7}").status, api::Status::InvalidRequest);
  EXPECT_EQ(handle("{\"command\":\"no-such\"}").status,
            api::Status::InvalidRequest);
}

TEST_F(ServeProtocolTest, AnalyzeInlineGraphCarriesServeBlock) {
  auto request = support::json::Value::object();
  request.set("command", "analyze");
  request.set("graph", graphText("inline"));
  const ClientSession::Result result = handle(request.dump());
  EXPECT_EQ(result.status, api::Status::Ok);
  const support::json::Value envelope = parseEnvelope(result);
  const support::json::Value* serve = envelope.find("serve");
  ASSERT_NE(serve, nullptr);
  ASSERT_NE(serve->find("cached"), nullptr);
  EXPECT_FALSE(serve->find("cached")->asBool());
  ASSERT_NE(serve->find("analysisUs"), nullptr);

  // Same text again: served from the shared cache.
  const ClientSession::Result again = handle(request.dump());
  EXPECT_TRUE(
      parseEnvelope(again).find("serve")->find("cached")->asBool());
}

TEST_F(ServeProtocolTest, GraphReferencesAreMutuallyExclusive) {
  auto request = support::json::Value::object();
  request.set("command", "analyze");
  request.set("graph", graphText("x"));
  request.set("id", "g_x");
  const ClientSession::Result result = handle(request.dump());
  EXPECT_EQ(result.status, api::Status::InvalidRequest);
}

TEST_F(ServeProtocolTest, UnknownIdIsInvalidRequest) {
  const ClientSession::Result result =
      handle("{\"command\":\"analyze\",\"id\":\"nope\"}");
  EXPECT_EQ(result.status, api::Status::InvalidRequest);
  EXPECT_EQ(firstCode(parseEnvelope(result)), "unknown-graph");
}

TEST_F(ServeProtocolTest, LoadThenAnalyzeByIdThenErase) {
  auto load = support::json::Value::object();
  load.set("command", "load");
  load.set("graph", graphText("loaded"));
  load.set("id", "mine");
  EXPECT_EQ(handle(load.dump()).status, api::Status::Ok);

  EXPECT_EQ(handle("{\"command\":\"analyze\",\"id\":\"mine\"}").status,
            api::Status::Ok);
  EXPECT_EQ(handle("{\"command\":\"erase\",\"id\":\"mine\"}").status,
            api::Status::Ok);
  EXPECT_EQ(handle("{\"command\":\"analyze\",\"id\":\"mine\"}").status,
            api::Status::InvalidRequest);
}

TEST_F(ServeProtocolTest, SessionNamespacesAreIsolated) {
  auto load = support::json::Value::object();
  load.set("command", "load");
  load.set("graph", graphText("private"));
  load.set("id", "mine");
  EXPECT_EQ(handle(load.dump()).status, api::Status::Ok);

  // A different client cannot see the first client's ids.
  ClientSession other(cache_, RequestPolicy{});
  EXPECT_EQ(other.handle("{\"command\":\"analyze\",\"id\":\"mine\"}").status,
            api::Status::InvalidRequest);
}

TEST_F(ServeProtocolTest, BadParseInInlineGraphIsPositionedParseError) {
  auto request = support::json::Value::object();
  request.set("command", "analyze");
  request.set("graph", "graph oops {\n  kernel a {\n");
  const ClientSession::Result result = handle(request.dump());
  EXPECT_EQ(result.status, api::Status::InputError);
  EXPECT_EQ(firstCode(parseEnvelope(result)), "parse-error");
}

TEST_F(ServeProtocolTest, NonPositiveBindingIsInvalidRequest) {
  auto request = support::json::Value::object();
  request.set("command", "analyze");
  request.set("graph", graphText("bind"));
  auto bindings = support::json::Value::object();
  bindings.set("p", static_cast<std::int64_t>(-3));
  request.set("bindings", std::move(bindings));
  EXPECT_EQ(handle(request.dump()).status, api::Status::InvalidRequest);
}

TEST_F(ServeProtocolTest, WorkBudgetSurfacesAsResourceLimit) {
  auto request = support::json::Value::object();
  request.set("command", "analyze");
  request.set("graph", graphText("budget"));
  auto limits = support::json::Value::object();
  limits.set("max-work", static_cast<std::int64_t>(1));
  request.set("limits", std::move(limits));
  const ClientSession::Result result = handle(request.dump());
  EXPECT_EQ(result.status, api::Status::ResourceLimit);
  EXPECT_EQ(firstCode(parseEnvelope(result)), "resource-limit");
}

TEST_F(ServeProtocolTest, RejectEnvelopesAreWellFormed) {
  const ClientSession::Result oversized =
      ClientSession::oversizedLineReject(1024);
  EXPECT_EQ(oversized.status, api::Status::InvalidRequest);
  EXPECT_EQ(firstCode(parseEnvelope(oversized)), "oversized-line");

  const ClientSession::Result overloaded =
      ClientSession::overloadedReject(64);
  EXPECT_EQ(overloaded.status, api::Status::ResourceLimit);
  EXPECT_EQ(firstCode(parseEnvelope(overloaded)), "server-overloaded");
}

// ---- one request schema: the document tpdfc builds, over the wire ----

std::string example(const std::string& name) {
  return std::string(TPDF_SOURCE_DIR) + "/examples/graphs/" + name;
}

std::string readText(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// One tpdfc invocation: wire command, input and request words.
struct CliCase {
  std::string command;
  std::string input;
  std::vector<std::string> args;
};

/// The request `tpdfc <command> <input> <args>` executes in-process.
api::Request cliRequest(const CliCase& c) {
  support::json::Value doc;
  std::string error;
  EXPECT_TRUE(api::argvToJson(c.command, c.input, c.args, doc, error))
      << error;
  std::optional<api::Request> request = api::requestFor(c.command);
  EXPECT_TRUE(request.has_value());
  api::Response bad;
  api::fromJson(doc, *request, bad);
  EXPECT_TRUE(bad.ok()) << bad.firstError();
  return *request;
}

/// `doc`'s member `key`; "group.key" looks inside the "group" object.
const support::json::Value* member(const support::json::Value& doc,
                                   const std::string& key) {
  const std::size_t dot = key.find('.');
  if (dot == std::string::npos) return doc.find(key);
  const support::json::Value* group = doc.find(key.substr(0, dot));
  return group == nullptr ? nullptr : group->find(key.substr(dot + 1));
}

bool isCorpus(const std::string& command) {
  return command == "batch" || command == "verify";
}

/// The members that name the transport or the run, not the answer.
support::json::Value masked(const support::json::Value& doc) {
  if (doc.isArray()) {
    auto out = support::json::Value::array();
    for (const support::json::Value& item : doc.items()) out.push(masked(item));
    return out;
  }
  if (!doc.isObject()) return doc;
  auto out = support::json::Value::object();
  for (const auto& [key, value] : doc.members()) {
    if (key != "tool" && key != "version" && key != "command" &&
        key != "serve" && key != "graphId" && key != "elapsedMs") {
      out.set(key, masked(value));
    }
  }
  return out;
}

/// What tpdfc prints in-process for `request` (its envelope, masked).
support::json::Value runLocal(api::Request request, const std::string& text) {
  api::Session session;
  const std::string id = text.empty() ? "" : session.load({"", text, ""}).id;
  const graph::Graph* g = session.graph(id);
  return masked(std::visit(
      [&](auto& r) -> support::json::Value {
        using R = std::decay_t<decltype(r)>;
        if constexpr (requires { r.graphId; }) r.graphId = id;
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
      request));
}

/// Every command with the flags --connect used to drop.
const std::vector<CliCase>& cliCases() {
  static const std::vector<CliCase> cases = {
      {"analyze", example("fig1.tpdf"), {}},
      {"analyze", example("quickstart.tpdf"), {"p=3", "--max-work", "100000"}},
      {"schedule",
       example("quickstart.tpdf"),
       {"p=4", "--policy", "min-occupancy", "--no-buffers"}},
      {"map",
       example("quickstart.tpdf"),
       {"pes=2", "--platform", "bus:2,bw=1"}},
      {"simulate",
       example("quickstart.tpdf"),
       {"--iterations", "3", "--trace", "--max-firings", "100000"}},
      {"sweep",
       example("quickstart.tpdf"),
       {"p=1:4", "--analysis-only", "--jobs", "1", "--cap", "3"}},
      {"sweep",
       example("fig2.tpdf"),
       {"p=1,2", "--link-bw", "1,4", "--topologies", "bus:2;ring:2",
        "--jobs", "1", "--timeout-ms", "60000"}},
      {"batch", example(""), {"--jobs", "1", "p=2"}},
      {"verify", example("fig1.tpdf"), {"--negative-selftest"}},
      {"verify", example("fig1.tpdf"), {"--iterations", "3"}},
      {"verify", example("fig1.tpdf"), {"--fault-sweep", "--fault-cap", "3"}},
  };
  return cases;
}

TEST(RequestSchema, ArgvToRequestToJsonRoundTripsFieldForField) {
  for (const CliCase& c : cliCases()) {
    SCOPED_TRACE(c.command);
    const support::json::Value sent = api::toJson(cliRequest(c));
    std::optional<api::Request> received = api::requestFor(c.command);
    api::Response bad;
    api::fromJson(sent, *received, bad);
    EXPECT_TRUE(bad.ok()) << bad.firstError();
    EXPECT_EQ(api::toJson(*received), sent);
    // Defaults included: every row of the command's table is sent.
    for (const api::FieldInfo& f : api::fieldsOf(c.command)) {
      EXPECT_NE(member(sent, f.key), nullptr) << f.key;
    }
  }
}

TEST(RequestSchema, DefaultRequestsRoundTripAndKeysAreDeclaredOnce) {
  for (const std::string command : {"analyze", "schedule", "buffers", "map",
                                    "simulate", "sweep", "batch", "verify"}) {
    SCOPED_TRACE(command);
    std::optional<api::Request> request = api::requestFor(command);
    ASSERT_TRUE(request.has_value());
    const support::json::Value doc = api::toJson(*request);
    EXPECT_EQ(doc.find("command")->asString(), command);
    std::optional<api::Request> back = api::requestFor(command);
    api::Response bad;
    api::fromJson(doc, *back, bad);
    EXPECT_TRUE(bad.ok()) << bad.firstError();
    EXPECT_EQ(api::toJson(*back), doc);
    std::set<std::string> keys;
    for (const api::FieldInfo& f : api::fieldsOf(command)) {
      EXPECT_TRUE(keys.insert(f.key).second) << f.key;
      const support::json::Value* sent = member(doc, f.key);
      ASSERT_NE(sent, nullptr) << f.key;
      EXPECT_EQ(*sent, f.defaultValue) << f.key;
    }
  }
  EXPECT_FALSE(api::requestFor("load").has_value());
  EXPECT_FALSE(api::requestFor("sim").has_value());
}

TEST(RequestSchema, DocsTableListsEveryField) {
  // docs/tpdfd.md's field table is written by hand; it must name every
  // row of every command's table.
  const std::string docs =
      readText(std::string(TPDF_SOURCE_DIR) + "/docs/tpdfd.md");
  for (const std::string command : {"analyze", "schedule", "buffers", "map",
                                    "simulate", "sweep", "batch", "verify"}) {
    for (const api::FieldInfo& f : api::fieldsOf(command)) {
      EXPECT_NE(docs.find("| `" + f.key + "` | "), std::string::npos)
          << command << " " << f.key;
    }
  }
}

TEST(RequestSchema, ArgvErrorsNameTheFlagOrWord) {
  support::json::Value doc;
  std::string error;
  const auto fails = [&](const std::string& command,
                         std::vector<std::string> args) {
    return !api::argvToJson(command, example("fig1.tpdf"), args, doc, error);
  };
  EXPECT_TRUE(fails("simulate", {"--iterations", "0"}));
  EXPECT_NE(error.find("--iterations"), std::string::npos) << error;
  EXPECT_TRUE(fails("simulate", {"--iterations", "1000001"}));
  EXPECT_NE(error.find("--iterations"), std::string::npos) << error;
  EXPECT_TRUE(fails("simulate", {"--iterations"}));
  EXPECT_NE(error.find("needs a value"), std::string::npos) << error;
  EXPECT_TRUE(fails("analyze", {"--bogus"}));
  EXPECT_NE(error.find("--bogus"), std::string::npos) << error;
  EXPECT_TRUE(fails("analyze", {"p=0"}));
  EXPECT_NE(error.find("'p'"), std::string::npos) << error;
  EXPECT_TRUE(fails("map", {"pes=0"}));
  EXPECT_NE(error.find("pes"), std::string::npos) << error;
  EXPECT_TRUE(fails("sweep", {"p=1:4", "p=1:2"}));
  EXPECT_NE(error.find("swept twice"), std::string::npos) << error;
  EXPECT_TRUE(fails("sweep", {"--link-bw", "1,-4"}));
  EXPECT_NE(error.find("--link-bw"), std::string::npos) << error;
  // Another command's flag is checked by its own row, then dropped.
  EXPECT_TRUE(fails("analyze", {"--iterations", "0"}));
  EXPECT_FALSE(fails("analyze", {"--iterations", "5", "pes=3"}));
  EXPECT_EQ(doc.find("iterations"), nullptr);
  EXPECT_EQ(doc.find("pes"), nullptr);
  EXPECT_FALSE(fails("", {"--jobs", "2", "p=0"}));  // dot, echo, ...
  EXPECT_TRUE(api::flagTakesValue("--iterations"));
  EXPECT_FALSE(api::flagTakesValue("--trace"));
  EXPECT_FALSE(api::flagTakesValue("--json"));
}

/// The CLI's request, sent as `tpdfc --connect` sends it, must come back
/// with the in-process status and payload.
void expectWireMatchesLocal(ClientSession& session, const CliCase& c) {
  SCOPED_TRACE(c.command + " " + c.input);
  const api::Request request = cliRequest(c);
  const std::string text = isCorpus(c.command) ? "" : readText(c.input);
  support::json::Value wire = api::toJson(request);
  if (!text.empty()) wire.set("graph", text);
  const ClientSession::Result result = session.handle(wire.dump());
  const support::json::Value local = runLocal(request, text);
  EXPECT_EQ(toString(result.status), local.find("status")->asString());
  EXPECT_EQ(masked(support::json::parse(result.line)).pretty(),
            local.pretty());
}

TEST_F(ServeProtocolTest, EveryCliRequestMatchesInProcessOverTheWire) {
  for (const CliCase& c : cliCases()) expectWireMatchesLocal(session_, c);
}

TEST_F(ServeProtocolTest, VerifyNegativeSelftestIsNotDroppedByTheWire) {
  const CliCase c{"verify", example("fig1.tpdf"), {"--negative-selftest"}};
  expectWireMatchesLocal(session_, c);
  api::Request request = cliRequest(c);
  EXPECT_EQ(session_.handle(api::toJson(request).dump()).status,
            api::Status::AnalysisNegative);  // exit 1, as in-process
}

TEST_F(ServeProtocolTest, VerifyIterationsAndFaultSweepReachTheHarness) {
  expectWireMatchesLocal(
      session_, {"verify", example("fig1.tpdf"), {"--iterations", "4"}});
  const CliCase sweep{
      "verify", example("fig1.tpdf"), {"--fault-sweep", "--fault-cap", "2"}};
  expectWireMatchesLocal(session_, sweep);
  const support::json::Value envelope = support::json::parse(
      session_.handle(api::toJson(cliRequest(sweep)).dump()).line);
  ASSERT_NE(envelope.find("faultInjections"), nullptr);
  EXPECT_EQ(envelope.find("faultInjections")->asInt(), 2);
}

TEST_F(ServeProtocolTest, SweepAnalysisOnlyReportsNoPeriodOverTheWire) {
  const CliCase c{"sweep", example("quickstart.tpdf"),
                  {"p=1:4", "--analysis-only"}};
  expectWireMatchesLocal(session_, c);
  support::json::Value wire = api::toJson(cliRequest(c));
  wire.set("graph", readText(c.input));
  const std::string line = session_.handle(wire.dump()).line;
  EXPECT_EQ(line.find("\"period\""), std::string::npos);
}

TEST_F(ServeProtocolTest, SimTraceIsReturnedOverTheWire) {
  const CliCase c{"simulate", example("quickstart.tpdf"), {"--trace"}};
  expectWireMatchesLocal(session_, c);
  support::json::Value wire = api::toJson(cliRequest(c));
  wire.set("graph", readText(c.input));
  const support::json::Value envelope =
      support::json::parse(session_.handle(wire.dump()).line);
  ASSERT_NE(envelope.find("sim"), nullptr);
  EXPECT_NE(envelope.find("sim")->find("trace"), nullptr);
}

TEST_F(ServeProtocolTest, OutOfRangeValuesAreInvalidRequestsOnTheWire) {
  // The CLI's bounds are the fields' own: iterations is 1..1000000 on
  // the wire too (2^62 used to overflow q * N into an input error), and
  // a sweep without PEs is refused like a map without PEs.
  const std::string graph = graphText("range");
  for (const std::string body :
       {"\"command\":\"simulate\",\"iterations\":0",
        "\"command\":\"simulate\",\"iterations\":4611686018427387904",
        "\"command\":\"sweep\",\"axes\":{},\"pes\":0",
        "\"command\":\"map\",\"pes\":0",
        "\"command\":\"schedule\",\"policy\":\"fastest\""}) {
    const ClientSession::Result result = handle(
        "{" + body + ",\"graph\":" + support::json::Value(graph).dump() + "}");
    EXPECT_EQ(result.status, api::Status::InvalidRequest) << body;
    EXPECT_EQ(firstCode(parseEnvelope(result)), "invalid-request") << body;
  }
  const ClientSession::Result verify = handle(
      "{\"command\":\"verify\",\"iterations\":0,\"files\":[\"" +
      example("fig1.tpdf") + "\"]}");
  EXPECT_EQ(verify.status, api::Status::InvalidRequest);
}

TEST_F(ServeProtocolTest, UndeclaredKeysAreRejectedByName) {
  const std::string graph = support::json::Value(graphText("keys")).dump();
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"{\"command\":\"schedule\",\"max_points\":3,\"graph\":" + graph + "}",
       "max_points"},
      {"{\"command\":\"analyze\",\"limits\":{\"timeout\":5},\"graph\":" +
           graph + "}",
       "limits.timeout"},
      {"{\"command\":\"batch\",\"graph\":" + graph + "}", "graph"},
      {"{\"command\":\"ping\",\"verbose\":true}", "verbose"},
      {"{\"command\":\"load\",\"bindings\":{},\"graph\":" + graph + "}",
       "bindings"},
  };
  for (const auto& [line, key] : cases) {
    const ClientSession::Result result = handle(line);
    EXPECT_EQ(result.status, api::Status::InvalidRequest) << line;
    const support::json::Value envelope = parseEnvelope(result);
    const std::string message =
        envelope.find("diagnostics")->items()[0].find("message")->asString();
    EXPECT_NE(message.find("\"" + key + "\""), std::string::npos) << message;
  }
  // The graph reference keys pass on graph commands.
  EXPECT_EQ(handle("{\"command\":\"analyze\",\"graph\":" + graph + "}").status,
            api::Status::Ok);
}

TEST_F(ServeProtocolTest, FuzzTruncationsNeverCrashAndAlwaysEnvelope) {
  // Every prefix of a valid request is malformed JSON (or an incomplete
  // object): each one must produce a parseable envelope, not a crash.
  auto request = support::json::Value::object();
  request.set("command", "analyze");
  request.set("graph", graphText("fuzz"));
  const std::string line = request.dump();
  for (std::size_t cut = 0; cut < line.size(); cut += 7) {
    const ClientSession::Result result = handle(line.substr(0, cut + 1));
    const support::json::Value envelope = parseEnvelope(result);
    EXPECT_NE(envelope.find("status"), nullptr);
  }
}

TEST_F(ServeProtocolTest, FuzzMutatedBytesNeverCrash) {
  auto request = support::json::Value::object();
  request.set("command", "analyze");
  request.set("graph", graphText("mutate"));
  const std::string line = request.dump();
  std::mt19937 rng(0xFEED);
  std::uniform_int_distribution<std::size_t> pos(0, line.size() - 1);
  std::uniform_int_distribution<int> byte(0, 255);
  for (int round = 0; round < 300; ++round) {
    std::string mutated = line;
    const int flips = 1 + round % 4;
    for (int f = 0; f < flips; ++f) {
      char c = static_cast<char>(byte(rng));
      if (c == '\n') c = ' ';  // stay a single frame
      mutated[pos(rng)] = c;
    }
    const ClientSession::Result result = handle(mutated);
    // Whatever happened, it is a parseable one-line envelope.
    EXPECT_EQ(result.line.find('\n'), std::string::npos);
    parseEnvelope(result);
  }
}

}  // namespace
}  // namespace tpdf::serve
