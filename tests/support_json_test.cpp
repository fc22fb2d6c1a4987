// Unit tests for the hand-rolled JSON writer (support/json.hpp), plus
// randomized round-trip fuzz against the strict RFC 8259 test parser.
#include "support/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "api/requests.hpp"
#include "core/differential.hpp"
#include "support/prng.hpp"

#include "strict_json.hpp"

namespace tpdf::support::json {
namespace {

TEST(JsonValue, ScalarsSerializeCompactly) {
  EXPECT_EQ(Value().dump(), "null");
  EXPECT_EQ(Value(nullptr).dump(), "null");
  EXPECT_EQ(Value(true).dump(), "true");
  EXPECT_EQ(Value(false).dump(), "false");
  EXPECT_EQ(Value(0).dump(), "0");
  EXPECT_EQ(Value(-42).dump(), "-42");
  EXPECT_EQ(Value(std::int64_t{1} << 62).dump(), "4611686018427387904");
  EXPECT_EQ(Value("hi").dump(), "\"hi\"");
  EXPECT_EQ(Value(std::string("hi")).dump(), "\"hi\"");
}

TEST(JsonValue, IntegersStayIntegers) {
  // A count must never pick up a fractional part or an exponent.
  EXPECT_EQ(Value(std::size_t{7}).dump(), "7");
  EXPECT_TRUE(Value(std::size_t{7}).isInt());
  EXPECT_TRUE(Value(2.0).isDouble());
}

TEST(JsonValue, DoublesRoundTripShortest) {
  EXPECT_EQ(Value(2.5).dump(), "2.5");
  EXPECT_EQ(Value(0.1).dump(), "0.1");
  EXPECT_EQ(Value(1e100).dump(), "1e+100");
  // Non-finite values have no JSON spelling; they degrade to null.
  EXPECT_EQ(Value(std::numeric_limits<double>::infinity()).dump(), "null");
  EXPECT_EQ(Value(std::nan("")).dump(), "null");
}

TEST(JsonValue, StringEscaping) {
  EXPECT_EQ(Value("a\"b").dump(), "\"a\\\"b\"");
  EXPECT_EQ(Value("back\\slash").dump(), "\"back\\\\slash\"");
  EXPECT_EQ(Value("line\nbreak\ttab").dump(), "\"line\\nbreak\\ttab\"");
  EXPECT_EQ(Value(std::string("ctrl\x01") + "x").dump(), "\"ctrl\\u0001x\"");
  // UTF-8 passes through untouched.
  EXPECT_EQ(Value("µs").dump(), "\"µs\"");
}

TEST(JsonValue, ArraysAndObjectsNest) {
  auto doc = Value::object();
  doc.set("name", "fig2");
  doc.set("bounded", true);
  auto arr = Value::array();
  arr.push(1).push(2).push(Value::object().set("k", "v"));
  doc.set("items", std::move(arr));
  EXPECT_EQ(doc.dump(),
            "{\"name\":\"fig2\",\"bounded\":true,"
            "\"items\":[1,2,{\"k\":\"v\"}]}");
}

TEST(JsonValue, ObjectsPreserveInsertionOrderAndReplaceInPlace) {
  auto doc = Value::object();
  doc.set("z", 1);
  doc.set("a", 2);
  doc.set("z", 3);  // replaced, not re-appended
  EXPECT_EQ(doc.dump(), "{\"z\":3,\"a\":2}");
  ASSERT_NE(doc.find("a"), nullptr);
  EXPECT_EQ(doc.find("a")->asInt(), 2);
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(JsonValue, EmptyContainers) {
  EXPECT_EQ(Value::object().dump(), "{}");
  EXPECT_EQ(Value::array().dump(), "[]");
  EXPECT_EQ(Value::object().pretty(), "{}\n");
}

TEST(JsonValue, PrettyPrintsWithStableIndentation) {
  auto doc = Value::object();
  doc.set("a", Value::array().push(1));
  EXPECT_EQ(doc.pretty(), "{\n  \"a\": [\n    1\n  ]\n}\n");
}

TEST(JsonValue, TypeErrorsThrow) {
  Value notAnObject(3);
  EXPECT_THROW(notAnObject.set("k", 1), support::Error);
  EXPECT_THROW(notAnObject.push(1), support::Error);
}

TEST(JsonValue, EqualityIsStructural) {
  auto a = Value::object().set("x", 1);
  auto b = Value::object().set("x", 1);
  EXPECT_EQ(a, b);
  b.set("x", 2);
  EXPECT_NE(a, b);
}

// ---- Randomized round-trip fuzz (strict_json.hpp oracle) ----------------

/// A string of random bytes: control characters, quotes, backslashes and
/// high bytes — everything the escaper must get right.
std::string randomString(Prng& rng) {
  const std::int64_t len = rng.uniform(0, 24);
  std::string out;
  for (std::int64_t i = 0; i < len; ++i) {
    out += static_cast<char>(rng.uniform(1, 255));
  }
  return out;
}

Value randomValue(Prng& rng, int depth) {
  switch (rng.uniform(0, depth > 0 ? 6 : 4)) {
    case 0:
      return Value(nullptr);
    case 1:
      return Value(rng.chance(0.5));
    case 2:
      return Value(static_cast<std::int64_t>(rng.next()));
    case 3:
      // Finite doubles only: infinities/NaN degrade to null by design
      // and would trivially break identity.
      return Value(static_cast<double>(rng.uniform(-1'000'000, 1'000'000)) /
                   128.0);
    case 4:
      return Value(randomString(rng));
    case 5: {
      auto arr = Value::array();
      const std::int64_t n = rng.uniform(0, 4);
      for (std::int64_t i = 0; i < n; ++i) {
        arr.push(randomValue(rng, depth - 1));
      }
      return arr;
    }
    default: {
      auto obj = Value::object();
      const std::int64_t n = rng.uniform(0, 4);
      for (std::int64_t i = 0; i < n; ++i) {
        obj.set(randomString(rng) + std::to_string(i),
                randomValue(rng, depth - 1));
      }
      return obj;
    }
  }
}

TEST(JsonFuzz, RandomDocumentsRoundTripThroughStrictParser) {
  Prng rng(0x5EED);
  for (int trial = 0; trial < 200; ++trial) {
    tpdf::test::expectRoundTrip(randomValue(rng, 4));
  }
}

TEST(JsonFuzz, RandomizedApiResponsesRoundTrip) {
  // The façade documents its JSON as machine-consumable; randomized
  // diagnostics and discrepancy records (arbitrary bytes in messages,
  // file names, replay dumps) must survive serialize -> strict parse ->
  // serialize byte-identically.
  Prng rng(0xD0C5);
  for (int trial = 0; trial < 50; ++trial) {
    api::VerifyResponse response;
    const std::int64_t diags = rng.uniform(0, 3);
    for (std::int64_t i = 0; i < diags; ++i) {
      api::Diagnostic d;
      d.severity = rng.chance(0.5) ? api::Severity::Error
                                   : api::Severity::Warning;
      d.code = "fuzz-code";
      d.message = randomString(rng);
      d.file = randomString(rng);
      if (rng.chance(0.5)) {
        d.line = static_cast<int>(rng.uniform(1, 500));
        d.column = static_cast<int>(rng.uniform(1, 120));
      }
      response.diagnostics.push_back(std::move(d));
      response.status = api::Status::AnalysisNegative;
    }
    core::GraphVerdict verdict;
    verdict.graph = randomString(rng);
    verdict.file = randomString(rng);
    verdict.bounded = rng.chance(0.5);
    verdict.checksRun.push_back("boundedness");
    verdict.skipped.push_back("throughput: " + randomString(rng));
    response.report.verdicts.push_back(std::move(verdict));
    if (rng.chance(0.5)) {
      core::DiffRecord record;
      record.graph = randomString(rng);
      record.check = "buffers";
      record.detail = randomString(rng);
      record.replay = "graph g {\n  " + randomString(rng) + "\n}\n";
      response.report.records.push_back(std::move(record));
    }
    response.inputCount = static_cast<std::size_t>(rng.uniform(1, 40));
    response.elapsedMs = static_cast<double>(rng.uniform(0, 10'000)) / 16.0;
    tpdf::test::expectRoundTrip(response.toJson());
  }
}

// ---- Streamed writer ------------------------------------------------

/// prettyTo()'s chunk size (64 KiB).
constexpr std::size_t kStreamChunk = 64 * 1024;

/// prettyTo()'s chunks, collected.
std::vector<std::string> chunksOf(const Value& doc) {
  std::vector<std::string> chunks;
  doc.prettyTo([&](std::string_view c) { chunks.emplace_back(c); });
  return chunks;
}

/// The chunked stream must reproduce pretty() byte for byte, and every
/// chunk but the last must have reached the chunk size.
void expectStreamMatchesPretty(const Value& doc, const std::string& what) {
  const std::vector<std::string> chunks = chunksOf(doc);
  std::string joined;
  for (const std::string& c : chunks) joined += c;
  EXPECT_EQ(joined, doc.pretty()) << what;
  for (std::size_t i = 0; i + 1 < chunks.size(); ++i) {
    EXPECT_GE(chunks[i].size(), kStreamChunk) << what << " chunk " << i;
  }
}

TEST(JsonStream, GoldenDocumentsStreamByteIdentically) {
  const std::filesystem::path dir =
      std::filesystem::path(TPDF_SOURCE_DIR) / "tests" / "golden";
  std::size_t seen = 0;
  for (const auto& file : std::filesystem::directory_iterator(dir)) {
    if (file.path().extension() != ".json") continue;
    std::ifstream in(file.path(), std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    expectStreamMatchesPretty(parse(text.str()),
                              file.path().filename().string());
    ++seen;
  }
  EXPECT_GT(seen, 0u);
}

TEST(JsonStream, MultiChunkDocumentStreamsByteIdentically) {
  // Several chunks of nested objects, arrays, escaped strings, doubles
  // and empty containers, so chunks are cut inside each of them.
  std::vector<Value> phaseLists;
  for (int n = 0; n < 5; ++n) {
    auto phases = Value::array();
    for (int k = 0; k < n; ++k) phases.push(k);
    phaseLists.push_back(std::move(phases));
  }
  auto doc = Value::object();
  auto rows = Value::array();
  for (int i = 0; i < 6000; ++i) {
    auto row = Value::object();
    row.set("actor", "a" + std::to_string(i) + "\t\"q\"");
    row.set("count", i * 7);
    row.set("ratio", i / 3.0);
    row.set("empty", i % 2 == 0 ? Value::array() : Value::object());
    row.set("phases", phaseLists[static_cast<std::size_t>(i % 5)]);
    rows.push(std::move(row));
  }
  doc.set("runs", std::move(rows));
  // A single string longer than a chunk.
  doc.set("note", std::string(3 * kStreamChunk / 2, 'x'));
  ASSERT_GT(doc.pretty().size(), 4 * kStreamChunk);
  EXPECT_GT(chunksOf(doc).size(), 4u);
  expectStreamMatchesPretty(doc, "synthetic");
}

TEST(JsonStream, ScalarAndEmptyDocumentsAreOneChunk) {
  for (const Value& doc : {Value(), Value(3), Value("s"), Value::array(),
                           Value::object()}) {
    const std::vector<std::string> chunks = chunksOf(doc);
    ASSERT_EQ(chunks.size(), 1u);
    EXPECT_EQ(chunks[0], doc.pretty());
  }
}

}  // namespace
}  // namespace tpdf::support::json
