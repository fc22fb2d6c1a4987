// Unit tests for the hand-rolled JSON writer (support/json.hpp), plus
// randomized round-trip fuzz against the strict RFC 8259 test parser.
#include "support/json.hpp"

#include <gtest/gtest.h>

#include <charconv>
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

/// Appends the UTF-8 encoding of the scalar value `cp`.
void appendUtf8(std::string& out, std::int64_t cp) {
  const auto byte = [&](std::int64_t b) { out += static_cast<char>(b); };
  if (cp < 0x80) {
    byte(cp);
  } else if (cp < 0x800) {
    byte(0xC0 | (cp >> 6));
    byte(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    byte(0xE0 | (cp >> 12));
    byte(0x80 | ((cp >> 6) & 0x3F));
    byte(0x80 | (cp & 0x3F));
  } else {
    byte(0xF0 | (cp >> 18));
    byte(0x80 | ((cp >> 12) & 0x3F));
    byte(0x80 | ((cp >> 6) & 0x3F));
    byte(0x80 | (cp & 0x3F));
  }
}

/// Random well-formed UTF-8 text: control characters, quotes,
/// backslashes and two- to four-byte sequences — everything the escaper
/// must get right and the parser must give back unchanged.  (Ill-formed
/// bytes are replaced on output; JsonWriter.RandomBytes... covers them.)
std::string randomString(Prng& rng) {
  const std::int64_t len = rng.uniform(0, 24);
  std::string out;
  for (std::int64_t i = 0; i < len; ++i) {
    switch (rng.uniform(0, 5)) {
      case 0: appendUtf8(out, rng.uniform(0x80, 0x7FF)); break;
      case 1: {
        const std::int64_t cp = rng.uniform(0x800, 0xFFFF);
        appendUtf8(out, cp >= 0xD800 && cp <= 0xDFFF ? 0xFFFD : cp);
        break;
      }
      case 2: appendUtf8(out, rng.uniform(0x10000, 0x10FFFF)); break;
      default: appendUtf8(out, rng.uniform(1, 0x7F));
    }
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

// ---- Writer -------------------------------------------------------------

TEST(JsonWriter, PushCallsProduceValueLayouts) {
  // The same document pushed by hand and built as a Value: one formatter,
  // so both layouts agree byte for byte.
  auto doc = Value::object();
  doc.set("name", "a\"b");
  doc.set("n", 3);
  doc.set("x", 2.0);
  doc.set("empty", Value::array());
  doc.set("obj",
          Value::object().set("k", Value::array().push(1).push(nullptr)));
  const auto push = [](Writer& w) {
    w.beginObject().member("name", "a\"b").member("n", 3).member("x", 2.0);
    w.key("empty").beginArray().endArray();
    w.key("obj").beginObject().key("k").beginArray().value(1).value(nullptr);
    w.endArray().endObject().endObject();
  };
  Writer pretty(Layout::Pretty);
  push(pretty);
  EXPECT_EQ(pretty.finish(), doc.pretty());
  Writer compact(Layout::Compact);
  push(compact);
  EXPECT_EQ(compact.finish(),
            "{\"name\":\"a\\\"b\",\"n\":3,\"x\":2.0,\"empty\":[],"
            "\"obj\":{\"k\":[1,null]}}");
  Writer reread(Layout::Compact);
  push(reread);
  EXPECT_EQ(parse(reread.finish()), doc);
}

TEST(JsonWriter, IllFormedUtf8BecomesReplacementCharacter) {
  // One U+FFFD per maximal ill-formed subsequence (the Unicode
  // recommendation, which Python's errors="replace" decoder also uses).
  const std::string fffd = "\xEF\xBF\xBD";
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"\xFF", fffd},
      {"\xE2\x82", fffd},                          // truncated 3-byte
      {"\xE2\x82" "A", fffd + "A"},
      {"\xF0\x80\x80\x80", fffd + fffd + fffd + fffd},  // overlong
      {"\xED\xA0\x80", fffd + fffd + fffd},          // surrogate
      {"\xC0\xAF", fffd + fffd},                    // overlong '/'
      {"\xF4\x90\x80\x80", fffd + fffd + fffd + fffd},  // > U+10FFFF
      {"\xF0\x9F\x98", fffd},                      // truncated 4-byte
      {"\xF1\x80\x80\xC0", fffd + fffd},
      {"a\xF0\x9F\x98\x80" "b", "a\xF0\x9F\x98\x80" "b"},  // valid U+1F600
      {"\xC2\xB5s", "\xC2\xB5s"},                    // valid "µs"
  };
  for (const auto& [in, want] : cases) {
    EXPECT_EQ(Value(in).dump(), "\"" + want + "\"") << Value(want).dump();
    Writer w(Layout::Compact);
    w.beginObject().member(in, in).endObject();
    EXPECT_EQ(w.finish(), "{\"" + want + "\":\"" + want + "\"}");
  }
}

TEST(JsonWriter, DoublesUseTheShortestRoundTripForm) {
  // Oracle: std::to_chars' shortest form, with ".0" added when it has no
  // point or exponent, and null for non-finite values.
  const auto expected = [](double d) -> std::string {
    if (!std::isfinite(d)) return "null";
    char tmp[32];
    std::string out(tmp, std::to_chars(tmp, tmp + sizeof(tmp), d).ptr);
    if (out.find_first_of(".e") == std::string::npos) out += ".0";
    return out;
  };
  std::vector<double> values{0.0, -0.0, 1.0, -1.0, 9999.0, 10000.0, 99999.0,
                             99999.5, 1e5, 100001.0, 123456.0, 1e15, 0.1,
                             2147483648.0, -2147483649.0, 4.9e-324,
                             std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()};
  Prng rng(0xD0B1E);
  for (int i = 0; i < 3000; ++i) {
    values.push_back(static_cast<double>(rng.uniform(-200000, 200000)));
    values.push_back(static_cast<double>(rng.uniform(0, 1 << 24)) / 8.0);
    values.push_back(rng.uniform01() *
                     std::pow(10.0, static_cast<double>(rng.uniform(-8, 8))));
  }
  for (const double d : values) {
    Writer w(Layout::Compact);
    w.beginArray().value(d).endArray();
    ASSERT_EQ(w.finish(), "[" + expected(d) + "]") << d;
    Writer m(Layout::Pretty);
    m.beginObject().member("x", d).endObject();
    ASSERT_EQ(m.finish(), "{\n  \"x\": " + expected(d) + "\n}\n") << d;
  }
}

TEST(JsonWriter, LongStringsEscapeAcrossBlocks) {
  // Strings several escape blocks (4 KiB) long, mixing plain runs,
  // escapes, multi-byte sequences and ill-formed bytes so that each
  // kind lands on a block boundary somewhere; the expected text is the
  // concatenation of each piece's known escape.
  const std::vector<std::pair<std::string, std::string>> pieces = {
      {"a", "a"},
      {"plain text ", "plain text "},
      {"\n", "\\n"},
      {"\x01", "\\u0001"},
      {"\"", "\\\""},
      {"\xC2\xB5", "\xC2\xB5"},
      {"\xF0\x9F\x98\x80", "\xF0\x9F\x98\x80"},
      {"\xFF", "\xEF\xBF\xBD"},
  };
  Prng rng(0x5EED);
  for (int trial = 0; trial < 20; ++trial) {
    std::string in;
    std::string want;
    while (in.size() < 3 * 4096 + 300) {
      const auto& [raw, escaped] = pieces[static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(pieces.size()) - 1))];
      in += raw;
      want += escaped;
    }
    Writer w(Layout::Compact);
    w.beginObject().member(in, in).key("k").value(in).endObject();
    ASSERT_EQ(w.finish(), "{\"" + want + "\":\"" + want + "\",\"k\":\"" +
                              want + "\"}")
        << trial;
  }
}

/// True when `s` is well-formed UTF-8 (an oracle independent of the
/// writer's: decode each sequence and check its scalar value).
bool wellFormedUtf8(const std::string& s) {
  for (std::size_t i = 0; i < s.size();) {
    const auto c = static_cast<unsigned char>(s[i]);
    const std::size_t n = c < 0x80 ? 1 : c >> 5 == 0x6 ? 2 : c >> 4 == 0xE ? 3
                          : c >> 3 == 0x1E ? 4 : 0;
    if (n == 0 || i + n > s.size()) return false;
    std::uint32_t cp = n == 1 ? c : c & (0x7F >> n);
    for (std::size_t k = 1; k < n; ++k) {
      const auto b = static_cast<unsigned char>(s[i + k]);
      if (b >> 6 != 0x2) return false;
      cp = cp << 6 | (b & 0x3F);
    }
    const std::uint32_t least[] = {0, 0, 0x80, 0x800, 0x10000};
    if (cp < least[n] || cp > 0x10FFFF || (cp >= 0xD800 && cp <= 0xDFFF)) {
      return false;
    }
    i += n;
  }
  return true;
}

TEST(JsonWriter, RandomBytesAlwaysSerializeToValidUtf8) {
  Prng rng(0xB17E5);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string bytes;
    const std::int64_t len = rng.uniform(0, 12);
    for (std::int64_t i = 0; i < len; ++i) {
      // Bias towards lead and continuation bytes, where the cases are.
      bytes += static_cast<char>(rng.chance(0.7) ? rng.uniform(0x80, 0xFF)
                                                 : rng.uniform(1, 0x7F));
    }
    const std::string text = Value(bytes).dump();
    ASSERT_TRUE(wellFormedUtf8(text)) << trial;
    const Value back = parse(text);
    ASSERT_TRUE(wellFormedUtf8(back.asString())) << trial;
    EXPECT_EQ(back.dump(), text) << trial;  // replacement is idempotent
    if (wellFormedUtf8(bytes)) {
      EXPECT_EQ(back.asString(), bytes) << trial;
    }
  }
}

/// A random document that may hold non-finite doubles, and what it must
/// read back as: the same document with each of those replaced by null.
struct RandomDoc {
  Value raw;
  Value expected;
};

RandomDoc same(const Value& v) { return {v, v}; }

RandomDoc randomDoc(Prng& rng, int depth) {
  switch (rng.uniform(0, depth > 0 ? 8 : 6)) {
    case 0: return same(nullptr);
    case 1: return same(rng.chance(0.5));
    case 2: return same(static_cast<std::int64_t>(rng.next()));
    case 3:  // integral doubles must stay doubles ("3.0")
      return same(static_cast<double>(rng.uniform(-1000, 1000)));
    case 4: {
      const double special[] = {std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity(),
                                std::nan(""), 0.1, -0.0, 1e300, 5e-324};
      const double d = special[rng.uniform(0, 6)];
      return {Value(d), std::isfinite(d) ? Value(d) : Value(nullptr)};
    }
    case 5:
    case 6: return same(randomString(rng));
    case 7: {
      RandomDoc arr{Value::array(), Value::array()};
      for (std::int64_t i = rng.uniform(0, 4); i > 0; --i) {
        RandomDoc item = randomDoc(rng, depth - 1);
        arr.raw.push(std::move(item.raw));
        arr.expected.push(std::move(item.expected));
      }
      return arr;
    }
    default: {
      RandomDoc obj{Value::object(), Value::object()};
      for (std::int64_t i = rng.uniform(0, 4); i > 0; --i) {
        RandomDoc member = randomDoc(rng, depth - 1);
        const std::string key = randomString(rng) + "#" + std::to_string(i);
        obj.raw.set(key, std::move(member.raw));
        obj.expected.set(key, std::move(member.expected));
      }
      return obj;
    }
  }
}

TEST(JsonWriter, RandomDocumentsReadBackFromBothLayouts) {
  Prng rng(0xD0C);
  for (int trial = 0; trial < 500; ++trial) {
    const RandomDoc doc = randomDoc(rng, 5);
    EXPECT_EQ(parse(doc.raw.pretty()), doc.expected) << doc.raw.dump();
    EXPECT_EQ(parse(doc.raw.dump()), doc.expected) << doc.raw.dump();
    EXPECT_EQ(doc.raw.pretty(), doc.expected.pretty());
  }
}

// ---- Parser ------------------------------------------------------------

TEST(JsonParse, DuplicateMemberNamesAreRejectedAtTheirPosition) {
  try {
    parse("{\"command\": \"analyze\",\n  \"command\": \"map\"}");
    FAIL() << "duplicate member accepted";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate member name \"command\""),
              std::string::npos)
        << e.what();
    EXPECT_EQ(e.line(), 2);
    EXPECT_EQ(e.column(), 3);
  }
  // Nested objects are checked too; equal names in sibling objects are
  // fine.
  EXPECT_THROW(parse("{\"a\": {\"b\": 1, \"b\": 1}}"), ParseError);
  EXPECT_THROW(parse("[{\"\\u0061\": 1, \"a\": 2}]"), ParseError);
  EXPECT_NO_THROW(parse("[{\"a\": 1}, {\"a\": 2}]"));
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
