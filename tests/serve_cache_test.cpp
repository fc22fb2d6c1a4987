// GraphCache: the daemon's shared, LRU-bounded graph/analysis cache.
//
// Pins the sharing contract (identical source text from any number of
// clients converges on one entry), both eviction bounds (entry count
// and resident bytes), the counter consistency guarantee under
// concurrent acquires, and single-flight admission (racing cold misses on
// one source parse it once).
#include "serve/cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.hpp"
#include "support/error.hpp"
#include "support/json.hpp"

namespace tpdf::serve {
namespace {

/// A minimal valid graph whose source text (and so content hash) is
/// unique per `tag`.
std::string graphText(const std::string& tag) {
  return "graph g_" + tag +
         " {\n"
         "  kernel a { out o rates [1]; }\n"
         "  kernel b { in i rates [1]; }\n"
         "  channel c from a.o to b.i init 1;\n"
         "}\n";
}

TEST(ServeCache, ContentHashIsStableAndTextSensitive) {
  const std::string text = graphText("x");
  EXPECT_EQ(contentHash(text), contentHash(text));
  EXPECT_NE(contentHash(text), contentHash(text + " "));
}

TEST(ServeCache, CacheIdIsHashPrefixedHex) {
  const std::string id = cacheId(0xABCDEF0123456789ull);
  EXPECT_EQ(id, "#abcdef0123456789");
  EXPECT_EQ(cacheId(0).size(), 17u);  // '#' + 16 hex digits, zero padded
}

TEST(ServeCache, MissThenHitSharesOneEntry) {
  GraphCache cache(8, 0);
  const std::string text = graphText("hit");

  const GraphCache::Acquired first = cache.acquire(text);
  ASSERT_NE(first.entry, nullptr);
  EXPECT_FALSE(first.hit);
  ASSERT_NE(first.entry->model, nullptr);
  ASSERT_NE(first.entry->ctx, nullptr);

  const GraphCache::Acquired second = cache.acquire(text);
  EXPECT_TRUE(second.hit);
  // The same shared state, not an equal copy.
  EXPECT_EQ(second.entry.get(), first.entry.get());
  EXPECT_EQ(second.entry->ctx.get(), first.entry->ctx.get());

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(ServeCache, ParseFailureLeavesCacheUnchanged) {
  GraphCache cache(8, 0);
  EXPECT_THROW(cache.acquire("graph broken {"), support::Error);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
}

TEST(ServeCache, LruEvictsLeastRecentlyUsed) {
  GraphCache cache(2, 0);
  cache.acquire(graphText("a"));
  cache.acquire(graphText("b"));
  // Touch "a" so "b" becomes the LRU tail.
  EXPECT_TRUE(cache.acquire(graphText("a")).hit);

  cache.acquire(graphText("c"));  // evicts "b", not "a"
  EXPECT_EQ(cache.stats().evictions, 1u);

  EXPECT_TRUE(cache.acquire(graphText("a")).hit);
  EXPECT_TRUE(cache.acquire(graphText("c")).hit);
  EXPECT_FALSE(cache.acquire(graphText("b")).hit);  // was evicted
}

TEST(ServeCache, EvictedEntrySurvivesThroughSharedPtr) {
  GraphCache cache(1, 0);
  const GraphCache::Acquired held = cache.acquire(graphText("held"));
  cache.acquire(graphText("usurper"));  // evicts "held" from the index
  EXPECT_EQ(cache.stats().evictions, 1u);
  // The adopted entry is still fully usable by in-flight requests.
  ASSERT_NE(held.entry->model, nullptr);
  EXPECT_GT(held.entry->model->graph().actorCount(), 0u);
}

TEST(ServeCache, ByteBoundEvictsAndRetainsAtLeastOne) {
  // Tiny byte bound: no two entries fit, but the newest always stays.
  GraphCache cache(0, 1);
  cache.acquire(graphText("one"));
  EXPECT_EQ(cache.stats().entries, 1u);  // over budget but never empty

  cache.acquire(graphText("two"));
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_TRUE(cache.acquire(graphText("two")).hit);
}

TEST(ServeCache, IdenticalTextAcrossClientSessionsSharesOneEntry) {
  GraphCache cache(8, 0);
  ClientSession alice(cache, RequestPolicy{});
  ClientSession bob(cache, RequestPolicy{});

  auto request = support::json::Value::object();
  request.set("command", "analyze");
  request.set("graph", graphText("shared"));
  const std::string line = request.dump();

  const ClientSession::Result fromAlice = alice.handle(line);
  const ClientSession::Result fromBob = bob.handle(line);
  EXPECT_EQ(fromAlice.status, api::Status::Ok);
  EXPECT_EQ(fromBob.status, api::Status::Ok);

  // One parse + analysis total: Bob's request was a cache hit.
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);

  const support::json::Value bobDoc = support::json::parse(fromBob.line);
  const support::json::Value* serve = bobDoc.find("serve");
  ASSERT_NE(serve, nullptr);
  const support::json::Value* cached = serve->find("cached");
  ASSERT_NE(cached, nullptr);
  EXPECT_TRUE(cached->asBool());
}

TEST(ServeCache, ConcurrentAcquiresKeepCountersConsistent) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kAcquires = 50;
  constexpr std::size_t kDistinct = 4;

  GraphCache cache(kDistinct, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (std::size_t i = 0; i < kAcquires; ++i) {
        const GraphCache::Acquired got =
            cache.acquire(graphText(std::to_string((t + i) % kDistinct)));
        ASSERT_NE(got.entry, nullptr);
        ASSERT_NE(got.entry->ctx, nullptr);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Every acquire is exactly one hit or one miss — no drops, no double
  // counts, even when same-hash misses race on insertion.
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kAcquires);
  EXPECT_GE(stats.misses, kDistinct);  // each text parsed at least once
  EXPECT_LE(stats.entries, kDistinct);
}

/// A chain long enough that its parse overlaps the other threads'
/// arrivals.
std::string longGraphText(std::size_t actors) {
  std::string text = "graph long_chain {\n";
  for (std::size_t i = 0; i < actors; ++i) {
    text += "  kernel a" + std::to_string(i) + " {";
    if (i > 0) text += " in i rates [1];";
    if (i + 1 < actors) text += " out o rates [1];";
    text += " }\n";
  }
  for (std::size_t i = 0; i + 1 < actors; ++i) {
    text += "  channel c" + std::to_string(i) + " from a" + std::to_string(i) +
            ".o to a" + std::to_string(i + 1) + ".i;\n";
  }
  return text + "}\n";
}

TEST(ServeCache, RacingColdMissesOnOneSourceParseOnce) {
  constexpr std::size_t kThreads = 8;
  GraphCache cache(8, 0);
  const std::string text = longGraphText(2000);
  std::latch start(kThreads);
  std::vector<GraphCache::Acquired> got(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      got[t] = cache.acquire(text);
    });
  }
  for (std::thread& t : threads) t.join();

  // One thread parsed; every other one waited for it and shares its
  // entry as a hit.
  std::size_t parsed = 0;
  for (const GraphCache::Acquired& a : got) {
    ASSERT_NE(a.entry, nullptr);
    EXPECT_EQ(a.entry.get(), got[0].entry.get());
    if (!a.hit) ++parsed;
  }
  EXPECT_EQ(parsed, 1u);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, kThreads - 1);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ServeCache, RacingAcquiresOfBadSourceAllSeeTheParseError) {
  constexpr std::size_t kThreads = 8;
  GraphCache cache(8, 0);
  std::latch start(kThreads);
  std::atomic<std::size_t> rejected{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      start.arrive_and_wait();
      try {
        cache.acquire("graph broken {");
      } catch (const support::ParseError&) {
        rejected.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(rejected.load(), kThreads);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits + stats.misses, 0u);
}

}  // namespace
}  // namespace tpdf::serve
