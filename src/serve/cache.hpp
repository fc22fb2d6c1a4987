// Shared graph cache of the tpdfd daemon.
//
// tpdfd clients send graphs as inline .tpdf text; the cache keys each
// graph by a 64-bit FNV-1a hash of that text, so any number of clients
// submitting the SAME source share ONE parsed core::TpdfGraph and ONE
// memoized core::AnalysisContext — the second client's analyze request
// lands on precomputed repetition vectors and rate tables instead of
// re-deriving them (the repeated-analysis speedup the bench suite pins
// at ~3x, now shared across processes).
//
// FNV-1a is not collision-resistant, so the hash only finds the entry:
// each entry keeps its source text and a lookup compares it.  An entry
// is never served for other text; a second source with the same hash
// takes the slot over (the older entry counts as evicted).  Both carry
// the same cacheId, which ClientSession re-points at the entry of the
// request at hand.
//
// Bounds and eviction: the cache is LRU-bounded by BOTH entry count and
// resident bytes (source text + the graph's interned-name pool + frozen
// CSR arena, Graph::namePoolBytes()/frozenBytes(), + the context memo at
// its cap, AnalysisContext::memoBytesBound()).  Eviction only unlinks
// the entry from the cache: clients that adopted it keep their
// shared_ptrs, so in-flight requests never race a disappearing graph.
//
// Concurrency: the cache's own index is mutex-guarded; parsing and
// context construction happen OUTSIDE that lock, so concurrent misses
// on different graphs proceed in parallel.  Admission is single-flight
// per hash: requests arriving while the same source is being parsed
// wait for that parse and share its entry (counted as hits), so one
// source costs exactly one parse and one miss however many clients
// race on it.  AnalysisContext itself is NOT thread-safe — Entry::mutex
// serializes request execution over one entry while requests against
// different graphs run in parallel.
//
// An entry never goes stale: the AnalysisContext seals its graph at
// admission, before the entry is shared, so the memoized state is read
// against a graph nobody can edit.
#pragma once

#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "core/context.hpp"
#include "core/model.hpp"
#include "support/json.hpp"

namespace tpdf::serve {

/// 64-bit FNV-1a over the graph source text (the cache key).
std::uint64_t contentHash(std::string_view text);

/// The session id a cached graph is adopted under: "#" + 16 hex digits
/// of its content hash.  The '#' prefix cannot collide with a
/// client-chosen id (graph names never start with '#').
std::string cacheId(std::uint64_t hash);

/// Monotonic counters + a point-in-time size snapshot.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;
  std::size_t bytes = 0;

  /// {"hits": ..., "misses": ..., "evictions": ..., "entries": ...,
  /// "bytes": ...} — the `stats` wire command's cache payload.
  void write(support::json::Writer& w) const;
  support::json::Value toJson() const { return support::json::toValue(*this); }
};

class GraphCache {
 public:
  /// One cached graph.  Shared by every client that submitted the same
  /// source text; outlives eviction through the shared_ptr.
  struct Entry {
    std::uint64_t hash = 0;
    /// cacheId(hash) — the id clients adopt the graph under.
    std::string id;
    /// The text the entry was parsed from; a lookup must match it.
    /// Guarded by the cache's mutex, and emptied when the entry is
    /// evicted (an evicted entry is never looked up again).
    std::string source;
    std::shared_ptr<core::TpdfGraph> model;
    std::shared_ptr<core::AnalysisContext> ctx;
    /// Resident-size estimate used for the byte bound.
    std::size_t bytes = 0;
    /// Serializes request execution over the shared (non-thread-safe)
    /// AnalysisContext.  Different entries run in parallel.
    std::mutex mutex;
  };

  struct Acquired {
    std::shared_ptr<Entry> entry;
    /// True when this call paid no parse: the entry pre-existed, or a
    /// concurrent caller's in-flight admission supplied it.
    bool hit = false;
  };

  using HashFn = std::uint64_t (*)(std::string_view);

  /// 0 means unbounded on that axis.  At least one admitted entry is
  /// always retained, so a single graph larger than maxBytes still
  /// serves (it just evicts everything else).  `hash` keys the entries;
  /// tests pass a weak one to make distinct sources collide.
  GraphCache(std::size_t maxEntries, std::size_t maxBytes,
             HashFn hash = contentHash);

  GraphCache(const GraphCache&) = delete;
  GraphCache& operator=(const GraphCache&) = delete;

  /// Looks up (or parses, analyzes and admits) the graph with this
  /// source text.  Throws what the reader/validator throws on a miss
  /// over bad input (support::ParseError with position, ModelError);
  /// the cache is unchanged in that case, and callers that were waiting
  /// on that admission get the same error.
  Acquired acquire(const std::string& text);

  CacheStats stats() const;
  std::size_t maxEntries() const { return maxEntries_; }
  std::size_t maxBytes() const { return maxBytes_; }

 private:
  using Lru = std::list<std::shared_ptr<Entry>>;

  /// Evicts from the LRU tail until both bounds hold (keeps >= 1).
  void evictLocked();
  /// Unlinks one entry and releases its source text.
  void evictLocked(Lru::iterator victim);

  /// An admission in progress: the text being parsed (alive while the
  /// admitting call runs) and the entry it will produce.
  struct Inflight {
    std::string_view text;
    std::shared_future<std::shared_ptr<Entry>> admitted;
  };

  const std::size_t maxEntries_;
  const std::size_t maxBytes_;
  const HashFn hash_;

  mutable std::mutex mutex_;
  Lru lru_;  // front = most recently used
  std::unordered_map<std::uint64_t, Lru::iterator> index_;
  /// Admissions in progress (parse outside the lock), by hash.
  std::unordered_map<std::uint64_t, Inflight> inflight_;
  std::size_t bytes_ = 0;
  CacheStats counters_;  // entries/bytes filled in by stats()
};

}  // namespace tpdf::serve
