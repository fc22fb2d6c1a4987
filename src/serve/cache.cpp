#include "serve/cache.hpp"

#include <exception>
#include <optional>
#include <utility>

#include "io/format.hpp"

namespace tpdf::serve {

std::uint64_t contentHash(std::string_view text) {
  // FNV-1a, 64-bit.
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string cacheId(std::uint64_t hash) {
  static const char* hex = "0123456789abcdef";
  std::string id = "#0000000000000000";
  for (int i = 16; i >= 1; --i) {
    id[static_cast<std::size_t>(i)] = hex[hash & 0xf];
    hash >>= 4;
  }
  return id;
}

void CacheStats::write(support::json::Writer& w) const {
  w.beginObject().member("hits", hits).member("misses", misses);
  w.member("evictions", evictions).member("entries", entries);
  w.member("bytes", bytes).endObject();
}

GraphCache::GraphCache(std::size_t maxEntries, std::size_t maxBytes)
    : maxEntries_(maxEntries), maxBytes_(maxBytes) {}

GraphCache::Acquired GraphCache::acquire(const std::string& text) {
  const std::uint64_t hash = contentHash(text);
  // Engaged only on a miss: a hit pays no shared-state allocation.
  std::optional<std::promise<std::shared_ptr<Entry>>> admission;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    const auto it = index_.find(hash);
    if (it != index_.end()) {
      ++counters_.hits;
      lru_.splice(lru_.begin(), lru_, it->second);
      return {*it->second, true};
    }
    const auto pending = inflight_.find(hash);
    if (pending != inflight_.end()) {
      // Single flight: another thread is admitting this source.  Wait
      // for its entry instead of parsing it again — a hit, since this
      // thread pays no parse.  A failed parse rethrows its error here.
      const std::shared_future<std::shared_ptr<Entry>> admitted =
          pending->second;
      lock.unlock();
      std::shared_ptr<Entry> entry = admitted.get();
      lock.lock();
      ++counters_.hits;
      return {std::move(entry), true};
    }
    inflight_.emplace(hash, admission.emplace().get_future().share());
  }

  // Miss: parse and build the analysis context OUTSIDE the cache lock,
  // so concurrent misses on different graphs proceed in parallel.  Bad
  // input throws here (ParseError/ModelError) and the cache stays
  // untouched.
  std::shared_ptr<Entry> fresh;
  try {
    fresh = std::make_shared<Entry>();
    fresh->hash = hash;
    fresh->id = cacheId(hash);
    fresh->model = std::make_shared<core::TpdfGraph>(io::readGraph(text));
    fresh->ctx =
        std::make_shared<core::AnalysisContext>(fresh->model->graph());
    const graph::Graph& g = fresh->model->graph();
    fresh->bytes =
        text.size() + g.namePoolBytes() + g.frozenBytes() + sizeof(Entry);
  } catch (...) {
    std::lock_guard<std::mutex> lock(mutex_);
    inflight_.erase(hash);
    admission->set_exception(std::current_exception());
    throw;
  }

  std::lock_guard<std::mutex> lock(mutex_);
  inflight_.erase(hash);
  ++counters_.misses;
  bytes_ += fresh->bytes;
  lru_.push_front(fresh);
  index_.emplace(hash, lru_.begin());
  evictLocked();
  admission->set_value(fresh);
  return {std::move(fresh), false};
}

void GraphCache::evictLocked() {
  while (lru_.size() > 1 &&
         ((maxEntries_ != 0 && lru_.size() > maxEntries_) ||
          (maxBytes_ != 0 && bytes_ > maxBytes_))) {
    const std::shared_ptr<Entry>& victim = lru_.back();
    ++counters_.evictions;
    bytes_ -= victim->bytes;
    index_.erase(victim->hash);
    lru_.pop_back();
  }
}

CacheStats GraphCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  CacheStats snapshot = counters_;
  snapshot.entries = lru_.size();
  snapshot.bytes = bytes_;
  return snapshot;
}

}  // namespace tpdf::serve
