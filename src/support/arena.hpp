// Monotonic bump allocation for graph-scale payloads.
//
// A million-actor Graph owns several million small, immutable byte
// payloads: actor/port/channel names, the interned string pool behind
// them, and the frozen CSR blocks.  Allocating each through the global
// heap costs a malloc header plus pointer chasing per node; an Arena
// hands out pointers from large monotonic chunks instead, so a payload
// costs a bump and everything allocated stays put until the arena dies.
//
// Chunks are never reallocated or freed individually (monotonic), which
// is the property the Graph name pool relies on: a std::string_view into
// an arena chunk stays valid across any amount of later growth.  Memory
// is returned only by destroying (or moving from) the whole arena —
// exactly the lifetime of the Graph that owns it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <string_view>
#include <type_traits>
#include <unordered_set>
#include <vector>

namespace tpdf::support {

/// Bump allocator over monotonically growing chunks.  Not synchronized;
/// movable, not copyable (handed-out pointers stay valid across moves).
class Arena {
 public:
  explicit Arena(std::size_t firstChunkBytes = kDefaultFirstChunk)
      : nextChunkBytes_(firstChunkBytes == 0 ? kDefaultFirstChunk
                                             : firstChunkBytes) {}

  Arena(Arena&&) noexcept = default;
  Arena& operator=(Arena&&) noexcept = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Bytes handed out so far (excludes per-chunk slack).
  std::size_t bytesUsed() const { return used_; }
  /// Bytes reserved from the system across all chunks.
  std::size_t bytesReserved() const { return reserved_; }
  std::size_t chunkCount() const { return chunks_.size(); }

  /// Raw allocation; `align` must be a power of two.
  void* allocate(std::size_t size, std::size_t align) {
    std::uintptr_t p = reinterpret_cast<std::uintptr_t>(cur_);
    const std::uintptr_t aligned = (p + (align - 1)) & ~(align - 1);
    const std::size_t need = size + static_cast<std::size_t>(aligned - p);
    if (need > static_cast<std::size_t>(end_ - cur_)) {
      grow(size + align);
      return allocate(size, align);
    }
    cur_ = reinterpret_cast<std::byte*>(aligned) + size;
    used_ += need;
    return reinterpret_cast<void*>(aligned);
  }

  /// Typed array allocation (uninitialized for trivial T).
  template <typename T>
  T* allocateArray(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena memory is never destructed element-wise");
    if (n == 0) return nullptr;
    return static_cast<T*>(allocate(n * sizeof(T), alignof(T)));
  }

  /// Copies `s` into the arena; the returned view is stable for the
  /// arena's lifetime.
  std::string_view copyString(std::string_view s) {
    if (s.empty()) return {};
    char* p = allocateArray<char>(s.size());
    std::memcpy(p, s.data(), s.size());
    return {p, s.size()};
  }

  /// Invalidates everything allocated so far and makes the space
  /// available again, retaining the largest chunk so a rebuild of the
  /// same data does not go back through the system allocator.  NOT
  /// usable under the interned-name pool, whose views must stay valid
  /// for the owner's whole lifetime.
  void clear() {
    std::size_t largest = 0;
    std::size_t largestBytes = 0;
    for (std::size_t i = 0; i < chunks_.size(); ++i) {
      if (chunkBytes_[i] >= largestBytes) {
        largestBytes = chunkBytes_[i];
        largest = i;
      }
    }
    if (!chunks_.empty() && largest != 0) {
      std::swap(chunks_[0], chunks_[largest]);
      std::swap(chunkBytes_[0], chunkBytes_[largest]);
    }
    chunks_.resize(chunks_.empty() ? 0 : 1);
    chunkBytes_.resize(chunks_.size());
    used_ = 0;
    if (chunks_.empty()) {
      cur_ = end_ = nullptr;
      reserved_ = 0;
    } else {
      cur_ = chunks_[0].get();
      end_ = cur_ + chunkBytes_[0];
      reserved_ = chunkBytes_[0];
    }
  }

 private:
  static constexpr std::size_t kDefaultFirstChunk = 4096;
  static constexpr std::size_t kMaxChunk = std::size_t{1} << 20;  // 1 MiB

  void grow(std::size_t atLeast) {
    std::size_t bytes = nextChunkBytes_;
    if (bytes < atLeast) bytes = atLeast;
    chunks_.push_back(std::make_unique<std::byte[]>(bytes));
    chunkBytes_.push_back(bytes);
    cur_ = chunks_.back().get();
    end_ = cur_ + bytes;
    reserved_ += bytes;
    if (nextChunkBytes_ < kMaxChunk) nextChunkBytes_ *= 2;
  }

  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  std::vector<std::size_t> chunkBytes_;
  std::byte* cur_ = nullptr;
  std::byte* end_ = nullptr;
  std::size_t used_ = 0;
  std::size_t reserved_ = 0;
  std::size_t nextChunkBytes_;
};

/// Deduplicating string pool on an Arena.  intern() returns a stable
/// std::string_view; equal strings share one copy (port names like "i"
/// and "o" repeat once per actor in generated graphs, so deduplication
/// is the difference between O(distinct) and O(total) pool bytes).
class StringInterner {
 public:
  StringInterner() = default;

  StringInterner(StringInterner&&) noexcept = default;
  StringInterner& operator=(StringInterner&&) noexcept = default;
  StringInterner(const StringInterner&) = delete;
  StringInterner& operator=(const StringInterner&) = delete;

  std::string_view intern(std::string_view s) {
    const auto it = index_.find(s);
    if (it != index_.end()) return *it;
    const std::string_view stored = arena_.copyString(s);
    index_.insert(stored);
    return stored;
  }

  /// Stores `s` without the dedupe lookup, for strings known unique.
  std::string_view copy(std::string_view s) { return arena_.copyString(s); }

  bool contains(std::string_view s) const { return index_.count(s) != 0; }
  std::size_t size() const { return index_.size(); }
  std::size_t bytesUsed() const { return arena_.bytesUsed(); }

 private:
  Arena arena_;
  // Keys view into arena chunks, which never move: safe to index.
  std::unordered_set<std::string_view> index_;
};

}  // namespace tpdf::support
