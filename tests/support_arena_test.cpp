// Arena / StringInterner / InlineVec: the storage primitives behind the
// million-actor graph layout.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "support/arena.hpp"
#include "support/inlinevec.hpp"

namespace tpdf::support {
namespace {

TEST(Arena, AllocationsAreAlignedAndDisjoint) {
  Arena arena;
  std::vector<std::pair<std::uintptr_t, std::size_t>> blocks;
  for (std::size_t align : {1u, 2u, 4u, 8u, 16u, 64u}) {
    for (std::size_t size : {1u, 3u, 7u, 100u}) {
      void* p = arena.allocate(size, align);
      ASSERT_NE(p, nullptr);
      const auto addr = reinterpret_cast<std::uintptr_t>(p);
      EXPECT_EQ(addr % align, 0u) << "align " << align;
      blocks.emplace_back(addr, size);
    }
  }
  // No two live blocks overlap.
  std::sort(blocks.begin(), blocks.end());
  for (std::size_t i = 1; i < blocks.size(); ++i) {
    EXPECT_LE(blocks[i - 1].first + blocks[i - 1].second, blocks[i].first);
  }
}

TEST(Arena, GrowsAcrossChunksWithoutMovingOldData) {
  Arena arena(64);  // tiny first chunk forces many growths
  std::vector<int*> ptrs;
  for (int i = 0; i < 1000; ++i) {
    int* p = arena.allocateArray<int>(7);
    p[0] = i;
    ptrs.push_back(p);
  }
  EXPECT_GT(arena.chunkCount(), 1u);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(*ptrs[static_cast<std::size_t>(i)], i);  // nothing moved
  }
  EXPECT_GE(arena.bytesReserved(), arena.bytesUsed());
}

TEST(Arena, OversizeAllocationGetsItsOwnChunk) {
  Arena arena(32);
  // Larger than any chunk the doubling schedule would produce next.
  char* big = arena.allocateArray<char>(1 << 16);
  ASSERT_NE(big, nullptr);
  big[0] = 'x';
  big[(1 << 16) - 1] = 'y';
  EXPECT_GE(arena.bytesReserved(), std::size_t{1} << 16);
}

TEST(Arena, CopyStringIsStableAcrossGrowth) {
  Arena arena(32);
  const std::string_view first = arena.copyString("hello-world");
  // Force lots of growth; the early view must stay intact.
  for (int i = 0; i < 10000; ++i) {
    arena.copyString("padding-padding-padding");
  }
  EXPECT_EQ(first, "hello-world");
}

TEST(Arena, ClearRecyclesSpace) {
  Arena arena(64);
  for (int i = 0; i < 1000; ++i) arena.allocateArray<std::int64_t>(16);
  const std::size_t reservedBefore = arena.bytesReserved();
  arena.clear();
  EXPECT_EQ(arena.bytesUsed(), 0u);
  EXPECT_LE(arena.bytesReserved(), reservedBefore);
  EXPECT_LE(arena.chunkCount(), 1u);
  // The retained chunk serves the rebuild without fresh reservations
  // until it fills up again.
  int* p = arena.allocateArray<int>(8);
  ASSERT_NE(p, nullptr);
  p[0] = 42;
  EXPECT_EQ(p[0], 42);
}

TEST(Arena, MoveKeepsHandedOutPointersValid) {
  Arena a(64);
  const std::string_view s = a.copyString("stable");
  Arena b = std::move(a);
  EXPECT_EQ(s, "stable");
  EXPECT_GT(b.bytesUsed(), 0u);
}

TEST(StringInterner, DeduplicatesEqualStrings) {
  StringInterner pool;
  const std::string_view a = pool.intern("actor_name");
  const std::string_view b = pool.intern(std::string("actor_name"));
  EXPECT_EQ(a.data(), b.data());  // literally the same bytes
  EXPECT_EQ(pool.size(), 1u);
  const std::string_view c = pool.intern("other");
  EXPECT_NE(a.data(), c.data());
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_TRUE(pool.contains("actor_name"));
  EXPECT_FALSE(pool.contains("missing"));
}

TEST(StringInterner, ViewsStayValidAcrossHeavyGrowth) {
  StringInterner pool;
  std::vector<std::string_view> views;
  for (int i = 0; i < 20000; ++i) {
    views.push_back(pool.intern("name_" + std::to_string(i)));
  }
  for (int i = 0; i < 20000; ++i) {
    EXPECT_EQ(views[static_cast<std::size_t>(i)],
              "name_" + std::to_string(i));
  }
  EXPECT_EQ(pool.size(), 20000u);
}

TEST(StringInterner, EmptyStringInternsToEmptyView) {
  StringInterner pool;
  const std::string_view e = pool.intern("");
  EXPECT_TRUE(e.empty());
  EXPECT_TRUE(pool.contains(""));
}

// A deliberately non-trivial element type: counts live instances so the
// vector's lifetime management is observable.
struct Probe {
  static int live;
  int value = 0;
  Probe() { ++live; }
  explicit Probe(int v) : value(v) { ++live; }
  Probe(const Probe& o) : value(o.value) { ++live; }
  Probe(Probe&& o) noexcept : value(o.value) { ++live; }
  Probe& operator=(const Probe&) = default;
  Probe& operator=(Probe&&) = default;
  ~Probe() { --live; }
  bool operator==(const Probe& o) const { return value == o.value; }
};
int Probe::live = 0;

// Every InlineVec case runs over Probe (constructor/destructor paths)
// and over int (the memcpy paths trivially copyable payloads take).
template <typename T>
T make(int v) {
  if constexpr (std::is_same_v<T, int>) {
    return v;
  } else {
    return T(v);
  }
}
int valueOf(int v) { return v; }
int valueOf(const Probe& p) { return p.value; }

/// Live Probe count; ints have no lifetime to observe.
template <typename T>
int liveCount() {
  return std::is_same_v<T, Probe> ? Probe::live : 0;
}

template <typename T, std::size_t N>
InlineVec<T, N> iota(int n) {
  InlineVec<T, N> v;
  for (int i = 0; i < n; ++i) v.push_back(make<T>(i));
  return v;
}

template <typename T>
void growthPreservesElements() {
  {
    InlineVec<T, 2> v;
    for (int i = 0; i < 100; ++i) {
      v.push_back(make<T>(i));
      ASSERT_EQ(v.size(), static_cast<std::size_t>(i + 1));
      ASSERT_EQ(valueOf(v.back()), i);
    }
    EXPECT_GE(v.capacity(), 100u);
    for (int i = 0; i < 100; ++i) {
      EXPECT_EQ(valueOf(v[static_cast<std::size_t>(i)]), i);
    }
    if constexpr (std::is_same_v<T, Probe>) {
      EXPECT_EQ(Probe::live, 100);
    }
  }
  EXPECT_EQ(liveCount<T>(), 0);  // everything destroyed exactly once
}

TEST(InlineVec, GrowthPreservesElementsAndLifetimes) {
  growthPreservesElements<Probe>();
  growthPreservesElements<int>();
}

template <typename T>
void copyAndMove() {
  using Vec = InlineVec<T, 2>;
  {
    const Vec small = iota<T, 2>(2);
    const Vec big = iota<T, 2>(10);

    Vec copy = small;  // inline -> inline
    EXPECT_EQ(copy, small);
    copy = big;  // grows to heap
    EXPECT_EQ(copy, big);
    copy = small;  // heap storage reused for a small payload
    EXPECT_EQ(copy, small);
    Vec& self = copy;  // launder: -Wself-assign-overloaded under Clang
    copy = self;
    EXPECT_EQ(copy, small);

    Vec a = big;
    Vec c = std::move(a);  // steals the heap buffer
    EXPECT_EQ(c, big);
    EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move)
    a = iota<T, 2>(1);        // a moved-from vector is reusable
    EXPECT_EQ(a, (iota<T, 2>(1)));

    // Inline-state move (no heap buffer to steal).
    InlineVec<T, 4> d;
    d.push_back(make<T>(7));
    InlineVec<T, 4> e = std::move(d);
    ASSERT_EQ(e.size(), 1u);
    EXPECT_EQ(valueOf(e[0]), 7);

    Vec b = small;
    b = c;  // copy assign over non-empty
    EXPECT_EQ(b, c);
    b = std::move(c);  // move assign heap over heap
    EXPECT_EQ(b, big);
    Vec inlineOnly = small;
    inlineOnly = std::move(b);  // move assign heap over inline
    EXPECT_EQ(inlineOnly, big);
    Vec heapOnly = big;
    heapOnly = iota<T, 2>(2);  // move assign inline over heap
    EXPECT_EQ(heapOnly, small);
  }
  EXPECT_EQ(liveCount<T>(), 0);
}

TEST(InlineVec, CopyAndMoveSemantics) {
  copyAndMove<Probe>();
  copyAndMove<int>();
}

template <typename T>
void pushBackAliasing() {
  InlineVec<T, 1> v;
  v.push_back(make<T>(41));
  // v is exactly full: pushing v[0] grows and frees the old buffer
  // while the argument still points into it.
  for (int i = 0; i < 20; ++i) v.push_back(v[0]);
  for (const T& x : v) EXPECT_EQ(valueOf(x), 41);
  // Same through the front, at every capacity from inline to heap.
  InlineVec<T, 4> w;
  w.push_back(make<T>(7));
  for (int i = 0; i < 63; ++i) w.push_back(w.front());
  for (const T& x : w) EXPECT_EQ(valueOf(x), 7);
}

TEST(InlineVec, PushBackAliasingAnElementSurvivesGrowth) {
  pushBackAliasing<Probe>();
  pushBackAliasing<int>();
}

template <typename T>
void resizeShrinksAndValueInitializes() {
  InlineVec<T, 2> v = iota<T, 2>(8);
  v.reserve(50);
  EXPECT_GE(v.capacity(), 50u);
  EXPECT_EQ(v, (iota<T, 2>(8)));
  v.resize(3);
  if constexpr (std::is_same_v<T, Probe>) {
    EXPECT_EQ(Probe::live, 3);
  }
  EXPECT_EQ(v, (iota<T, 2>(3)));
  v.resize(5);
  EXPECT_EQ(valueOf(v[3]), 0);  // value-initialized
  EXPECT_EQ(valueOf(v[4]), 0);
  v.clear();
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(liveCount<T>(), 0);
}

TEST(InlineVec, ResizeShrinksAndValueInitializes) {
  resizeShrinksAndValueInitializes<Probe>();
  resizeShrinksAndValueInitializes<int>();
}

template <typename T>
void sortAndInplaceMerge() {
  const auto less = [](const T& a, const T& b) {
    return valueOf(a) < valueOf(b);
  };
  InlineVec<T, 1> v;
  for (int x : {5, 9, 1}) v.push_back(make<T>(x));
  std::sort(v.begin(), v.end(), less);
  const std::size_t mid = v.size();
  for (int x : {0, 7}) v.push_back(make<T>(x));
  std::inplace_merge(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                     v.end(), less);
  std::vector<int> got;
  for (const T& x : v) got.push_back(valueOf(x));
  EXPECT_EQ(got, (std::vector<int>{0, 1, 5, 7, 9}));
}

TEST(InlineVec, WorksWithSortAndInplaceMerge) {
  // The exact shape Expr::mergeAccumulate relies on.
  sortAndInplaceMerge<Probe>();
  sortAndInplaceMerge<int>();
}

TEST(InlineVec, InitializerListConstructionAndAssignment) {
  // Actor::execTime's shape: one inline default, reassigned per phase.
  InlineVec<double, 2> v{1.0};
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], 1.0);
  v = {2.5, 4.0, 8.0};
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[2], 8.0);
  v = {3.0};
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], 3.0);

  InlineVec<Probe, 1> p{Probe(1), Probe(2)};
  p = {Probe(5)};
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(p[0].value, 5);
}

}  // namespace
}  // namespace tpdf::support
