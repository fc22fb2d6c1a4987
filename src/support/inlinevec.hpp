// A small-buffer vector: `N` elements of inline storage, heap beyond.
//
// The symbolic kernel keeps Expr term lists, RateSeq entries, monomial
// exponent lists and evaluation caches in these, and Actor keeps its
// per-phase execution times.  Almost every rate expression in a real
// graph is a single constant or a single monomial mentioning at most two
// parameters, so the inline slots remove the per-node heap allocation
// that a std::vector (or std::map) representation pays on every
// construction and copy in the graph-build and analysis loops.
//
// Any element type works (full construct/destroy bookkeeping, move-aware
// growth); trivially copyable payloads take plain memcpy paths for
// growth and copies, with no per-element lifetime calls.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <new>
#include <type_traits>
#include <utility>

namespace tpdf::support {

/// Contiguous dynamic array with `N` elements of inline storage.
template <typename T, std::size_t N>
class InlineVec {
  static_assert(N > 0, "inline capacity must be positive");
  static constexpr bool kTrivial = std::is_trivially_copyable_v<T>;

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  // User-provided (not defaulted) so const-qualified default-initialized
  // instances remain legal; the inline bytes need no initialization.
  InlineVec() {}

  InlineVec(std::initializer_list<T> init) {
    assignCopy(init.begin(), init.size());
  }

  InlineVec& operator=(std::initializer_list<T> init) {
    assignCopy(init.begin(), init.size());
    return *this;
  }

  InlineVec(const InlineVec& o) { assignCopy(o.data_, o.size_); }

  InlineVec(InlineVec&& o) noexcept { takeFrom(o); }

  InlineVec& operator=(const InlineVec& o) {
    if (this != &o) assignCopy(o.data_, o.size_);
    return *this;
  }

  InlineVec& operator=(InlineVec&& o) noexcept {
    if (this == &o) return *this;
    destroyAll();
    if (o.onHeap() && onHeap()) {
      ::operator delete(data_);
      data_ = inlineData();
      cap_ = N;
    }
    takeFrom(o);
    return *this;
  }

  ~InlineVec() {
    destroyAll();
    if (onHeap()) ::operator delete(data_);
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return cap_; }

  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  T* data() { return data_; }
  const T* data() const { return data_; }

  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  T& front() { return data_[0]; }
  const T& front() const { return data_[0]; }
  T& back() { return data_[size_ - 1]; }
  const T& back() const { return data_[size_ - 1]; }

  void clear() { destroyAll(); }

  void reserve(std::size_t n) {
    if (n > cap_) grow(n);
  }

  void push_back(const T& v) {
    if (size_ == cap_) {
      // `v` may alias an element (v = vec[i]); growth frees the old
      // buffer, so copy it aside first in that case.
      if (&v >= data_ && &v < data_ + size_) {
        T aside(v);
        grow(cap_ * 2);
        ::new (data_ + size_) T(std::move(aside));
        ++size_;
        return;
      }
      grow(cap_ * 2);
    }
    ::new (data_ + size_) T(v);
    ++size_;
  }

  // Unlike push_back(const T&), the rvalue overload does not support
  // aliasing an element of this vector across a growth.
  void push_back(T&& v) {
    if (size_ == cap_) grow(cap_ * 2);
    ::new (data_ + size_) T(std::move(v));
    ++size_;
  }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == cap_) grow(cap_ * 2);
    T* slot = ::new (data_ + size_) T(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }

  void pop_back() { data_[--size_].~T(); }

  /// Shrinks or value-initializes up to `n` elements.
  void resize(std::size_t n) {
    if (n < size_) {
      while (size_ > n) pop_back();
      return;
    }
    reserve(n);
    while (size_ < n) ::new (data_ + size_++) T();
  }

  bool operator==(const InlineVec& o) const {
    return size_ == o.size_ && std::equal(begin(), end(), o.begin());
  }
  bool operator!=(const InlineVec& o) const { return !(*this == o); }

 private:
  T* inlineData() { return reinterpret_cast<T*>(inline_); }
  bool onHeap() const {
    return data_ != reinterpret_cast<const T*>(inline_);
  }

  void destroyAll() {
    if constexpr (kTrivial) {
      size_ = 0;
    } else {
      while (size_ > 0) data_[--size_].~T();
    }
  }

  /// Copies `n` elements from `src` into this vector's storage after
  /// destroying the current ones.  `src` must not alias that storage.
  void assignCopy(const T* src, std::size_t n) {
    destroyAll();
    reserve(n);
    if constexpr (kTrivial) {
      if (n != 0) std::memcpy(data_, src, n * sizeof(T));
    } else {
      for (std::size_t i = 0; i < n; ++i) ::new (data_ + i) T(src[i]);
    }
    size_ = static_cast<std::uint32_t>(n);
  }

  /// Takes `o`'s elements into this empty vector: steals `o`'s heap
  /// buffer (this one must then hold no heap buffer of its own), or moves
  /// `o`'s inline elements into the current storage.  Leaves `o` empty
  /// and inline.
  void takeFrom(InlineVec& o) noexcept {
    if (o.onHeap()) {
      data_ = o.data_;
      cap_ = o.cap_;
      size_ = o.size_;
      o.data_ = o.inlineData();
      o.cap_ = N;
      o.size_ = 0;
      return;
    }
    relocate(o.data_, o.size_);
    size_ = o.size_;
    o.destroyAll();
  }

  /// Move-constructs `n` elements from `src` into data_[0, n).
  void relocate(T* src, std::size_t n) {
    if constexpr (kTrivial) {
      if (n != 0) std::memcpy(data_, src, n * sizeof(T));
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        ::new (data_ + i) T(std::move(src[i]));
      }
    }
  }

  void grow(std::size_t n) {
    const std::size_t cap = std::max<std::size_t>(n, 2 * N);
    T* old = data_;
    data_ = static_cast<T*>(::operator new(cap * sizeof(T)));
    relocate(old, size_);
    if constexpr (!kTrivial) {
      for (std::size_t i = 0; i < size_; ++i) old[i].~T();
    }
    if (old != reinterpret_cast<T*>(inline_)) ::operator delete(old);
    cap_ = static_cast<std::uint32_t>(cap);
  }

  alignas(T) unsigned char inline_[N * sizeof(T)];
  // 32-bit counts keep the header at 16 bytes: an Expr or a Monomial is
  // a small record, and graph-scale arrays of them stay compact.
  T* data_ = inlineData();
  std::uint32_t size_ = 0;
  std::uint32_t cap_ = N;
};

}  // namespace tpdf::support
