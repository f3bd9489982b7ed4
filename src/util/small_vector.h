// SmallVector: a contiguous vector with inline storage for the first N
// elements, so the extent-map hot paths (Lookup/Update segment outputs,
// typically 1-3 entries) never touch the heap.
//
// Deliberately minimal — push/emplace, clear, reserve, iteration, copy and
// move — which is all the translation-map and journal-record call sites
// need.
#ifndef SRC_UTIL_SMALL_VECTOR_H_
#define SRC_UTIL_SMALL_VECTOR_H_

#include <cassert>
#include <cstddef>
#include <initializer_list>
#include <new>
#include <type_traits>
#include <utility>

namespace lsvd {

template <typename T, size_t N>
class SmallVector {
 public:
  static_assert(N > 0, "inline capacity must be non-zero");

  SmallVector() noexcept : data_(InlineData()), size_(0), cap_(N) {}

  SmallVector(std::initializer_list<T> init) : SmallVector() {
    reserve(init.size());
    for (const T& v : init) {
      ::new (data_ + size_) T(v);
      size_++;
    }
  }

  SmallVector(const SmallVector& other) : SmallVector() {
    reserve(other.size_);
    for (size_t i = 0; i < other.size_; i++) {
      ::new (data_ + i) T(other.data_[i]);
    }
    size_ = other.size_;
  }

  SmallVector(SmallVector&& other) noexcept : SmallVector() {
    TakeFrom(std::move(other));
  }

  SmallVector& operator=(const SmallVector& other) {
    if (this != &other) {
      clear();
      reserve(other.size_);
      for (size_t i = 0; i < other.size_; i++) {
        ::new (data_ + i) T(other.data_[i]);
      }
      size_ = other.size_;
    }
    return *this;
  }

  SmallVector& operator=(SmallVector&& other) noexcept {
    if (this != &other) {
      Deallocate();
      data_ = InlineData();
      size_ = 0;
      cap_ = N;
      TakeFrom(std::move(other));
    }
    return *this;
  }

  ~SmallVector() { Deallocate(); }

  T* data() { return data_; }
  const T* data() const { return data_; }
  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return cap_; }
  bool is_inline() const { return data_ == InlineData(); }

  T& operator[](size_t i) {
    assert(i < size_);
    return data_[i];
  }
  const T& operator[](size_t i) const {
    assert(i < size_);
    return data_[i];
  }
  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }
  T& back() { return (*this)[size_ - 1]; }
  const T& back() const { return (*this)[size_ - 1]; }

  void push_back(const T& v) { emplace_back(v); }
  void push_back(T&& v) { emplace_back(std::move(v)); }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == cap_) {
      // Construct into the fresh storage before the old elements are moved
      // out and freed: the arguments may reference an element of this
      // vector (push_back(v[0])), which std::vector guarantees works.
      const size_t new_cap = cap_ * 2;
      T* fresh = Allocate(new_cap);
      T* slot = ::new (fresh + size_) T(std::forward<Args>(args)...);
      Rehome(fresh, new_cap);
      size_++;
      return *slot;
    }
    T* slot = ::new (data_ + size_) T(std::forward<Args>(args)...);
    size_++;
    return *slot;
  }

  void pop_back() {
    assert(size_ > 0);
    size_--;
    data_[size_].~T();
  }

  // Destroys elements but keeps the current storage (inline or heap), so a
  // scratch vector reused across calls stops reallocating once warm.
  void clear() {
    for (size_t i = 0; i < size_; i++) {
      data_[i].~T();
    }
    size_ = 0;
  }

  void reserve(size_t want) {
    if (want > cap_) {
      Grow(want);
    }
  }

  friend bool operator==(const SmallVector& a, const SmallVector& b) {
    if (a.size_ != b.size_) {
      return false;
    }
    for (size_t i = 0; i < a.size_; i++) {
      if (!(a.data_[i] == b.data_[i])) {
        return false;
      }
    }
    return true;
  }

 private:
  T* InlineData() { return reinterpret_cast<T*>(inline_); }
  const T* InlineData() const { return reinterpret_cast<const T*>(inline_); }

  static T* Allocate(size_t cap) {
    return static_cast<T*>(
        ::operator new(cap * sizeof(T), std::align_val_t(alignof(T))));
  }

  // Moves the live elements into `fresh` and retires the old storage.
  // `fresh` may already hold a just-constructed element past size_ (the
  // emplace_back growth path), which this leaves untouched.
  void Rehome(T* fresh, size_t new_cap) {
    for (size_t i = 0; i < size_; i++) {
      ::new (fresh + i) T(std::move(data_[i]));
      data_[i].~T();
    }
    if (!is_inline()) {
      ::operator delete(data_, std::align_val_t(alignof(T)));
    }
    data_ = fresh;
    cap_ = new_cap;
  }

  void Grow(size_t want) {
    const size_t new_cap = want > cap_ * 2 ? want : cap_ * 2;
    Rehome(Allocate(new_cap), new_cap);
  }

  // Move-assignment helper: expects *this to be empty and inline.
  void TakeFrom(SmallVector&& other) noexcept {
    if (other.is_inline()) {
      for (size_t i = 0; i < other.size_; i++) {
        ::new (data_ + i) T(std::move(other.data_[i]));
        other.data_[i].~T();
      }
      size_ = other.size_;
      other.size_ = 0;
    } else {
      data_ = other.data_;
      size_ = other.size_;
      cap_ = other.cap_;
      other.data_ = other.InlineData();
      other.size_ = 0;
      other.cap_ = N;
    }
  }

  void Deallocate() {
    clear();
    if (!is_inline()) {
      ::operator delete(data_, std::align_val_t(alignof(T)));
    }
  }

  T* data_;
  size_t size_;
  size_t cap_;
  alignas(T) unsigned char inline_[N * sizeof(T)];
};

}  // namespace lsvd

#endif  // SRC_UTIL_SMALL_VECTOR_H_
