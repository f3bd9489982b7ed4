// InlineFn<R(Args...), N>: a move-only type-erased callable with
// small-buffer storage, for completion callbacks on the simulator's hot
// paths.
//
// `std::function` heap-allocates any capture list larger than two pointers
// (or any capture that is not trivially copyable), which puts one
// malloc/free pair on every callback that carries a `shared_ptr`, a `Buffer`
// or another callback. InlineFn stores callables up to `N` bytes directly
// inside the object (no allocation) and falls back to the heap only for
// oversized or over-aligned captures. Trivially-copyable captures — most
// event lambdas, which capture `this` plus a few integers — relocate with a
// memcpy instead of a virtual move call.
//
// Two instantiations carry the simulator's callbacks:
//  - `Simulator::Fn` = InlineFn<void(), 64>, every scheduled event, every
//    backend-cluster, disk-model, server-queue and network-link completion,
//    and every QoS admission;
//  - `BlockDevice::WriteCallback` = InlineFn<void(Status), 64> and
//    `ReadCallback` = InlineFn<void(Result<Buffer>), 64>, the SSD's, which
//    the write and read caches' ReadData pass through unwrapped.
// A callback that has to hold another callback does not fit in one of the
// same size; such layers park the inner callback in a slot of their own
// and capture the slot index instead: SimSsd's pending requests, LsvdDisk's
// writes (`journaled_`) and reads (`reading_`), and SimObjectStore's GETs.
#ifndef SRC_UTIL_INLINE_FN_H_
#define SRC_UTIL_INLINE_FN_H_

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace lsvd {

template <typename Signature, size_t kInlineBytes>
class InlineFn;

template <typename R, typename... Args, size_t kInlineBytes>
class InlineFn<R(Args...), kInlineBytes> {
 public:
  InlineFn() noexcept = default;

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, InlineFn> &&
                std::is_invocable_r_v<R, D&, Args...>>>
  InlineFn(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for
                     // std::function at every callback parameter.
    if constexpr (FitsInline<D>()) {
      ::new (static_cast<void*>(&storage_)) D(std::forward<F>(f));
      ops_ = InlineOps<D>();
    } else {
      // Oversized capture: the buffer holds a single owning pointer.
      D* heap = new D(std::forward<F>(f));
      std::memcpy(&storage_, &heap, sizeof(heap));
      ops_ = HeapOps<D>();
    }
  }

  InlineFn(InlineFn&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(&storage_, &other.storage_);
      other.ops_ = nullptr;
    }
  }

  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      Reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(&storage_, &other.storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;

  ~InlineFn() { Reset(); }

  R operator()(Args... args) {
    return ops_->invoke(&storage_, std::forward<Args>(args)...);
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  // True when the callable lives in the inline buffer (tests, benchmarks).
  bool is_inline() const noexcept {
    return ops_ != nullptr && ops_->inline_storage;
  }

  static constexpr size_t inline_capacity() { return kInlineBytes; }

 private:
  struct Ops {
    R (*invoke)(void* storage, Args&&... args);
    // Move-constructs `dst` from `src` and destroys `src` (one call instead
    // of a move + destroy pair; memcpy for trivially-copyable captures).
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage) noexcept;
    bool inline_storage;
  };

  template <typename D>
  static constexpr bool FitsInline() {
    return sizeof(D) <= kInlineBytes &&
           alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  template <typename D>
  static D* As(void* storage) {
    return std::launder(reinterpret_cast<D*>(storage));
  }

  template <typename D>
  static R Invoke(D& f, Args&&... args) {
    if constexpr (std::is_void_v<R>) {
      f(std::forward<Args>(args)...);
    } else {
      return f(std::forward<Args>(args)...);
    }
  }

  template <typename D>
  static const Ops* InlineOps() {
    if constexpr (std::is_trivially_copyable_v<D> &&
                  std::is_trivially_destructible_v<D>) {
      static constexpr Ops ops = {
          [](void* s, Args&&... args) -> R {
            return Invoke(*As<D>(s), std::forward<Args>(args)...);
          },
          [](void* dst, void* src) noexcept { std::memcpy(dst, src,
                                                          sizeof(D)); },
          [](void*) noexcept {},
          /*inline_storage=*/true,
      };
      return &ops;
    } else {
      static constexpr Ops ops = {
          [](void* s, Args&&... args) -> R {
            return Invoke(*As<D>(s), std::forward<Args>(args)...);
          },
          [](void* dst, void* src) noexcept {
            D* from = As<D>(src);
            ::new (dst) D(std::move(*from));
            from->~D();
          },
          [](void* s) noexcept { As<D>(s)->~D(); },
          /*inline_storage=*/true,
      };
      return &ops;
    }
  }

  template <typename D>
  static const Ops* HeapOps() {
    static constexpr Ops ops = {
        [](void* s, Args&&... args) -> R {
          D* heap;
          std::memcpy(&heap, s, sizeof(heap));
          return Invoke(*heap, std::forward<Args>(args)...);
        },
        [](void* dst, void* src) noexcept {
          std::memcpy(dst, src, sizeof(D*));
        },
        [](void* s) noexcept {
          D* heap;
          std::memcpy(&heap, s, sizeof(heap));
          delete heap;
        },
        /*inline_storage=*/false,
    };
    return &ops;
  }

  void Reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(&storage_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace lsvd

#endif  // SRC_UTIL_INLINE_FN_H_
