// Small-buffer callback type for the event engine.
//
// std::function pays a heap allocation for any capture larger than its tiny
// internal buffer, and the old simulator paid that price once per scheduled
// event. sim::Callback is a move-only callable wrapper with 32 bytes of
// inline storage at 8-byte alignment, so the whole wrapper is 40 bytes and
// an EventNode fits one 64-byte cache line (timing_wheel.hpp). Captures
// that are larger, aligned above 8 bytes, or throwing on move take the heap
// path. The request path fits: its closures carry a node pointer, a
// simulator-owned liveness flag (Simulator::new_liveness_flag) and a 4-byte
// nodes::RequestHandle, plus a server pointer on the forward hop or a sink
// pointer on a server's completion — 24 or 32 bytes, trivially copyable, so
// a move is a memcpy and a reset does nothing.
// An admitted L4 request costs about 0.01 operator new calls
// (tests/alloc_count_test.cpp, docs/sim-performance.md, DESIGN.md D8).
#pragma once

#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "util/assert.hpp"

namespace sharegrid::sim {

/// Move-only `void()` callable with small-buffer optimization.
class Callback {
 public:
  /// Inline capture budget. Sized so closures of `this` plus a liveness
  /// flag pointer plus a handle and a server pointer, or a std::function
  /// copy, stay allocation-free, while an EventNode packs into one cache
  /// line.
  static constexpr std::size_t kInlineBytes = 32;
  /// Alignment of the inline buffer; captures aligned above it go to the
  /// heap.
  static constexpr std::size_t kInlineAlign = alignof(void*);

  Callback() noexcept = default;
  Callback(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <class F,
            std::enable_if_t<!std::is_same_v<std::decay_t<F>, Callback> &&
                                 std::is_invocable_r_v<void, std::decay_t<F>&>,
                             int> = 0>
  Callback(F&& fn) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(fn));
  }

  Callback(Callback&& other) noexcept { move_from(other); }

  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  /// Assigning a raw callable constructs it directly in the buffer — no
  /// intermediate Callback, no relocation. This is the per-event schedule
  /// path: the closure materializes once, in the event node.
  template <class F,
            std::enable_if_t<!std::is_same_v<std::decay_t<F>, Callback> &&
                                 std::is_invocable_r_v<void, std::decay_t<F>&>,
                             int> = 0>
  Callback& operator=(F&& fn) {
    reset();
    emplace(std::forward<F>(fn));
    return *this;
  }

  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;

  ~Callback() { reset(); }

  /// Invokes the wrapped callable; the callback must be non-empty.
  void operator()() {
    SHAREGRID_EXPECTS(ops_ != nullptr);
    ops_->invoke(storage_);
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  friend bool operator==(const Callback& cb, std::nullptr_t) noexcept {
    return cb.ops_ == nullptr;
  }

  /// Destroys the wrapped callable, leaving the callback empty.
  void reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    // Move-constructs into dst from src and destroys src's callable.
    // nullptr means the bytes may simply be copied (trivially relocatable).
    void (*relocate)(void* dst, void* src) noexcept;
    // nullptr means trivially destructible: nothing to do.
    void (*destroy)(void* storage) noexcept;
  };

  template <class F>
  static constexpr bool fits_inline() {
    return sizeof(F) <= kInlineBytes &&
           alignof(F) <= kInlineAlign &&
           std::is_nothrow_move_constructible_v<F>;
  }

  template <class F>
  static constexpr Ops kInlineOps = {
      [](void* storage) { (*std::launder(reinterpret_cast<F*>(storage)))(); },
      std::is_trivially_copyable_v<F> && std::is_trivially_destructible_v<F>
          ? nullptr  // raw byte copy suffices; move_from memcpys the buffer
          : +[](void* dst, void* src) noexcept {
              F* from = std::launder(reinterpret_cast<F*>(src));
              ::new (dst) F(std::move(*from));
              from->~F();
            },
      std::is_trivially_destructible_v<F>
          ? nullptr
          : +[](void* storage) noexcept {
              std::launder(reinterpret_cast<F*>(storage))->~F();
            }};

  template <class F>
  static constexpr Ops kHeapOps = {
      [](void* storage) {
        (**std::launder(reinterpret_cast<F**>(storage)))();
      },
      nullptr,  // the stored pointer relocates by byte copy
      [](void* storage) noexcept {
        delete *std::launder(reinterpret_cast<F**>(storage));
      }};

  template <class F>
  void emplace(F&& fn) {
    using Decayed = std::decay_t<F>;
    if constexpr (fits_inline<Decayed>()) {
      ::new (static_cast<void*>(storage_)) Decayed(std::forward<F>(fn));
      ops_ = &kInlineOps<Decayed>;
    } else {
      ::new (static_cast<void*>(storage_))
          Decayed*(new Decayed(std::forward<F>(fn)));
      ops_ = &kHeapOps<Decayed>;
    }
  }

  void move_from(Callback& other) noexcept {
    if (other.ops_ != nullptr) {
      if (other.ops_->relocate != nullptr) {
        other.ops_->relocate(storage_, other.storage_);
      } else {
        std::memcpy(storage_, other.storage_, kInlineBytes);
      }
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  alignas(kInlineAlign) std::byte storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

static_assert(sizeof(Callback) == Callback::kInlineBytes + sizeof(void*),
              "Callback is its inline buffer plus one ops pointer");

}  // namespace sharegrid::sim
