#pragma once
// sim::Callback: the move-only `void()` callable every simulator event
// holds. The capture lives in a fixed inline buffer and there is no heap
// path: a Callback is exactly one 64-byte cache line (the event queue's
// slot), so scheduling an event never touches the allocator.
//
// A capture that does not fit is a compile error, not a silent
// allocation. Event sites capture `this` plus small ids or indices and
// keep bulky per-request state in their owner (see the simulator section
// of docs/ARCHITECTURE.md for the rule).

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace capes::sim {

class Callback {
 public:
  /// Bytes available to a capture: a 64-byte line minus the ops pointer.
  static constexpr std::size_t kCapacity = 56;
  static constexpr std::size_t kAlignment = alignof(void*);

  /// An empty callback; invoking it is undefined.
  Callback() = default;

  /// Wrap a void() callable. Implicit so that call sites pass lambdas
  /// directly.
  template <typename F, typename Fn = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<Fn, Callback> &&
                                        std::is_invocable_r_v<void, Fn&>>>
  Callback(F&& f)  // NOLINT(google-explicit-constructor)
      : ops_(&kOps<Fn>) {
    static_assert(sizeof(Fn) <= kCapacity,
                  "event capture exceeds sim::Callback::kCapacity (56 bytes): "
                  "capture `this` and an index, keep the state in the owner");
    static_assert(alignof(Fn) <= kAlignment,
                  "event capture is over-aligned for sim::Callback");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "event capture must be nothrow-movable");
    ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
  }

  Callback(Callback&& other) noexcept { take(other); }
  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;
  ~Callback() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() { ops_->invoke(buf_); }

 private:
  struct Ops {
    void (*invoke)(void* self);
    /// Move-construct into `to`, then destroy `from`; null = memcpy.
    void (*relocate)(void* from, void* to);
    /// Null when destruction is a no-op.
    void (*destroy)(void* self);
  };

  template <typename Fn>
  static void invoke_fn(void* self) {
    (*static_cast<Fn*>(self))();
  }
  template <typename Fn>
  static void relocate_fn(void* from, void* to) {
    Fn* src = static_cast<Fn*>(from);
    ::new (to) Fn(std::move(*src));
    src->~Fn();
  }
  template <typename Fn>
  static void destroy_fn(void* self) {
    static_cast<Fn*>(self)->~Fn();
  }

  template <typename Fn>
  static constexpr Ops kOps = {
      &invoke_fn<Fn>,
      std::is_trivially_copyable_v<Fn> ? nullptr : &relocate_fn<Fn>,
      std::is_trivially_destructible_v<Fn> ? nullptr : &destroy_fn<Fn>};

  void take(Callback& other) noexcept {
    ops_ = other.ops_;
    if (ops_ == nullptr) return;
    if (ops_->relocate != nullptr) {
      ops_->relocate(other.buf_, buf_);
    } else {
      std::memcpy(buf_, other.buf_, kCapacity);
    }
    other.ops_ = nullptr;
  }

  void reset() {
    if (ops_ != nullptr && ops_->destroy != nullptr) ops_->destroy(buf_);
    ops_ = nullptr;
  }

  const Ops* ops_ = nullptr;
  alignas(kAlignment) unsigned char buf_[kCapacity];
};

static_assert(sizeof(Callback) == 64, "a Callback fills one cache line");

}  // namespace capes::sim
