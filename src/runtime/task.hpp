#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>


/// Small-buffer-optimized move-only callable used for every scheduled event.
///
/// The discrete-event hot path schedules, moves (heap sifts), and fires
/// millions of closures per second; `std::function` heap-allocates for any
/// capture larger than the libstdc++ 16-byte SBO and drags copy machinery we
/// never use. `Task` stores captures up to 48 bytes inline (a cache line
/// together with its dispatch pointer), never copies, and erases through a
/// static ops table — so the schedule/fire cycle of a typical worker closure
/// (a few pointers and a TimePoint) does zero allocations.
namespace ilu {

class Task {
 public:
  /// Captures up to this size (and alignof <= kInlineAlign, nothrow-movable)
  /// are stored inline; larger ones fall back to a single heap node.
  static constexpr std::size_t kInlineSize = 48;
  static constexpr std::size_t kInlineAlign = alignof(std::max_align_t);

  Task() noexcept = default;
  Task(std::nullptr_t) noexcept {}

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Task> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  Task(F&& f) {  // NOLINT(google-explicit-constructor): mirrors std::function
    emplace(std::forward<F>(f));
  }

  Task(Task&& other) noexcept { move_from(other); }
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { reset(); }

  void operator()() { ops_->invoke(buf_); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  /// True when the callable lives in the inline buffer (for tests/benches).
  bool is_inline() const noexcept { return ops_ != nullptr && ops_->inline_stored; }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*destroy)(void*) noexcept;
    /// Move-construct into dst from src, then destroy src.
    void (*relocate)(void* dst, void* src) noexcept;
    bool inline_stored;
  };

  template <typename D>
  struct InlineOps {
    static void invoke(void* p) { (*static_cast<D*>(p))(); }
    static void destroy(void* p) noexcept { static_cast<D*>(p)->~D(); }
    static void relocate(void* dst, void* src) noexcept {
      ::new (dst) D(std::move(*static_cast<D*>(src)));
      static_cast<D*>(src)->~D();
    }
  };

  template <typename D>
  struct HeapOps {
    static D* ptr(void* p) noexcept { return *static_cast<D**>(p); }
    static void invoke(void* p) { (*ptr(p))(); }
    static void destroy(void* p) noexcept { delete ptr(p); }
    static void relocate(void* dst, void* src) noexcept {
      *static_cast<D**>(dst) = ptr(src);
    }
  };

  template <typename D>
  static constexpr Ops kInlineOps{&InlineOps<D>::invoke, &InlineOps<D>::destroy,
                                  &InlineOps<D>::relocate, true};
  template <typename D>
  static constexpr Ops kHeapOps{&HeapOps<D>::invoke, &HeapOps<D>::destroy,
                                &HeapOps<D>::relocate, false};

  template <typename F>
  void emplace(F&& f) {
    using D = std::decay_t<F>;
    // The move must be noexcept for inline storage: heap sifts and Task moves
    // are declared noexcept.
    if constexpr (sizeof(D) <= kInlineSize && alignof(D) <= kInlineAlign &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      *reinterpret_cast<D**>(static_cast<void*>(buf_)) =
          new D(std::forward<F>(f));
      ops_ = &kHeapOps<D>;
    }
  }

  void move_from(Task& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  alignas(kInlineAlign) unsigned char buf_[kInlineSize];
  const Ops* ops_ = nullptr;
};

}  // namespace ilu
