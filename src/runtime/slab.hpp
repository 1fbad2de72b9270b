#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "util/dcheck.hpp"

/// Generation-checked slab store: the shared object-ownership primitive
/// behind the container pool's `ContainerStore` and the worker/baseline
/// `PendingStore`s (DESIGN.md §11). It generalizes the slot/free-list/
/// generation idiom `runtime/indexed_heap.hpp` established for heap entries
/// into a standalone owner of hot-path records:
///
///  * **Stable 8-byte handles instead of heap pointers.** A record is
///    addressed by `{index, generation}`; the index is dense and small, so
///    handle order is a canonical, run-to-run-stable order (unlike pointer
///    values, which the `ptr-order` lint check has to police). Handles are
///    trivially copyable, so continuation lambdas capture them by value with
///    no refcount traffic.
///  * **Free-list recycling.** `emplace` after steady state never touches
///    the allocator: slots are recycled LIFO. `allocations()` counts slot
///    growth events so tests can assert the steady state really is
///    allocation-free.
///  * **Stale-handle detection.** Freeing a slot bumps its generation, so a
///    retained handle can never silently alias a recycled record:
///    `contains` is always exact, and `get` on a stale handle aborts under
///    ILU_DEBUG_CHECKS.
///
/// Liveness is encoded in generation parity: live slots carry an odd
/// generation, free slots an even one. Handles are only ever issued with
/// odd generations, so a handle can never match a free slot and the slab
/// needs no separate liveness bit.
///
/// Same staleness bound as the indexed heap: generations are 32-bit, so a
/// handle parked across ~2^31 reuse cycles of its slot would falsely
/// validate. Callers keep handles only for the lifetime of the logical
/// object (an in-flight invocation, a pooled container), far below the
/// bound.
///
/// The handle type is a template parameter (any struct with u32 `index` and
/// `gen` members) so each store gets a distinct, non-interchangeable handle
/// type: a `ContainerHandle` cannot be passed where a `PendingHandle` is
/// expected.
namespace ilu {

/// Canonical handle shape. Stores can use this directly or define their own
/// struct with the same two fields for type safety.
struct SlabHandle {
  std::uint32_t index = 0;
  /// Live generations are odd; 0 marks a default-constructed (invalid)
  /// handle.
  std::uint32_t gen = 0;

  bool valid() const { return gen != 0; }
  friend bool operator==(const SlabHandle&, const SlabHandle&) = default;
};

template <typename T, typename HandleT = SlabHandle>
class Slab {
 public:
  using Handle = HandleT;

  std::size_t size() const { return live_; }
  bool empty() const { return live_ == 0; }
  /// Total slots ever created (live + free).
  std::size_t slot_count() const { return slots_.size(); }
  /// Number of slot-vector growth events; constant while the free list can
  /// satisfy every emplace (the zero-steady-state-allocation assertion).
  std::uint64_t allocations() const { return allocations_; }

  void reserve(std::size_t n) { slots_.reserve(n); }

  /// True while `h` refers to a live record.
  bool contains(Handle h) const {
    return h.index < slots_.size() && slots_[h.index].gen == h.gen &&
           (h.gen & 1u) != 0;
  }

  /// References are invalidated by emplace (slot-vector growth); re-fetch
  /// after any call that may create records.
  T& get(Handle h) {
    ILU_DCHECK(contains(h), "stale slab handle dereference");
    return slots_[h.index].value;
  }
  const T& get(Handle h) const {
    ILU_DCHECK(contains(h), "stale slab handle dereference");
    return slots_[h.index].value;
  }

  /// Construct a record in a recycled (or new) slot.
  template <typename... Args>
  Handle emplace(Args&&... args) {
    std::uint32_t index;
    if (free_head_ != kNoFree) {
      index = free_head_;
      free_head_ = slots_[index].next_free;
      ++slots_[index].gen;  // even (free) -> odd (live)
      slots_[index].value = T{std::forward<Args>(args)...};
    } else {
      index = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();  // Slot{} starts live at gen 1
      slots_[index].value = T{std::forward<Args>(args)...};
      ++allocations_;
    }
    ++live_;
    return Handle{index, slots_[index].gen};
  }

  /// Destroy the record for `h` (resets the slot payload so held resources
  /// are released now, not at recycle time) and invalidate every copy of
  /// the handle.
  void erase(Handle h) {
    ILU_DCHECK(contains(h), "erase of stale slab handle");
    Slot& s = slots_[h.index];
    s.value = T{};
    ++s.gen;  // odd (live) -> even (free); wraps harmlessly through 0
    s.next_free = free_head_;
    free_head_ = h.index;
    --live_;
  }

  /// Visit every live record in canonical (index) order — the deterministic
  /// replacement for iterating an unordered_map of pointers. `f` must not
  /// add or erase records during the walk.
  template <typename F>
  void for_each(F&& f) {
    for (std::uint32_t i = 0; i < slots_.size(); ++i) {
      if ((slots_[i].gen & 1u) != 0) f(Handle{i, slots_[i].gen}, slots_[i].value);
    }
  }
  template <typename F>
  void for_each(F&& f) const {
    for (std::uint32_t i = 0; i < slots_.size(); ++i) {
      if ((slots_[i].gen & 1u) != 0) f(Handle{i, slots_[i].gen}, slots_[i].value);
    }
  }

 private:
  static constexpr std::uint32_t kNoFree = 0xffffffffu;

  struct Slot {
    T value{};
    /// Odd while live, even while free; bumped on every transition. New
    /// slots are born live at generation 1.
    std::uint32_t gen = 1;
    std::uint32_t next_free = kNoFree;
  };

  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoFree;
  std::size_t live_ = 0;
  std::uint64_t allocations_ = 0;
};

}  // namespace ilu
