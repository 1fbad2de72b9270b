#pragma once

#include <cstdint>
#include <optional>

#include "runtime/indexed_heap.hpp"
#include "runtime/runtime.hpp"
#include "util/dcheck.hpp"

/// Deterministic discrete-event runtime.
///
/// Events are ordered by (deadline, sequence number), so runs are bit-exact
/// reproducible for a given seed/workload. The queue is an indexed d-ary
/// heap over slab-allocated event nodes (see indexed_heap.hpp):
///
///  * schedule() is O(log n) and allocation-free in steady state — the
///    closure lives inline in the recycled slot (ilu::Task SBO) and the
///    sift moves only (deadline, seq, slot) keys;
///  * cancel() is a true O(log n) removal keyed by a generation-checked
///    handle — no tombstone set, so a cancel after the timer fired is
///    detected exactly (returns false) and pending() is always the real
///    number of queued events.
///
/// Events scheduled with schedule() tie-break at equal deadlines by
/// scheduling order. schedule_tagged() places an event in a *lower* sequence
/// band keyed by a caller-supplied tag: at equal deadlines, tagged events
/// run before plain ones, ordered among themselves by tag. ShardedRuntime
/// uses this for cross-shard message delivery, whose ordering must be a pure
/// function of (deliver time, sender, sender sequence) — independent of the
/// scheduling interleaving, which differs between shard counts.
///
/// Thread confinement: a SimRuntime is owned by exactly one thread at a
/// time — the one that constructed it, until bind_owner() hands it off
/// (ShardedRuntime rebinds shards to their window threads and back to the
/// driver around every run). In debug builds (DESIGN.md §10) every
/// schedule/cancel/now/run access asserts it runs on the owner thread, so a
/// cross-shard data race aborts deterministically instead of relying on
/// TSan to observe the interleaving; Release builds compile the auditor out
/// entirely.
namespace ilu {

class SimRuntime final : public Runtime {
 private:
  struct EventKey {
    TimePoint deadline;
    std::uint64_t seq;
    bool operator<(const EventKey& o) const {
      if (deadline != o.deadline) return deadline < o.deadline;
      return seq < o.seq;
    }
  };
  using Heap = IndexedHeap<EventKey, Task>;

 public:
  SimRuntime() = default;

  TimePoint now() const override {
    ILU_ASSERT_OWNER(owner_, "SimRuntime::now");
    return now_;
  }
  TimerId schedule(Duration delay, Task fn) override;
  bool cancel(TimerId id) override;

  /// Schedule at an absolute deadline `at` (>= now) with an explicit
  /// tie-break tag (< kTagBand, unique per (at, tag) by the caller's
  /// construction). At equal deadlines, tagged events run before plain
  /// schedule()d ones and in ascending tag order.
  TimerId schedule_tagged(TimePoint at, std::uint64_t tag, Task fn);

  /// Execute the next event, advancing virtual time to its deadline.
  /// Returns false when no events remain.
  bool step();

  /// Run until the event queue is empty.
  void run();

  /// Run events with deadline <= t, then advance time to exactly t.
  void run_until(TimePoint t);

  /// Run events with deadline strictly < t. Unlike run_until, does NOT
  /// advance the clock to t: time stops at the last fired deadline, so
  /// events delivered later at >= t still satisfy schedule_tagged's
  /// `at >= now` precondition. This is the conservative-window primitive
  /// used by ShardedRuntime.
  void run_before(TimePoint t);

  /// Run for a further `d` of virtual time.
  void run_for(Duration d) { run_until(now_ + d); }

  /// Deadline of the earliest pending event, if any.
  std::optional<TimePoint> next_deadline() const {
    const EventKey* k = peek();
    return k ? std::optional<TimePoint>(k->deadline) : std::nullopt;
  }

  /// Number of pending (non-cancelled) events. Exact: cancellation removes
  /// the event immediately.
  std::size_t pending() const { return heap_.size(); }

  /// Total events executed so far (for engine micro-benchmarks).
  std::uint64_t events_processed() const { return processed_; }

  /// Tags passed to schedule_tagged must be below this band; plain
  /// schedule() events carry kTagBand | n and therefore always lose ties
  /// against tagged deliveries at the same deadline.
  static constexpr std::uint64_t kTagBand = 1ull << 63;

  /// Hand ownership of this runtime to the calling thread (debug-build
  /// ownership auditing; no-op in Release). Callers must externally
  /// synchronize the handoff — ShardedRuntime does so with its window
  /// barriers and thread joins.
  void bind_owner() noexcept { owner_.bind(); }
  /// The ownership auditor, for callers (ShardedRuntime::send) that assert
  /// confinement on behalf of this runtime.
  const OwnerRecord& owner() const noexcept { return owner_; }

 private:
  /// TimerIds encode the heap handle: (generation << 32) | slot. Slot
  /// generations start at 1, so no valid id is ever kInvalidTimer (0).
  static TimerId encode(Heap::Handle h) {
    return (static_cast<TimerId>(h.gen) << 32) | h.slot;
  }
  static Heap::Handle decode(TimerId id) {
    return Heap::Handle{static_cast<std::uint32_t>(id & 0xffffffffu),
                        static_cast<std::uint32_t>(id >> 32)};
  }

  /// Deadline of the next event, or nullptr when idle — the single peek
  /// implementation shared by step() and run_until().
  const EventKey* peek() const { return heap_.peek_key(); }

  /// Pop and execute the next event unconditionally (heap must be
  /// non-empty), advancing virtual time to its deadline.
  void fire_next();

  TimePoint now_{0};
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  Heap heap_;
  /// Debug-build shard-ownership auditor (empty in Release).
  [[no_unique_address]] OwnerRecord owner_;
};

}  // namespace ilu
