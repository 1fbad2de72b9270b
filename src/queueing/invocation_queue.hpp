#pragma once

#include <cstdint>
#include <optional>
#include <utility>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "queueing/queue_policy.hpp"
#include "runtime/indexed_heap.hpp"
#include "runtime/runtime.hpp"

/// The per-worker invocation queue (§5): a priority queue sorted by the
/// active discipline, with FIFO tie-breaking (sequence numbers) so equal
/// priorities preserve arrival order.
///
/// Backed by the same indexed d-ary heap primitive as the event engine
/// (runtime/indexed_heap.hpp): push/pop are O(log n) over a contiguous key
/// array with slab-recycled items, replacing the former `std::map` whose
/// every insert/erase was a red-black-tree node allocation.
namespace ilu {

class InvocationQueue {
 private:
  using Key = std::pair<double, std::uint64_t>;

 public:
  InvocationQueue(const QueuePolicy& policy, const CharacteristicsMap& chars)
      : policy_(policy), chars_(chars) {}

  /// Enqueue with the priority computed at insertion time (matching the
  /// paper's implementation: priorities use the characteristics known at
  /// enqueue).
  void push(QueueItem item, bool warm_available) {
    item.seq = next_seq_++;
    double pri = policy_.priority(item, chars_, warm_available);
    if (clock_ != nullptr) {
      flight::record(clock_->now(), flight::Ev::kQueueEnq,
                     static_cast<std::uint32_t>(item.fn));
    }
    items_.push(Key{pri, item.seq}, std::move(item));
    if (depth_gauge_) {
      depth_gauge_->set(static_cast<std::int64_t>(items_.size()));
    }
  }

  /// Dispatch the lowest-priority item.
  std::optional<QueueItem> pop() {
    if (items_.empty()) return std::nullopt;
    QueueItem item = items_.pop_min();
    if (clock_ != nullptr) {
      flight::record(clock_->now(), flight::Ev::kQueueDeq,
                     static_cast<std::uint32_t>(item.fn));
    }
    if (depth_gauge_) {
      depth_gauge_->set(static_cast<std::int64_t>(items_.size()));
    }
    return item;
  }

  /// Peek at the head priority (for tests / bypass heuristics).
  std::optional<double> head_priority() const {
    const Key* k = items_.peek_key();
    if (k == nullptr) return std::nullopt;
    return k->first;
  }

  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

  /// Mirror the queue depth into a live gauge (nullptr disables).
  void set_depth_gauge(Gauge* g) {
    depth_gauge_ = g;
    if (depth_gauge_) {
      depth_gauge_->set(static_cast<std::int64_t>(items_.size()));
    }
  }

  /// Timestamp source for flight-recorder enq/deq stamps (nullptr disables
  /// stamping entirely — e.g. microbenchmarks of the bare queue).
  void set_flight_clock(const Runtime* rt) { clock_ = rt; }

 private:
  const QueuePolicy& policy_;
  const CharacteristicsMap& chars_;
  Gauge* depth_gauge_ = nullptr;
  const Runtime* clock_ = nullptr;
  std::uint64_t next_seq_ = 0;
  IndexedHeap<Key, QueueItem> items_;
};

}  // namespace ilu
