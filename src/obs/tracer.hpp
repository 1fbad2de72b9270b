#pragma once
// ilu-lint: atomics-floor(relaxed) - id generators and the enabled_ hint are order-free
// ilu-lint: atomics-floor(acquire: flag_) - SpinLock: test_and_set(acquire)/clear(release) is the lock protocol itself

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/span.hpp"
// ilu-lint: allow(include-layering) - timestamps come through the abstract Runtime clock so obs stays sim-deterministic; runtime/runtime.hpp is the interface header only (no scheduler), accepted inversion pending an obs-owned clock interface
#include "runtime/runtime.hpp"
#include "util/stats.hpp"

/// Transaction-scoped span tracing.
///
/// Each invocation gets a TransactionId; every control-plane stage records a
/// span (name, start, duration, parent) against it. Spans land in per-thread
/// shards — the recording thread only ever touches its own shard, guarded by
/// a spinlock that is uncontended except while a merge is in progress — so
/// the hot path never takes a shared lock. Merging (for export or for the
/// Table 1 aggregate view) walks all shards on demand.
///
/// Span names are interned once into a process-wide, append-only table that
/// is never destroyed (one entry per distinct name ever used), so a
/// SpanRecord's name view stays valid after its tracer is gone; a per-thread
/// cache keyed by the caller's pointer makes the lookup allocation-free
/// after a name's first use on a thread.
/// Two storage layers, both bounded:
///  - per shard, a flat SpanStats array indexed by name id (count, sum,
///    min, max), always maintained while enabled — this is what reproduces
///    Table 1 at any workload scale, in memory independent of its length;
///  - the span-record log used for Chrome-trace export, capped per tracer
///    (not per shard): the first `max_records` records offered are kept,
///    later ones are counted as dropped. A per-shard cap would not bound a
///    tracer whose recording threads come and go (a ShardedRuntime starts
///    fresh threads for every run_until call).
///
/// When disabled, record() is a single relaxed atomic load and return — the
/// paper ships tracing off by default precisely because the disabled path
/// must cost nothing measurable (bench/obs_overhead.cpp checks this).
namespace ilu {

class TransactionTracer {
 public:
  /// Default cap on span records held per tracer (16 MB of 64-byte
  /// records); the aggregate view is unaffected by the cap.
  static constexpr std::size_t kDefaultRecordCap = 1u << 18;

  explicit TransactionTracer(bool enabled = true,
                             std::size_t max_records = kDefaultRecordCap);
  ~TransactionTracer();

  TransactionTracer(const TransactionTracer&) = delete;
  TransactionTracer& operator=(const TransactionTracer&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Allocate the transaction id for a new invocation (never 0).
  TransactionId begin_transaction() {
    return next_tx_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Pre-allocate a span id (used by ScopedSpan so children can name their
  /// parent before the parent's record is written).
  SpanId next_span_id() {
    return next_span_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Record a completed span. Returns its id (kNoSpan when disabled).
  SpanId record(TransactionId tx, std::string_view name, TimePoint start,
                Duration dur, SpanId parent = kNoSpan);

  /// Record a span whose id was pre-allocated with next_span_id().
  void record_with_id(SpanId id, TransactionId tx, std::string_view name,
                      TimePoint start, Duration dur, SpanId parent);

  /// Aggregate-only record: contributes to the Table 1 aggregates without
  /// offering a record to the span log (legacy SpanTracer::record path).
  void record_aggregate(std::string_view name, Duration dur);

  /// Merge all shards: span records sorted by (start, id).
  std::vector<SpanRecord> collect() const;

  /// Merge all shards' aggregates (Table 1 view), names recorded only.
  std::map<std::string, SpanStats> aggregate() const;

  /// One name's aggregate merged across shards (empty if never recorded).
  SpanStats stats(std::string_view name) const;

  /// Records refused because the tracer's record cap was reached.
  std::uint64_t dropped_records() const;

  /// Reset all shards (records, aggregates) and the record cap's count.
  /// Safe to call concurrently with recording; ids keep advancing.
  void clear();

 private:
  /// Test-and-set spinlock: per-shard, owned by one writer thread, so it is
  /// contended only while a merge briefly holds it. The uncontended path is
  /// a single successful TAS; on contention we yield rather than burn the
  /// core the merge needs to finish.
  class SpinLock {
   public:
    void lock() {
      while (flag_.test_and_set(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    }
    void unlock() { flag_.clear(std::memory_order_release); }

   private:
    std::atomic_flag flag_ = ATOMIC_FLAG_INIT;
  };

  struct Shard {
    SpinLock lock;
    /// A deque, not a vector: appends never copy the log or grow it past
    /// its size (a doubling vector's reallocations cost more than the
    /// record itself on fresh memory).
    std::deque<SpanRecord> records;
    std::vector<SpanStats> stats;  // indexed by interned name id
    std::uint32_t index = 0;
  };

  Shard& local_shard();

  const std::uint64_t uid_;  // keys the thread-local shard cache
  const std::size_t record_cap_;
  std::atomic<bool> enabled_;
  std::atomic<std::uint64_t> next_tx_{0};
  std::atomic<std::uint64_t> next_span_{0};
  /// Records offered to the log since the last clear(), kept or dropped;
  /// bumped under the recording shard's lock, so clear() (which holds every
  /// shard's lock) resets it atomically with the logs.
  std::atomic<std::uint64_t> offered_{0};
  mutable std::mutex shards_mu_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// RAII wall-clock span: measures construction-to-destruction against the
/// runtime clock and records it on destruction. Maintains a per-thread span
/// stack so lexically nested ScopedSpans form a parent/child tree without
/// the caller threading parent ids by hand. Strictly LIFO per thread.
class ScopedSpan {
 public:
  ScopedSpan(TransactionTracer& tracer, Runtime& rt, TransactionId tx,
             const char* name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// kNoSpan when the tracer is disabled.
  SpanId id() const { return id_; }

 private:
  TransactionTracer& tracer_;
  Runtime& rt_;
  TransactionId tx_;
  const char* name_;
  TimePoint start_{};
  SpanId id_ = kNoSpan;
  SpanId parent_ = kNoSpan;
};

}  // namespace ilu
