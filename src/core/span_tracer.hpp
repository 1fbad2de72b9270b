#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/tracer.hpp"
#include "util/stats.hpp"

/// Per-component latency tracing (the paper's `tracing`-crate instrumenting,
/// which produces Table 1). The worker records the latency of every named
/// span it executes; summaries are grouped the same way Table 1 groups them.
///
/// Since the observability PR this is a thin facade over the
/// transaction-scoped TransactionTracer (obs/tracer.hpp): spans carry the
/// invocation's TransactionId and a parent id (forming a per-invocation span
/// tree, exportable as a Chrome trace), are recorded into per-thread shards
/// with no shared lock on the hot path, and the Table 1 aggregate view is
/// computed by merging the shards' streaming SpanStats on demand.
namespace ilu {

/// Canonical span names, in invocation order (Table 1 rows).
namespace spans {
inline constexpr const char* kInvoke = "invoke";
inline constexpr const char* kSyncInvoke = "sync_invoke";
inline constexpr const char* kEnqueueInvocation = "enqueue_invocation";
inline constexpr const char* kAddItemToQ = "add_item_to_q";
inline constexpr const char* kSpawnWorker = "spawn_worker";
inline constexpr const char* kDequeue = "dequeue";
inline constexpr const char* kAcquireContainer = "acquire_container";
inline constexpr const char* kTryLockContainer = "try_lock_container";
inline constexpr const char* kPrepareInvoke = "prepare_invoke";
inline constexpr const char* kCallContainer = "call_container";
inline constexpr const char* kDownloadResult = "download_result";
inline constexpr const char* kReturnContainer = "return_container";
inline constexpr const char* kReturnResults = "return_results";
}  // namespace spans

class SpanTracer {
 public:
  /// Enabled by default; disable to remove all bookkeeping cost (the paper
  /// ships tracing off by default for the same reason).
  explicit SpanTracer(bool enabled = true)
      : tx_(std::make_unique<TransactionTracer>(enabled)) {}

  SpanTracer(SpanTracer&&) = default;
  SpanTracer& operator=(SpanTracer&&) = default;

  /// Aggregate-only record (no span tree / trace-dump entry): kept for
  /// callers that have a duration but no transaction context.
  void record(std::string_view name, Duration d) {
    tx_->record_aggregate(name, d);
  }

  /// Allocate a transaction id for a new invocation.
  TransactionId begin_transaction() { return tx_->begin_transaction(); }

  /// Record a span in transaction `tx` with an explicit start time and
  /// parent (kNoSpan = root). Returns the span's id for child linking.
  SpanId record_tx(TransactionId tx, const char* name, TimePoint start,
                   Duration d, SpanId parent = kNoSpan) {
    return tx_->record(tx, name, start, d, parent);
  }

  bool enabled() const { return tx_->enabled(); }

  /// Mean latency of a span in ms (0 if never recorded).
  double mean_ms(std::string_view name) const {
    return tx_->stats(name).mean();
  }
  std::uint64_t count(std::string_view name) const {
    return tx_->stats(name).count();
  }

  /// All recorded spans merged across shards, keyed and sorted by name.
  std::map<std::string, SpanStats> all() const { return tx_->aggregate(); }

  /// The merged span records (for Chrome-trace export), sorted by start.
  std::vector<SpanRecord> spans() const { return tx_->collect(); }

  void clear() { tx_->clear(); }

  /// The underlying transaction-scoped tracer.
  TransactionTracer& tx() { return *tx_; }
  const TransactionTracer& tx() const { return *tx_; }

 private:
  std::unique_ptr<TransactionTracer> tx_;
};

}  // namespace ilu
