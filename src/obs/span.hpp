#pragma once

#include <cstdint>
#include <string_view>
#include <type_traits>

#include "util/time.hpp"

/// Span identity types for the transaction-scoped tracer (Table 1 of the
/// paper is produced by instrumenting every control-plane component with the
/// Rust `tracing` crate; the analogue here is a tree of timed spans keyed by
/// the invocation's transaction id).
namespace ilu {

/// Identifies one end-to-end invocation through the control plane. Every
/// span recorded on behalf of that invocation carries its transaction id,
/// which is what lets a trace dump be re-grouped per invocation.
using TransactionId = std::uint64_t;

/// Identifies one span within a tracer. 0 (`kNoSpan`) means "no span":
/// a parent of kNoSpan marks a root span.
using SpanId = std::uint64_t;
inline constexpr SpanId kNoSpan = 0;

/// One completed span. `name` views the process-wide span-name table
/// (obs/tracer.hpp), which is append-only, so a record stays valid after
/// its tracer is gone. `thread` is the index of the per-thread shard that
/// recorded it (exported as the Chrome trace `tid`).
struct SpanRecord {
  TransactionId tx = 0;
  SpanId id = kNoSpan;
  SpanId parent = kNoSpan;
  std::string_view name;
  TimePoint start{};
  Duration dur{};
  std::uint32_t thread = 0;
};
static_assert(std::is_trivially_copyable_v<SpanRecord>);

}  // namespace ilu
