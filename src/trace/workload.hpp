#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "util/dcheck.hpp"

/// Workload representation: a function table plus a time-ordered invocation
/// stream. This is the open-loop "timeseries of function invocations" the
/// paper's load-generation framework produces for repeatable experiments.
///
/// There is one event representation (DESIGN.md §8): a packed 64-bit key,
/// (microsecond << 20) | function id, and a trace is those keys sorted
/// ascending. That is exactly the key column of an ilu-arena-v1 file
/// (arena_file.hpp), so a generated trace and an mmap'd one replay through
/// the same EventView. Every generator emits function-major with ascending
/// ids, packs, and sorts: ties at one microsecond order by function id —
/// the order a stable time sort of that output gives — and equal (at, fn)
/// keys are indistinguishable.
namespace ilu {

struct TraceStats {
  std::size_t num_functions = 0;
  std::size_t num_invocations = 0;
  double reqs_per_sec = 0.0;
  /// Mean inter-arrival time across the merged stream (Table 2's "Avg. IAT").
  Duration avg_iat{};
  /// Little's-law expected number of concurrently running invocations:
  /// sum over functions of (arrival rate x mean warm execution time).
  double expected_concurrency = 0.0;
  /// Invocations per function id.
  std::vector<std::size_t> invocations_by_function;
};

struct Trace {
  /// Function id width inside a packed key. Supports ~1M functions and
  /// timestamps to ~2^43 µs (about 100 days).
  static constexpr int kFnBits = 20;
  static constexpr std::uint64_t kMaxFn = (1ull << kFnBits) - 1;
  static constexpr std::int64_t kMaxUs = (1ll << (63 - kFnBits)) - 1;

  /// Pack one event into its key. Bounds are ILU_DCHECKed: generators stay
  /// in range by construction, and release builds pack garbage (the
  /// arena-file verifier catches it downstream). Outside input goes
  /// through pack_checked().
  static std::uint64_t pack(TimePoint at, FunctionId fn) {
    const std::int64_t us = at.count();
    ILU_DCHECK(us >= 0 && us <= kMaxUs, "event time out of packed-key range");
    ILU_DCHECK(fn <= kMaxFn, "function id out of packed-key range");
    return (static_cast<std::uint64_t>(us) << kFnBits) |
           static_cast<std::uint64_t>(fn);
  }
  /// pack() for events read from files: throws std::out_of_range in every
  /// build type instead of packing garbage.
  static std::uint64_t pack_checked(TimePoint at, FunctionId fn);
  static TimePoint key_at(std::uint64_t key) {
    return Duration{static_cast<std::int64_t>(key >> kFnBits)};
  }
  static FunctionId key_fn(std::uint64_t key) {
    return static_cast<FunctionId>(key & kMaxFn);
  }

  std::vector<FunctionProfile> functions;
  /// Packed event keys, ascending.
  std::vector<std::uint64_t> keys;
  /// Nominal length of the workload (events all lie in [0, duration]).
  Duration duration{};

  std::size_t size() const { return keys.size(); }
  TimePoint at(std::size_t i) const { return key_at(keys[i]); }
  FunctionId fn(std::size_t i) const { return key_fn(keys[i]); }

  TraceStats stats() const;

  /// Invocations per second, bucketed by minute — the appendix timeseries
  /// figures. Bucket i covers [i min, i+1 min).
  std::vector<double> invocations_per_second_by_minute() const;

  /// Verify the keys are ascending and reference valid functions.
  bool valid() const;
};

/// Benchmark-compat shim: perfbench/ still names the in-RAM trace by its
/// old arena name. No other code may use it; it goes with the next
/// benchmark change (ROADMAP).
using TraceArena = Trace;

/// Replay view: a span of `n` sorted packed keys, in RAM (a Trace) or
/// mmap'd from an ilu-arena-v1 file. The storage must outlive the view.
class EventView {
 public:
  EventView() = default;
  EventView(const std::uint64_t* keys, std::size_t n) : keys_(keys), n_(n) {}
  /// Implicit, so a Trace replays wherever a view is taken; a temporary
  /// Trace would dangle and is rejected.
  EventView(const Trace& t) : EventView(t.keys.data(), t.keys.size()) {}
  EventView(const Trace&&) = delete;

  std::size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }
  TimePoint at(std::size_t i) const { return Trace::key_at(keys_[i]); }
  FunctionId fn(std::size_t i) const { return Trace::key_fn(keys_[i]); }

 private:
  const std::uint64_t* keys_ = nullptr;
  std::size_t n_ = 0;
};

/// Statistics of any event stream: Trace::stats(), and `trace_tool info`
/// over an mmap'd arena without materializing it. Throws std::out_of_range
/// on an event whose function id is not in `functions` (a damaged file),
/// in every build type.
TraceStats trace_stats(const std::vector<FunctionProfile>& functions,
                       EventView events, Duration duration);

}  // namespace ilu
