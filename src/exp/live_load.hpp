#pragma once
// ilu-lint: atomics-floor(relaxed) - live counters; done() reads with acquire to pair with the workers' release bumps

#include <atomic>
#include <cstdint>
#include <functional>

#include "common/types.hpp"
#include "obs/metrics.hpp"
#include "runtime/real_runtime.hpp"
#include "trace/workload.hpp"
#include "util/time.hpp"

/// Open-loop live-load harness (DESIGN.md §14): replays an EventView against
/// a wall-clock `RealRuntime` at the trace's own arrival times, from multiple
/// producer threads, and accounts for every microsecond honestly.
///
/// Open loop means arrivals are paced by the *trace clock*, never by the
/// system under test: a producer sleeps until each event's intended instant
/// and submits regardless of how far behind the worker is. A closed-loop
/// driver (wait for the previous response before sending the next request)
/// silently stretches inter-arrival gaps whenever the system stalls, hiding
/// exactly the tail it should be measuring — the "coordinated omission"
/// trap. Here a stall shows up twice, on purpose:
///
///   lateness_ms    how far past its intended instant each submission left
///                  the producer (sleep overshoot + producer scheduling) —
///                  nonzero lateness at high rates means the offered load
///                  was not actually offered, so rate claims must quote it;
///   submit_lag_ms  producer handoff to the runtime loop thread (the
///                  sharded-stage + wheel path under test);
///   overhead_ms    the paper's control-plane overhead (flow - exec) per
///                  completed invocation.
///
/// Producers stride-partition the trace (producer p takes events p, p+P,
/// p+2P, ...) so each thread walks a sorted subsequence of arrival times and
/// a single sleep_until per event suffices. Sleep targets are computed from
/// `RealRuntime::epoch_steady()`, the same clock the runtime schedules
/// against, so "intended" and "actual" are commensurable without any direct
/// wall-clock read on the submit path.
namespace ilu {

struct LiveLoadConfig {
  /// Producer (load) threads. The trace is stride-partitioned across them.
  std::size_t producers = 4;
  /// Multiply trace offsets: 0.5 replays at 2x the trace's native rate.
  double time_scale = 1.0;
  /// Producers begin this far in the future of `now()` so event 0 is not
  /// born late while threads are still spawning.
  Duration lead_in = msecs(100);
  /// After the last submission, wait at most this long for completions.
  Duration completion_timeout = secs(120);
  /// Stamp flight-recorder kReplayMilestone records at submission deciles.
  bool milestones = true;
};

/// Counters and histograms for one run. Atomics — shared by producers, the
/// runtime loop thread, and the observer — so the struct is neither copyable
/// nor movable; callers pass a stable instance into run() and read it after.
struct LiveLoadStats {
  std::atomic<std::uint64_t> submitted{0};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<std::uint64_t> cold{0};
  std::atomic<std::uint64_t> bypassed{0};
  /// Completion timestamp high-water mark (runtime µs), for wall_s.
  std::atomic<std::int64_t> last_done_us{0};

  /// Submission lateness: actual minus intended submit instant (clamped at
  /// zero; sleep_until never wakes early on the same clock).
  LogHistogram lateness_ms;
  /// Producer → runtime-loop-thread handoff (stage + drain + dispatch).
  LogHistogram submit_lag_ms;
  /// Control-plane overhead of completed invocations (flow - exec).
  LogHistogram overhead_ms;
  /// Queue wait component of completed invocations.
  LogHistogram queue_wait_ms;

  // Filled in by run() at the end.
  double offered_per_sec = 0.0;   ///< Trace rate after time_scale.
  double achieved_per_sec = 0.0;  ///< Completions over the measured wall.
  double wall_s = 0.0;  ///< First intended arrival → last completion.
  bool timed_out = false;

  /// Acquire-ordered: pairs with the release increment that is the last
  /// act of each completion callback, so once finished() == submitted the
  /// reader sees every histogram observation those callbacks made.
  std::uint64_t finished() const {
    return completed.load(std::memory_order_acquire) +
           failed.load(std::memory_order_acquire) +
           dropped.load(std::memory_order_acquire);
  }

  /// Return to the just-constructed state. Callers must quiesce all
  /// producers and drain the runtime first (LogHistogram::reset contract).
  void reset();
};

class LiveLoadHarness {
 public:
  /// Submission target: called on the runtime loop thread; must eventually
  /// call the completion callback exactly once (Worker::invoke's contract).
  using CompletionCb = std::function<void(const InvokeResult&)>;
  // ilu-lint: allow(std-function-hotpath) - bench-facing seam bound once per run, invoked through a held copy; not a nullary Task
  using InvokeFn = std::function<void(FunctionId, CompletionCb)>;

  LiveLoadHarness(RealRuntime& rt, InvokeFn invoke);

  /// Replay `events` open-loop; blocks until all producers finished and all
  /// submissions completed (or cfg.completion_timeout elapsed). `out` is
  /// reset at entry and owned by the caller; it must outlive the call (it
  /// is touched from producer threads and the runtime loop thread).
  void run(const EventView& events, const LiveLoadConfig& cfg,
           LiveLoadStats* out);

 private:
  void producer(const EventView& events, const LiveLoadConfig& cfg,
                std::size_t index, std::int64_t base_us, LiveLoadStats* out);

  RealRuntime& rt_;
  InvokeFn invoke_;
};

}  // namespace ilu
