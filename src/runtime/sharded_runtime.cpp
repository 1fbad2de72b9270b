#include "runtime/sharded_runtime.hpp"
// ilu-lint: atomics-floor(relaxed) - horizon_/events_ are per-shard slots published between barriers; the SpinBarrier supplies the ordering
// ilu-lint: atomics-floor(acquire: gen_) - the barrier generation publishes every shard's pre-barrier writes; its bump is acq_rel, waiters spin on acquire

#include <algorithm>
#include <cassert>
#include <limits>
#include <thread>

#include "obs/flight.hpp"

namespace ilu {

namespace {

/// Published horizon value for a shard with no pending events.
constexpr std::int64_t kIdle = std::numeric_limits<std::int64_t>::max();

/// Sense-reversing spin barrier. Windows are short (often a handful of
/// events per shard), so a futex-parked barrier would dominate the loop;
/// this one completes in a few hundred ns when all threads are running, and
/// degrades to yielding when the host is oversubscribed (1-core CI).
/// Synchronization: every arrival is an acq_rel RMW on count_, the last
/// arrival publishes through an acq_rel RMW on gen_, and waiters acquire
/// gen_ — so all writes made before the barrier are visible after it.
class SpinBarrier {
 public:
  explicit SpinBarrier(unsigned n) : n_(n) {}

  void arrive_and_wait() {
    std::uint64_t gen = gen_.load(std::memory_order_acquire);
    if (count_.fetch_add(1, std::memory_order_acq_rel) + 1 == n_) {
      count_.store(0, std::memory_order_relaxed);
      gen_.fetch_add(1, std::memory_order_acq_rel);
    } else {
      int spins = 0;
      while (gen_.load(std::memory_order_acquire) == gen) {
        if (++spins > 4096) std::this_thread::yield();
      }
    }
  }

 private:
  unsigned n_;
  std::atomic<unsigned> count_{0};
  std::atomic<std::uint64_t> gen_{0};
};

std::int64_t horizon_of(const SimRuntime& rt) {
  auto d = rt.next_deadline();
  return d ? d->count() : kIdle;
}

}  // namespace

ShardedRuntime::ShardedRuntime(std::size_t shards, Duration lookahead,
                               SyncConfig)
    : lookahead_(lookahead) {
  assert(shards >= 1);
  assert(lookahead_ > Duration::zero() &&
         "window synchronization needs strictly positive lookahead");
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<SimRuntime>());
  }
  outbox_.resize(shards * shards);
  scratch_.resize(shards);
  horizon_ = std::vector<std::atomic<std::int64_t>>(shards);
  events_ = std::vector<std::atomic<std::uint64_t>>(shards);
  delivered_.assign(shards, 0);
}

void ShardedRuntime::send(std::size_t src, std::size_t dst, TimePoint at,
                          std::uint64_t tag, Task fn) {
  assert(src < shards_.size() && dst < shards_.size());
  // send() must run on src's owning thread (its window thread during a run,
  // the driver otherwise) — that confinement is what makes the outbox rows
  // single-writer.
  ILU_ASSERT_OWNER(shards_[src]->owner(), "ShardedRuntime::send");
  ILU_DCHECK(at >= shards_[src]->now() + lookahead_,
             "cross-shard send violates the lookahead promise");
  if (src == dst) {
    // Same event loop: deliver directly, with the identical (at, tag)
    // ordering key a mailbox delivery would use.
    shards_[dst]->schedule_tagged(at, tag, std::move(fn));
    return;
  }
  outbox_[src * shards_.size() + dst].push_back(Msg{at, tag, std::move(fn)});
}

void ShardedRuntime::merge_inbox(std::size_t dst) {
  const std::size_t s = shards_.size();
  auto& in = scratch_[dst];
  in.clear();
  for (std::size_t src = 0; src < s; ++src) {
    auto& box = outbox_[src * s + dst];
    for (auto& m : box) in.push_back(std::move(m));
    box.clear();
  }
  if (in.empty()) return;
  std::sort(in.begin(), in.end(), [](const Msg& a, const Msg& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.tag < b.tag;
  });
  for (auto& m : in) {
    shards_[dst]->schedule_tagged(m.at, m.tag, std::move(m.fn));
  }
  delivered_[dst] += in.size();
  in.clear();
}

void ShardedRuntime::run_windows(TimePoint limit) {
  const std::size_t s = shards_.size();
  const std::int64_t limit_us = limit.count();
  const std::int64_t cap_us = limit_us == kIdle ? kIdle : limit_us + 1;
  SpinBarrier barrier(static_cast<unsigned>(s));

  auto loop = [&](std::size_t me) {
    SimRuntime& rt = *shards_[me];
    // Window threads own their shard for the duration of the run; the
    // spawning of this thread (resp. the call into run_windows for shard 0)
    // synchronizes the handoff from the previous owner.
    rt.bind_owner();
    for (;;) {
      // Merge BEFORE publishing the horizon: messages parked in the inbox
      // (sent during the previous window, or before run() even started)
      // must count toward this shard's next deadline, or a shard whose
      // only work arrives by mail would report idle and stall the window
      // computation. Between the trailing barrier and this point no shard
      // is executing events, so the outboxes are stable.
      merge_inbox(me);
      horizon_[me].store(horizon_of(rt), std::memory_order_relaxed);
      barrier.arrive_and_wait();  // all merges done, horizons stable
      // Every thread computes the same window bound from the published
      // horizons, so they all agree on the bound and on when to stop.
      std::int64_t tmin = kIdle;
      for (auto& h : horizon_) {
        tmin = std::min(tmin, h.load(std::memory_order_relaxed));
      }
      if (tmin == kIdle || tmin > limit_us) break;
      // No event executed anywhere this window can create work before
      // T_min + lookahead, so running every shard to that bound is safe.
      rt.run_before(TimePoint{std::min(tmin + lookahead_.count(), cap_us)});
      // Publish progress for concurrent telemetry readers and stamp the
      // barrier crossing on this thread's flight ring (ts = the shard clock
      // after the window, arg = shard index).
      events_[me].store(rt.events_processed(), std::memory_order_relaxed);
      flight::record(rt.now(), flight::Ev::kWindowBarrier,
                     static_cast<std::uint32_t>(me));
      if (me == 0) ++windows_;
      barrier.arrive_and_wait();  // all outboxes complete
    }
    if (limit_us != kIdle) rt.run_until(limit);
    events_[me].store(rt.events_processed(), std::memory_order_relaxed);
  };

  std::vector<std::thread> threads;
  threads.reserve(s - 1);
  for (std::size_t i = 1; i < s; ++i) threads.emplace_back(loop, i);
  loop(0);
  for (auto& t : threads) t.join();
  // Ownership returns to the driver thread (the joins synchronize): after a
  // run the caller may inspect clocks and schedule follow-up work on any
  // shard from its own thread.
  for (auto& sh : shards_) sh->bind_owner();
}

void ShardedRuntime::run_until(TimePoint t) {
  if (shards_.size() == 1) {
    // Entry through the sharded API is an ownership handoff, matching the
    // N-shard path where run_windows binds shards to window threads.
    shards_[0]->bind_owner();
    shards_[0]->run_until(t);
    events_[0].store(shards_[0]->events_processed(),
                     std::memory_order_relaxed);
    return;
  }
  run_windows(t);
}

void ShardedRuntime::run() {
  if (shards_.size() == 1) {
    shards_[0]->bind_owner();
    shards_[0]->run();
    events_[0].store(shards_[0]->events_processed(),
                     std::memory_order_relaxed);
    return;
  }
  run_windows(TimePoint{kIdle});
}

bool ShardedRuntime::idle() const {
  for (const auto& rt : shards_) {
    if (rt->next_deadline()) return false;
  }
  return true;
}

std::uint64_t ShardedRuntime::messages() const {
  std::uint64_t total = 0;
  for (auto d : delivered_) total += d;
  return total;
}

std::uint64_t ShardedRuntime::total_events() const {
  std::uint64_t total = 0;
  for (const auto& e : events_) total += e.load(std::memory_order_relaxed);
  return total;
}

}  // namespace ilu
