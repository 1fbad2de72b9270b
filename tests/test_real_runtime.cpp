#include "runtime/real_runtime.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "util/rng.hpp"

namespace ilu {
namespace {

TEST(RealRuntime, ExecutesPostedTask) {
  RealRuntime rt;
  std::atomic<bool> ran{false};
  rt.post([&] { ran = true; });
  rt.drain();
  EXPECT_TRUE(ran);
}

TEST(RealRuntime, RespectsDelayRoughly) {
  RealRuntime rt;
  std::atomic<std::int64_t> fired_at{-1};
  TimePoint start = rt.now();
  rt.schedule(msecs(50), [&] { fired_at = (rt.now() - start).count(); });
  rt.drain();
  ASSERT_GE(fired_at.load(), msecs(45).count());
  // Generous upper bound: loaded CI machines can be slow.
  EXPECT_LT(fired_at.load(), secs(5).count());
}

TEST(RealRuntime, TasksSerializeInTimeOrder) {
  RealRuntime rt;
  std::vector<int> order;
  rt.schedule(msecs(60), [&] { order.push_back(3); });
  rt.schedule(msecs(20), [&] { order.push_back(1); });
  rt.schedule(msecs(40), [&] { order.push_back(2); });
  rt.drain();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(RealRuntime, CancelPreventsExecution) {
  RealRuntime rt;
  std::atomic<bool> fired{false};
  auto id = rt.schedule(msecs(100), [&] { fired = true; });
  EXPECT_TRUE(rt.cancel(id));
  rt.drain();
  EXPECT_FALSE(fired);
}

TEST(RealRuntime, ScheduleFromMultipleThreads) {
  RealRuntime rt;
  std::atomic<int> count{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 100; ++i) {
        rt.post([&] { count.fetch_add(1); });
      }
    });
  }
  for (auto& th : threads) th.join();
  rt.drain();
  EXPECT_EQ(count.load(), 400);
}

TEST(RealRuntime, ScheduleFromWithinCallback) {
  RealRuntime rt;
  std::atomic<int> depth{0};
  std::function<void()> chain = [&] {
    if (depth.fetch_add(1) + 1 < 10) rt.post(chain);
  };
  rt.post(chain);
  rt.drain();
  EXPECT_EQ(depth.load(), 10);
}

TEST(RealRuntime, ShutdownDropsPendingTimers) {
  RealRuntime rt;
  std::atomic<bool> fired{false};
  rt.schedule(secs(30), [&] { fired = true; });
  rt.shutdown();
  EXPECT_FALSE(fired);
}

TEST(RealRuntime, ScheduleAfterShutdownReturnsInvalid) {
  RealRuntime rt;
  rt.shutdown();
  EXPECT_EQ(rt.schedule(msecs(1), [] {}), Runtime::kInvalidTimer);
}

TEST(RealRuntime, NowIsMonotonic) {
  RealRuntime rt;
  TimePoint a = rt.now();
  TimePoint b = rt.now();
  EXPECT_LE(a, b);
}

TEST(RealRuntime, DrainOnEmptyReturnsImmediately) {
  RealRuntime rt;
  rt.drain();  // must not hang
  SUCCEED();
}

// Regression (pre-wheel bug): cancel() of a timer that already fired
// returned true and left a tombstone in the cancelled_ set forever. The
// generation-checked wheel must say false, exactly.
TEST(RealRuntime, CancelAfterFireReturnsFalse) {
  RealRuntime rt;
  std::atomic<bool> fired{false};
  const auto id = rt.schedule(msecs(1), [&] { fired = true; });
  rt.drain();
  ASSERT_TRUE(fired);
  EXPECT_FALSE(rt.cancel(id));
  EXPECT_FALSE(rt.cancel(id));  // idempotent
}

// Regression (pre-wheel bug): tombstones for fired timers accumulated
// without bound. pending() is exact now — heavy fire + cancel churn must
// end at zero, and ids from long ago must stay dead.
TEST(RealRuntime, CancelChurnLeavesNothingPending) {
  RealRuntime rt;
  std::atomic<int> count{0};
  std::vector<Runtime::TimerId> old_ids;
  for (int round = 0; round < 20; ++round) {
    std::vector<Runtime::TimerId> ids;
    for (int i = 0; i < 100; ++i)
      ids.push_back(rt.schedule(usecs(200 * i), [&] { count.fetch_add(1); }));
    for (std::size_t i = 0; i < ids.size(); i += 2) rt.cancel(ids[i]);
    rt.drain();
    old_ids.push_back(ids.front());
  }
  EXPECT_EQ(rt.pending(), 0u);
  for (const auto id : old_ids) EXPECT_FALSE(rt.cancel(id));
  EXPECT_GT(count.load(), 0);
}

TEST(RealRuntime, PendingTracksScheduleAndCancel) {
  RealRuntime rt;
  const auto a = rt.schedule(secs(30), [] {});
  const auto b = rt.schedule(secs(30), [] {});
  const auto c = rt.schedule(secs(30), [] {});
  EXPECT_EQ(rt.pending(), 3u);
  EXPECT_TRUE(rt.cancel(b));
  EXPECT_EQ(rt.pending(), 2u);
  EXPECT_TRUE(rt.cancel(a));
  EXPECT_TRUE(rt.cancel(c));
  rt.drain();  // all cancelled: returns without waiting 30 s
  EXPECT_EQ(rt.pending(), 0u);
}

// Multi-producer schedule/cancel storm across the sharded submission
// queues; every timer must either fire or be cancelled-true, exactly once.
// Meaningful under TSan (tools/check_all.sh runs this suite there).
TEST(RealRuntime, MultiProducerScheduleCancelStorm) {
  RealRuntime rt;
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  std::atomic<std::uint64_t> fired{0};
  std::atomic<std::uint64_t> cancelled{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      std::vector<Runtime::TimerId> mine;
      mine.reserve(kPerProducer);
      for (int i = 0; i < kPerProducer; ++i) {
        mine.push_back(rt.schedule(usecs((i % 7) * 300),
                                   [&] { fired.fetch_add(1); }));
        if ((i + p) % 2 == 0) {
          if (rt.cancel(mine[static_cast<std::size_t>(i) / 2]))
            cancelled.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  rt.drain();
  EXPECT_EQ(fired.load() + cancelled.load(),
            static_cast<std::uint64_t>(kProducers) * kPerProducer);
  EXPECT_EQ(rt.pending(), 0u);
}

// drain() racing shutdown() from another thread must never hang: the
// stopping flag releases waiters even with undrained timers pending.
TEST(RealRuntime, DrainVersusShutdownRace) {
  for (int iter = 0; iter < 10; ++iter) {
    RealRuntime rt;
    rt.schedule(secs(30), [] {});
    std::thread drainer([&] { rt.drain(); });
    std::thread spammer([&] {
      for (int i = 0; i < 100; ++i) rt.schedule(secs(10), [] {});
    });
    rt.shutdown();
    drainer.join();
    spammer.join();
  }
  SUCCEED();
}

// Producers hammering schedule() while shutdown runs: late schedules must
// return kInvalidTimer or be dropped cleanly (tasks destroyed, no leak —
// ASan-visible in the check_all matrix), never crash.
TEST(RealRuntime, ShutdownWhileProducersSchedule) {
  std::atomic<int> invalid{0};
  {
    RealRuntime rt;
    std::atomic<bool> go{false};
    std::vector<std::thread> producers;
    for (int p = 0; p < 3; ++p) {
      producers.emplace_back([&] {
        while (!go.load()) {
        }
        for (int i = 0; i < 500; ++i) {
          if (rt.schedule(msecs(100), [] {}) == Runtime::kInvalidTimer)
            invalid.fetch_add(1);
        }
      });
    }
    go = true;
    rt.shutdown();
    for (auto& t : producers) t.join();
  }
  SUCCEED();
}

// Lost-wakeup stress for the staged-drain fast path and the Dekker sleep
// handshake: a producer stages one task at a time into an idle loop (no
// timers pending, so a swallowed submission would sleep forever) after a
// random 0-200 us gap, catching the loop anywhere between its last drain
// and its wait. Every task must run within a generous bound of its post.
TEST(RealRuntime, StagedSubmissionIntoIdleLoopIsNeverLost) {
  constexpr int kRounds = 3000;
  constexpr auto kBound = std::chrono::seconds(2);
  std::atomic<int> ran{0};
  RealRuntime rt;
  Rng rng(14);
  for (int i = 0; i < kRounds; ++i) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(rng.uniform_index(201)));
    const auto posted = std::chrono::steady_clock::now();
    rt.post([&ran] { ran.fetch_add(1, std::memory_order_release); });
    while (ran.load(std::memory_order_acquire) != i + 1) {
      ASSERT_LT(std::chrono::steady_clock::now() - posted, kBound)
          << "task " << i << " staged into an idle loop never ran";
      std::this_thread::yield();
    }
  }
}

}  // namespace
}  // namespace ilu
