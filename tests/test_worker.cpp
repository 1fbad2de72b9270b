#include "core/worker.hpp"

#include <gtest/gtest.h>

#include "runtime/sim_runtime.hpp"
#include "trace/function_profile.hpp"

namespace ilu {
namespace {

WorkerConfig base_config() {
  WorkerConfig cfg;
  cfg.cores = 8.0;
  cfg.memory_mb = 4096;
  cfg.regulator.limit = 16.0;
  cfg.pool.sweep_interval = msecs(500);
  cfg.seed = 1234;
  return cfg;
}

class WorkerTest : public ::testing::Test {
 protected:
  WorkerTest() : worker_(rt_, base_config()) {
    fn_ = worker_.register_function(pyaes());  // warm 300 ms, init 1.2 s
    worker_.start();
  }
  ~WorkerTest() override { worker_.shutdown(); }

  InvokeResult invoke_and_run(FunctionId fn) {
    InvokeResult out;
    bool done = false;
    worker_.invoke(fn, [&](const InvokeResult& r) {
      out = r;
      done = true;
    });
    // Drain events until the callback fires (pool sweeps keep the queue
    // non-empty, so run bounded time slices).
    for (int i = 0; i < 10000 && !done; ++i) rt_.run_for(msecs(100));
    EXPECT_TRUE(done);
    return out;
  }

  SimRuntime rt_;
  Worker worker_;
  FunctionId fn_ = 0;
};

TEST_F(WorkerTest, FirstInvocationIsCold) {
  auto r = invoke_and_run(fn_);
  EXPECT_TRUE(r.success);
  EXPECT_TRUE(r.cold);
  // Cold execution includes init: 1.5 s total on an idle machine.
  EXPECT_NEAR(to_ms(r.exec_time), 1500.0, 50.0);
  EXPECT_EQ(worker_.cold_starts(), 1u);
}

TEST_F(WorkerTest, SecondInvocationIsWarm) {
  invoke_and_run(fn_);
  auto r = invoke_and_run(fn_);
  EXPECT_TRUE(r.success);
  EXPECT_FALSE(r.cold);
  EXPECT_NEAR(to_ms(r.exec_time), 300.0, 20.0);
  EXPECT_EQ(worker_.warm_starts(), 1u);
}

TEST_F(WorkerTest, WarmOverheadIsMilliseconds) {
  invoke_and_run(fn_);
  auto r = invoke_and_run(fn_);
  // The paper's headline: ~2 ms mean warm overhead (Table 1 sums to ~2.07).
  EXPECT_LT(to_ms(r.overhead()), 10.0);
  EXPECT_GT(to_ms(r.overhead()), 0.5);
}

TEST_F(WorkerTest, ColdOverheadIncludesContainerCreation) {
  auto r = invoke_and_run(fn_);
  // containerd create ~300 ms + agent start ~200 ms.
  EXPECT_GT(to_ms(r.overhead()), 200.0);
}

TEST_F(WorkerTest, SpansAreRecorded) {
  invoke_and_run(fn_);
  invoke_and_run(fn_);
  auto& t = worker_.tracer();
  EXPECT_EQ(t.count(spans::kInvoke), 2u);
  EXPECT_EQ(t.count(spans::kCallContainer), 2u);
  EXPECT_EQ(t.count(spans::kTryLockContainer), 1u);  // warm path only
  EXPECT_GT(t.mean_ms(spans::kCallContainer), 0.5);
}

TEST_F(WorkerTest, PrewarmEliminatesColdStart) {
  bool ok = false;
  worker_.prewarm(fn_, [&](bool v) { ok = v; });
  rt_.run_for(secs(5));
  EXPECT_TRUE(ok);
  EXPECT_EQ(worker_.prewarms(), 1u);
  auto r = invoke_and_run(fn_);
  EXPECT_FALSE(r.cold);
}

TEST_F(WorkerTest, AsyncInvokeDeliversResultOnPoll) {
  auto token = worker_.async_invoke(fn_);
  EXPECT_FALSE(worker_.async_result(token).has_value());
  rt_.run_for(secs(10));
  auto r = worker_.async_result(token);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->success);
  // Result is consumed.
  EXPECT_FALSE(worker_.async_result(token).has_value());
}

TEST_F(WorkerTest, UnregisteredFunctionThrows) {
  EXPECT_THROW(worker_.invoke(99, [](const InvokeResult&) {}),
               std::out_of_range);
  EXPECT_THROW(worker_.prewarm(99), std::out_of_range);
}

TEST_F(WorkerTest, StatusReflectsState) {
  auto s0 = worker_.status();
  EXPECT_EQ(s0.running, 0u);
  EXPECT_EQ(s0.queue_len, 0u);
  EXPECT_DOUBLE_EQ(s0.concurrency_limit, 16.0);
  bool done = false;
  worker_.invoke(fn_, [&](const InvokeResult&) { done = true; });
  rt_.run_for(secs(1));  // mid-execution (cold takes ~2 s)
  auto s1 = worker_.status();
  EXPECT_EQ(s1.running, 1u);
  EXPECT_GT(s1.used_mb, 0u);
  rt_.run_for(secs(10));
  EXPECT_TRUE(done);
}

TEST_F(WorkerTest, ConcurrencyLimitQueuesExcess) {
  // Limit is 16; submit 32 concurrent invocations of a 300 ms function
  // (after warming one container).
  invoke_and_run(fn_);
  int completed = 0;
  for (int i = 0; i < 32; ++i) {
    worker_.invoke(fn_, [&](const InvokeResult& r) {
      EXPECT_TRUE(r.success);
      ++completed;
    });
  }
  rt_.run_for(msecs(10));
  auto s = worker_.status();
  EXPECT_LE(s.running, 16u);
  EXPECT_GE(s.queue_len, 15u);
  rt_.run_for(secs(60));
  EXPECT_EQ(completed, 32);
}

TEST_F(WorkerTest, ConcurrentSameFunctionInvocationsSpawnStart) {
  // Two simultaneous invocations need two containers: both cold.
  int cold = 0, done = 0;
  for (int i = 0; i < 2; ++i) {
    worker_.invoke(fn_, [&](const InvokeResult& r) {
      ++done;
      cold += r.cold ? 1 : 0;
    });
  }
  rt_.run_for(secs(20));
  EXPECT_EQ(done, 2);
  EXPECT_EQ(cold, 2);
}

TEST_F(WorkerTest, MemoryExhaustionParksInvocations) {
  WorkerConfig cfg = base_config();
  cfg.memory_mb = 200;  // one pyaes container (128 MB) fits
  Worker w(rt_, cfg);
  auto f = w.register_function(pyaes());
  w.start();
  int done = 0;
  for (int i = 0; i < 3; ++i) {
    w.invoke(f, [&](const InvokeResult& r) {
      EXPECT_TRUE(r.success);
      ++done;
    });
  }
  rt_.run_for(secs(60));
  EXPECT_EQ(done, 3);  // they serialize through the single container
  w.shutdown();
}

TEST_F(WorkerTest, MemoryParkRetriesAreCounted) {
  // Ten invocations share memory for one container: every release re-queues
  // every parked invocation, and each re-queue costs a dispatch. The
  // counter makes that storm visible, and the dispatch count stays within
  // what initial dispatches, create retries and re-queues can explain.
  WorkerConfig cfg = base_config();
  cfg.memory_mb = 200;  // one pyaes container (128 MB) fits
  Worker w(rt_, cfg);
  auto f = w.register_function(pyaes());
  w.start();
  constexpr std::uint64_t kInvocations = 10;
  std::uint64_t done = 0;
  for (std::uint64_t i = 0; i < kInvocations; ++i) {
    w.invoke(f, [&](const InvokeResult& r) {
      EXPECT_TRUE(r.success);
      ++done;
    });
  }
  rt_.run_for(secs(120));
  EXPECT_EQ(done, kInvocations);
  const std::uint64_t requeues =
      w.metrics().counter("worker.memory_requeues")->value();
  const std::uint64_t dispatches = w.tracer().count(spans::kSpawnWorker);
  const auto retries = static_cast<std::uint64_t>(cfg.create_retries);
  EXPECT_GT(requeues, 0u);
  EXPECT_LE(dispatches, kInvocations * (1 + retries) + requeues);
  w.shutdown();
}

TEST_F(WorkerTest, CreateFailureRetriesThenSucceeds) {
  WorkerConfig cfg = base_config();
  cfg.faults.create_failure_prob = 0.5;
  cfg.create_retries = 10;
  Worker w(rt_, cfg);
  auto f = w.register_function(pyaes());
  w.start();
  int ok = 0;
  for (int i = 0; i < 10; ++i) {
    w.invoke(f, [&](const InvokeResult& r) { ok += r.success ? 1 : 0; });
  }
  rt_.run_for(secs(120));
  EXPECT_EQ(ok, 10);
  w.shutdown();
}

TEST_F(WorkerTest, CreateFailureExhaustsRetriesAndFails) {
  WorkerConfig cfg = base_config();
  cfg.faults.create_failure_prob = 1.0;
  cfg.create_retries = 1;
  Worker w(rt_, cfg);
  auto f = w.register_function(pyaes());
  w.start();
  bool failed = false;
  w.invoke(f, [&](const InvokeResult& r) { failed = !r.success; });
  rt_.run_for(secs(30));
  EXPECT_TRUE(failed);
  EXPECT_EQ(w.failures(), 1u);
  w.shutdown();
}

TEST_F(WorkerTest, BypassShortFunctions) {
  WorkerConfig cfg = base_config();
  cfg.bypass_threshold = secs(1);  // pyaes warm 300 ms qualifies
  Worker w(rt_, cfg);
  auto f = w.register_function(pyaes());
  w.start();
  // First (cold) invocation: unknown characteristics -> no bypass. Second
  // invocation is the first *warm* one, establishing the warm-time window;
  // only the third can bypass.
  for (int i = 0; i < 2; ++i) {
    bool done = false;
    w.invoke(f, [&](const InvokeResult& r) {
      done = true;
      EXPECT_FALSE(r.bypassed);
    });
    rt_.run_for(secs(10));
    ASSERT_TRUE(done);
  }
  bool done = false;
  w.invoke(f, [&](const InvokeResult& r) {
    done = true;
    EXPECT_TRUE(r.bypassed);
  });
  rt_.run_for(secs(10));
  ASSERT_TRUE(done);
  EXPECT_EQ(w.bypassed(), 1u);
  w.shutdown();
}

TEST_F(WorkerTest, TtlPolicyExpiresIdleContainers) {
  WorkerConfig cfg = base_config();
  cfg.keepalive_policy = "TTL";
  Worker w(rt_, cfg);
  auto f = w.register_function(pyaes());
  w.start();
  bool done = false;
  w.invoke(f, [&](const InvokeResult&) { done = true; });
  rt_.run_for(secs(10));
  ASSERT_TRUE(done);
  EXPECT_EQ(w.pool().idle_count(), 1u);
  rt_.run_for(mins(12));
  EXPECT_EQ(w.pool().idle_count(), 0u);
  EXPECT_GE(w.pool().expirations(), 1u);
  w.shutdown();
}

TEST_F(WorkerTest, QueueWaitReportedUnderSaturation) {
  invoke_and_run(fn_);
  std::vector<InvokeResult> results;
  for (int i = 0; i < 32; ++i) {
    worker_.invoke(fn_, [&](const InvokeResult& r) { results.push_back(r); });
  }
  rt_.run_for(secs(60));
  ASSERT_EQ(results.size(), 32u);
  bool some_waited = false;
  for (const auto& r : results) {
    if (r.queue_wait > msecs(10)) some_waited = true;
  }
  EXPECT_TRUE(some_waited);
}

TEST_F(WorkerTest, DeterministicAcrossIdenticalRuns) {
  auto run_once = [](std::uint64_t seed) {
    SimRuntime rt;
    WorkerConfig cfg = base_config();
    cfg.seed = seed;
    Worker w(rt, cfg);
    auto f = w.register_function(pyaes());
    w.start();
    std::vector<std::int64_t> latencies;
    std::function<void(int)> chain = [&](int remaining) {
      if (remaining == 0) return;
      w.invoke(f, [&, remaining](const InvokeResult& r) {
        latencies.push_back(r.flow_time().count());
        chain(remaining - 1);
      });
    };
    chain(20);
    rt.run_for(secs(120));
    w.shutdown();
    return latencies;
  };
  auto a = run_once(5);
  auto b = run_once(5);
  EXPECT_EQ(a, b);
  auto c = run_once(6);
  EXPECT_NE(a, c);
}

}  // namespace
}  // namespace ilu
