// Google-benchmark microbenchmarks backing the implementation-efficiency
// claims of §6: queue disciplines, pool acquire/return, policy priority
// computation, CH-BL routing, the discrete-event engine, and the GPS CPU
// model. These measure the *actual* C++ control-plane data structures (not
// modeled latencies).

#include <benchmark/benchmark.h>

#include <array>
#include <thread>
#include <vector>

#include "cpu_model_churn.hpp"
#include "iluvatar.hpp"
#include "mutex_heap_runtime.hpp"

namespace {

using namespace ilu;

void BM_SimRuntimeScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    SimRuntime rt;
    for (int i = 0; i < 1000; ++i) {
      rt.schedule(usecs((i * 37) % 500), [] {});
    }
    rt.run();
    benchmark::DoNotOptimize(rt.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimRuntimeScheduleRun);

void BM_SimRuntimeChurnRealistic(benchmark::State& state) {
  // The worker's actual schedule/cancel/fire mix: closures capture ~40 B
  // (beyond libstdc++ std::function's 16-byte inline buffer, within
  // ilu::Task's 48-byte one) and a quarter of the timers are cancelled
  // before they fire (keep-alive expiry rearms, regulator ticks).
  std::uint64_t sum = 0;
  for (auto _ : state) {
    SimRuntime rt;
    for (int i = 0; i < 1000; ++i) {
      std::array<std::uint64_t, 4> payload{1, 2, 3,
                                           static_cast<std::uint64_t>(i)};
      auto id = rt.schedule(usecs((i * 37) % 500),
                            [payload, &sum] { sum += payload[3]; });
      if (i % 4 == 0) rt.cancel(id);
    }
    rt.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimRuntimeChurnRealistic);

void BM_SimRuntimeScheduleCancel(benchmark::State& state) {
  // Pure schedule+cancel throughput against a standing queue: the cost of
  // arming and disarming timers that never fire (the dominant timer
  // lifecycle for keep-alive TTLs and watchdogs).
  SimRuntime rt;
  std::vector<Runtime::TimerId> ids(512);
  for (auto _ : state) {
    for (int i = 0; i < 512; ++i) {
      ids[i] = rt.schedule(usecs(1000 + (i * 31) % 512), [] {});
    }
    for (int i = 0; i < 512; ++i) {
      benchmark::DoNotOptimize(rt.cancel(ids[i]));
    }
    // Drain so both engines account the full lifecycle: the indexed heap is
    // already empty here; a tombstone design pays its deferred
    // reconciliation now.
    rt.run();
  }
  state.SetItemsProcessed(state.iterations() * 512 * 2);
}
BENCHMARK(BM_SimRuntimeScheduleCancel);

// ---- live (wall-clock) runtime: timer wheel vs mutex+heap baseline -------
//
// The same schedule+cancel lifecycle as BM_SimRuntimeScheduleCancel, but
// against a *live* runtime whose loop thread is concurrently draining: the
// wheel path stages through per-producer shards and cancels with a
// generation-checked CAS; the baseline (bench/mutex_heap_runtime.hpp, the
// pre-wheel RealRuntime) takes a global mutex for both and leaves
// tombstones for the loop to reconcile.

template <class RT>
void live_schedule_cancel(benchmark::State& state) {
  RT rt;
  std::vector<Runtime::TimerId> ids(512);
  for (auto _ : state) {
    for (int i = 0; i < 512; ++i) {
      ids[static_cast<std::size_t>(i)] =
          rt.schedule(usecs(1000 + (i * 31) % 512), [] {});
    }
    for (int i = 0; i < 512; ++i) {
      benchmark::DoNotOptimize(rt.cancel(ids[static_cast<std::size_t>(i)]));
    }
  }
  state.SetItemsProcessed(state.iterations() * 512 * 2);
}

void BM_RealRuntimeScheduleCancelLive(benchmark::State& state) {
  live_schedule_cancel<RealRuntime>(state);
}
BENCHMARK(BM_RealRuntimeScheduleCancelLive);

void BM_MutexHeapScheduleCancelLive(benchmark::State& state) {
  live_schedule_cancel<bench::MutexHeapRuntime>(state);
}
BENCHMARK(BM_MutexHeapScheduleCancelLive);

/// 4 producer threads hammering schedule/cancel concurrently (the open-loop
/// load-harness shape). One batch per iteration; thread spawn cost is
/// identical for both engines and amortized over 2k ops/thread. Producers
/// throttle when the runtime's pending count runs away — on few-core hosts
/// they can outrun the starved loop thread indefinitely, and an unbounded
/// backlog measures allocator growth, not the submission path.
template <class RT>
void live_contended(benchmark::State& state) {
  RT rt;
  const int producers = static_cast<int>(state.range(0));
  constexpr int kOps = 2000;
  for (auto _ : state) {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(producers));
    for (int t = 0; t < producers; ++t) {
      threads.emplace_back([&rt] {
        std::array<Runtime::TimerId, 64> ring{};
        for (int i = 0; i < kOps; ++i) {
          if ((i & 255) == 0) {
            while (rt.pending() > 64 * 1024) std::this_thread::yield();
          }
          ring[static_cast<std::size_t>(i % 64)] =
              rt.schedule(usecs(1000 + (i % 128)), [] {});
          if (i % 2 == 1) {
            benchmark::DoNotOptimize(
                rt.cancel(ring[static_cast<std::size_t>((i / 2) % 64)]));
          }
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  state.SetItemsProcessed(state.iterations() * producers * kOps * 3 / 2);
}

void BM_RealRuntimeContendedLive(benchmark::State& state) {
  live_contended<RealRuntime>(state);
}
BENCHMARK(BM_RealRuntimeContendedLive)->Arg(4);

void BM_MutexHeapContendedLive(benchmark::State& state) {
  live_contended<bench::MutexHeapRuntime>(state);
}
BENCHMARK(BM_MutexHeapContendedLive)->Arg(4);

void BM_QueuePushPop(benchmark::State& state) {
  auto policy = make_queue_policy(
      state.range(0) == 0 ? "FCFS" : state.range(0) == 1 ? "SJF" : "EEDF");
  CharacteristicsMap chars;
  chars.record_warm(0, msecs(100));
  chars.record_cold(0, secs(1));
  InvocationQueue q(*policy, chars);
  std::uint64_t t = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      QueueItem item;
      item.fn = 0;
      item.arrival = usecs(t++);
      q.push(std::move(item), i % 2 == 0);
    }
    while (auto it = q.pop()) benchmark::DoNotOptimize(it->fn);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_QueuePushPop)->Arg(0)->Arg(1)->Arg(2);

void BM_GreedyDualPriority(benchmark::State& state) {
  GreedyDualPolicy policy;
  CacheEntry e;
  e.mem_mb = 256;
  e.init_time = secs(2);
  e.uses = 17;
  for (auto _ : state) {
    policy.on_access(e, secs(1));
    benchmark::DoNotOptimize(policy.eviction_rank(e));
  }
}
BENCHMARK(BM_GreedyDualPriority);

void BM_KeepAliveCacheInvocation(benchmark::State& state) {
  GreedyDualPolicy policy;
  std::vector<FunctionProfile> fns;
  for (int i = 0; i < 64; ++i) {
    fns.push_back(lookbusy(msecs(100 + i), 64 + i * 5, msecs(500)));
  }
  KeepAliveCache cache(policy, {.capacity_mb = 4096}, fns);
  std::uint64_t t = 0;
  std::uint32_t k = 0;
  for (auto _ : state) {
    cache.on_invocation((k * 17) % 64, usecs(t));
    t += 499;
    ++k;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KeepAliveCacheInvocation);

void BM_ContainerPoolAcquireReturn(benchmark::State& state) {
  SimRuntime rt;
  LruPolicy policy;
  ContainerPool pool(rt, policy,
                     ContainerPool::Config{.capacity_mb = 64 * 1024,
                                           .sweep_interval = Duration::zero()},
                     nullptr);
  auto profile = lookbusy(msecs(100), 128, msecs(500));
  for (int i = 0; i < 32; ++i) {
    ContainerHandle c = pool.add_container(0, profile, rt.now());
    pool.get(c).state = ContainerState::Launching;
    pool.get(c).state = ContainerState::Running;
    pool.return_container(c, rt.now());
  }
  std::uint64_t t = 0;
  for (auto _ : state) {
    ContainerHandle c = pool.acquire(0, usecs(t));
    benchmark::DoNotOptimize(c);
    pool.return_container(c, usecs(t + 1));
    t += 2;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ContainerPoolAcquireReturn);

void BM_ChblPick(benchmark::State& state) {
  ChblBalancer lb(static_cast<std::size_t>(state.range(0)));
  std::vector<double> loads(state.range(0), 3.0);
  int k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        lb.pick("function_" + std::to_string(k++ % 512), loads));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChblPick)->Arg(8)->Arg(64);

void BM_CpuModelSubmit(benchmark::State& state) {
  for (auto _ : state) {
    SimRuntime rt;
    CpuModel cpu(rt, 48.0);
    int done = 0;
    for (int i = 0; i < 256; ++i) {
      cpu.submit(0.001 * (i % 7 + 1), 1.0, [&] { ++done; });
    }
    rt.run();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_CpuModelSubmit);

// One completion and one submit per iteration against `state.range(0)`
// running tasks: the per-event table walks a live worker pays at load.
void BM_CpuModelChurn(benchmark::State& state) {
  bench::CpuModelChurn churn(static_cast<std::size_t>(state.range(0)));
  for (int i = 0; i < 1000; ++i) churn.step();  // reach steady capacity
  const std::uint64_t before = churn.completed();
  for (auto _ : state) churn.step();
  state.SetItemsProcessed(
      static_cast<std::int64_t>(churn.completed() - before));
}
BENCHMARK(BM_CpuModelChurn)->Arg(128);

void BM_WorkerWarmInvocationPath(benchmark::State& state) {
  // Full warm-path event chain through the worker on the sim runtime with
  // zeroed latency models: measures pure control-plane engine cost.
  SimRuntime rt;
  WorkerConfig cfg;
  cfg.cores = 48.0;
  cfg.memory_mb = 8 * 1024;
  cfg.latencies = ControlPlaneLatencies{};  // all-zero models
  cfg.backend = BackendLatencyProfile::null_backend();
  cfg.tracing = false;
  cfg.pool.sweep_interval = Duration::zero();
  Worker w(rt, cfg);
  auto fn = w.register_function(lookbusy(usecs(1), 64, usecs(1)));
  w.start();
  bool done = false;
  w.invoke(fn, [&](const InvokeResult&) { done = true; });
  rt.run_for(secs(5));
  for (auto _ : state) {
    done = false;
    w.invoke(fn, [&](const InvokeResult&) { done = true; });
    while (!done) rt.step();
  }
  w.shutdown();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WorkerWarmInvocationPath);

void BM_AzureTraceGeneration(benchmark::State& state) {
  AzureModelConfig cfg;
  cfg.population = 5000;
  cfg.days = 1.0 / 24.0;
  for (auto _ : state) {
    AzureTraceModel model(cfg);
    auto t = model.sample_random(50, 20.0);
    benchmark::DoNotOptimize(t.size());
  }
}
BENCHMARK(BM_AzureTraceGeneration);

}  // namespace

BENCHMARK_MAIN();
