// Counting-allocator proof of the zero-steady-state-allocation guarantees
// of the slab pool (DESIGN.md §11) and the CpuModel task table (§4): after
// warm-up, the pool's acquire/return hot path and add/evict churn path, and
// CpuModel's submit/complete churn, must not touch the heap at all. Global
// operator new/delete are replaced in this binary only, so the tests live in
// their own executable rather than the shared suite.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "containers/cpu_model.hpp"
#include "keepalive/pool.hpp"
#include "runtime/sim_runtime.hpp"
#include "trace/function_profile.hpp"
#include "util/rng.hpp"

namespace {
std::atomic<std::uint64_t> g_new_calls{0};
}  // namespace

void* operator new(std::size_t size) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace ilu {
namespace {

constexpr int kFns = 8;
constexpr std::uint32_t kMemMb = 128;

TEST(PoolZeroAlloc, WarmAcquireReturnDoesNotAllocate) {
  SimRuntime rt;
  LruPolicy policy;
  ContainerPool pool(rt, policy,
                     ContainerPool::Config{.capacity_mb = 2 * kFns * kMemMb,
                                           .free_buffer_mb = 0,
                                           .sweep_interval = Duration::zero()},
                     nullptr);
  auto profile = lookbusy(msecs(100), kMemMb, msecs(500));
  // Warm-up: one idle container per function, plus a first acquire/return
  // round so every lazily grown structure reaches steady-state capacity.
  for (int i = 0; i < kFns; ++i) {
    ContainerHandle c =
        pool.add_container(static_cast<FunctionId>(i), profile, usecs(i));
    ASSERT_TRUE(c.valid());
    pool.get(c).state = ContainerState::Launching;
    pool.get(c).state = ContainerState::Running;
    pool.return_container(c, usecs(i));
  }
  for (int i = 0; i < kFns; ++i) {
    ContainerHandle c = pool.acquire(static_cast<FunctionId>(i), usecs(10 + i));
    ASSERT_TRUE(c.valid());
    pool.return_container(c, usecs(10 + i));
  }

  std::uint64_t before = g_new_calls.load(std::memory_order_relaxed);
  std::uint64_t t = 100;
  bool all_valid = true;
  for (int i = 0; i < 10000; ++i) {
    FunctionId fn = static_cast<FunctionId>(i % kFns);
    ContainerHandle c = pool.acquire(fn, usecs(t));
    all_valid = all_valid && c.valid();
    if (c.valid()) pool.return_container(c, usecs(t + 1));
    t += 2;
  }
  std::uint64_t after = g_new_calls.load(std::memory_order_relaxed);
  EXPECT_TRUE(all_valid);
  EXPECT_EQ(after - before, 0u)
      << "warm acquire/return path allocated " << (after - before) << " times";
}

TEST(PoolZeroAlloc, SteadyStateAddEvictChurnDoesNotAllocate) {
  SimRuntime rt;
  LruPolicy policy;
  ContainerPool pool(rt, policy,
                     ContainerPool::Config{.capacity_mb = kFns * kMemMb,
                                           .free_buffer_mb = 0,
                                           .sweep_interval = Duration::zero()},
                     nullptr);
  auto profile = lookbusy(msecs(100), kMemMb, msecs(500));
  // Warm-up to capacity so every later add evicts and recycles a slot.
  for (int i = 0; i < 4 * kFns; ++i) {
    ContainerHandle c = pool.add_container(static_cast<FunctionId>(i % kFns),
                                           profile, usecs(i));
    ASSERT_TRUE(c.valid());
    pool.get(c).state = ContainerState::Launching;
    pool.get(c).state = ContainerState::Running;
    pool.return_container(c, usecs(i));
  }

  std::uint64_t before = g_new_calls.load(std::memory_order_relaxed);
  std::uint64_t t = 1000;
  bool all_valid = true;
  for (int i = 0; i < 10000; ++i) {
    ContainerHandle c = pool.add_container(static_cast<FunctionId>(i % kFns),
                                           profile, usecs(t));
    all_valid = all_valid && c.valid();
    if (c.valid()) {
      pool.get(c).state = ContainerState::Launching;
      pool.get(c).state = ContainerState::Running;
      pool.return_container(c, usecs(t + 1));
    }
    t += 2;
  }
  std::uint64_t after = g_new_calls.load(std::memory_order_relaxed);
  EXPECT_TRUE(all_valid);
  EXPECT_EQ(after - before, 0u)
      << "add/evict churn path allocated " << (after - before) << " times";
}

// Holds `kRunning` tasks on the model: every completion submits a
// replacement with fresh random work and weight, so each event is one
// completion plus one submit against a full table.
class CpuChurn {
 public:
  static constexpr int kRunning = 128;

  explicit CpuChurn(SimRuntime& rt) : cpu_(rt, 32.0), rng_(99) {
    for (int i = 0; i < kRunning; ++i) spawn();
  }
  std::uint64_t completed() const { return completed_; }
  std::size_t running() const { return cpu_.running(); }

 private:
  void spawn() {
    cpu_.submit(rng_.uniform(0.001, 0.01), rng_.uniform(0.25, 1.0), [this] {
      ++completed_;
      spawn();
    });
  }

  CpuModel cpu_;
  Rng rng_;
  std::uint64_t completed_ = 0;
};

TEST(CpuModelZeroAlloc, SteadySubmitCompleteChurnDoesNotAllocate) {
  SimRuntime rt;
  CpuChurn churn(rt);
  // Warm-up: let the task table, callback slab, done buffer and the
  // runtime's event heap reach their steady-state capacities.
  rt.run_until(secs(1));
  const std::uint64_t warm = churn.completed();
  ASSERT_GT(warm, 1000u);

  std::uint64_t before = g_new_calls.load(std::memory_order_relaxed);
  rt.run_until(secs(3));
  std::uint64_t after = g_new_calls.load(std::memory_order_relaxed);
  EXPECT_GT(churn.completed() - warm, 10000u);
  EXPECT_EQ(churn.running(), static_cast<std::size_t>(CpuChurn::kRunning));
  EXPECT_EQ(after - before, 0u)
      << "submit/complete churn allocated " << (after - before) << " times";
}

}  // namespace
}  // namespace ilu
