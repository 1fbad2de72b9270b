// Death tests for the debug-build ownership auditor (DESIGN.md §10).
//
// This binary compiles the two runtime TUs directly with ILU_DEBUG_CHECKS=1
// (see tests/CMakeLists.txt) instead of linking the main library, so the
// auditor is active regardless of the outer build type and no ODR conflict
// with the Release-configured libiluvatar arises.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>

#include "runtime/sharded_runtime.hpp"
#include "runtime/sim_runtime.hpp"
#include "util/dcheck.hpp"

namespace {

static_assert(ILU_DEBUG_CHECKS == 1,
              "this test must build with the ownership auditor enabled");

class OwnershipGuardDeathTest : public ::testing::Test {
 protected:
  OwnershipGuardDeathTest() {
    // Death tests fork; threadsafe style re-executes the binary so the
    // threads spawned inside the EXPECT_DEATH body are safe.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  }
};

TEST_F(OwnershipGuardDeathTest, CrossThreadScheduleAborts) {
  EXPECT_DEATH(
      {
        ilu::SimRuntime rt;  // owned by this (the constructing) thread
        std::thread intruder(
            [&rt] { rt.schedule(ilu::Duration{1}, [] {}); });
        intruder.join();
      },
      "does not own");
}

TEST_F(OwnershipGuardDeathTest, CrossThreadNowAborts) {
  EXPECT_DEATH(
      {
        ilu::SimRuntime rt;
        std::thread intruder([&rt] { (void)rt.now(); });
        intruder.join();
      },
      "does not own");
}

TEST_F(OwnershipGuardDeathTest, CrossShardScheduleDuringRunAborts) {
  EXPECT_DEATH(
      {
        ilu::ShardedRuntime srt(2, ilu::Duration{100});
        // Event on shard 0 pokes shard 1's heap directly instead of going
        // through send(): shard 1 is bound to its own window thread while
        // the run is in flight, so the auditor must abort.
        srt.shard(0).schedule(ilu::Duration{10}, [&srt] {
          srt.shard(1).schedule(ilu::Duration{1}, [] {});
        });
        // Give shard 1 work so its window thread is alive and bound.
        srt.shard(1).schedule(ilu::Duration{500000}, [] {});
        srt.run_until(ilu::TimePoint{1000000});
      },
      "does not own");
}

TEST_F(OwnershipGuardDeathTest, ConservativePastSendAborts) {
  // A cross-shard send inside the lookahead horizon breaks the window
  // engine's safety argument outright, so it aborts.
  EXPECT_DEATH(
      {
        ilu::ShardedRuntime srt(2, ilu::Duration{100});
        srt.shard(0).schedule(ilu::Duration{10}, [&srt] {
          srt.send(0, 1, srt.shard(0).now() + ilu::Duration{1}, 7, [] {});
        });
        srt.shard(1).schedule(ilu::Duration{500}, [] {});
        srt.run_until(ilu::TimePoint{1000});
      },
      "lookahead promise");
}

TEST_F(OwnershipGuardDeathTest, IluDcheckAborts) {
  EXPECT_DEATH({ ILU_DCHECK(1 + 1 == 3, "arithmetic still works"); },
               "ILU_DCHECK failed");
}

TEST(OwnershipGuard, BindHandsOffCleanly) {
  // A deliberate handoff (bind on the new thread, externally synchronized by
  // the join) is legal: the second thread becomes the owner, and the driver
  // re-binds afterwards.
  ilu::SimRuntime rt;
  std::uint64_t fired = 0;
  std::thread worker([&] {
    rt.bind_owner();
    rt.schedule(ilu::Duration{5}, [&fired] { ++fired; });
    rt.run();
  });
  worker.join();
  rt.bind_owner();
  EXPECT_EQ(fired, 1u);
  EXPECT_EQ(rt.pending(), 0u);
}

TEST(OwnershipGuard, ShardedRunWithProperSendsPasses) {
  // The sanctioned protocol — cross-shard work through send(), ownership
  // rebound to the driver after the run — must not trip the auditor.
  ilu::ShardedRuntime srt(2, ilu::Duration{100});
  std::uint64_t delivered = 0;
  srt.shard(0).schedule(ilu::Duration{10}, [&srt, &delivered] {
    auto at = srt.shard(0).now() + ilu::Duration{100};
    srt.send(0, 1, at, 7, [&delivered] { ++delivered; });
  });
  srt.run_until(ilu::TimePoint{1000});
  EXPECT_EQ(delivered, 1u);
  // Driver owns every shard again: direct scheduling is legal here.
  srt.shard(1).schedule(ilu::Duration{1}, [&delivered] { ++delivered; });
  srt.run_until(ilu::TimePoint{2000});
  EXPECT_EQ(delivered, 2u);
}

}  // namespace
