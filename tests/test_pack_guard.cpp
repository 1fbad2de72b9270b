// Death tests for Trace::pack's bounds checks. The packed key format
// silently truncates out-of-range inputs in release builds (documented and
// benign for the generators, which clamp first; file input goes through
// the always-on Trace::pack_checked instead), so the only line of defense
// against a corrupting generator is the ILU_DCHECK pair in pack() — this
// binary builds with ILU_DEBUG_CHECKS=1 to prove those checks fire.
// Header-only on purpose: pack/key_at/key_fn are inline in
// trace/workload.hpp, so no library TU compiled without the flag mixes in.

#include <gtest/gtest.h>

#include "trace/workload.hpp"

namespace ilu {
namespace {

static_assert(ILU_DEBUG_CHECKS == 1,
              "this test must build with packed-key bounds checks enabled");

class PackGuardDeathTest : public ::testing::Test {
 protected:
  PackGuardDeathTest() {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  }
};

TEST_F(PackGuardDeathTest, InBoundsExtremesSurvive) {
  std::uint64_t k =
      Trace::pack(TimePoint{Trace::kMaxUs},
                       static_cast<FunctionId>(Trace::kMaxFn));
  EXPECT_EQ(Trace::key_at(k).count(), Trace::kMaxUs);
  EXPECT_EQ(Trace::key_fn(k), Trace::kMaxFn);
}

TEST_F(PackGuardDeathTest, NegativeTimeAborts) {
  EXPECT_DEATH(Trace::pack(TimePoint{-1}, 0),
               "event time out of packed-key range");
}

TEST_F(PackGuardDeathTest, TimePastMaxAborts) {
  EXPECT_DEATH(Trace::pack(TimePoint{Trace::kMaxUs + 1}, 0),
               "event time out of packed-key range");
}

TEST_F(PackGuardDeathTest, FunctionIdPastMaxAborts) {
  EXPECT_DEATH(Trace::pack(
                   TimePoint{0},
                   static_cast<FunctionId>(Trace::kMaxFn + 1)),
               "function id out of packed-key range");
}

}  // namespace
}  // namespace ilu
