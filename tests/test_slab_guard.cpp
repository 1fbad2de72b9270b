// Death tests for the slab's debug stale-handle detection. This binary is
// compiled with ILU_DEBUG_CHECKS=1 (unlike the main library, where ILU_DCHECK
// compiles out in release builds), so a dereference through a recycled or
// erased handle must abort with a diagnostic instead of silently aliasing
// whatever record now occupies the slot. Header-only on purpose: everything
// it exercises (runtime/slab.hpp, util/dcheck.hpp, containers/container.hpp)
// is inline, so no library TU compiled without the flag gets mixed in.

#include <gtest/gtest.h>

#include "containers/container.hpp"
#include "runtime/slab.hpp"

namespace ilu {
namespace {

static_assert(ILU_DEBUG_CHECKS == 1,
              "this test must build with slab handle checks enabled");

class SlabGuardDeathTest : public ::testing::Test {
 protected:
  SlabGuardDeathTest() {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  }
};

TEST_F(SlabGuardDeathTest, GetAfterEraseAborts) {
  ContainerStore store;
  ContainerHandle h = store.emplace();
  store.get(h).id = 7;
  store.erase(h);
  EXPECT_DEATH(store.get(h), "stale slab handle");
}

TEST_F(SlabGuardDeathTest, GetThroughRecycledSlotAborts) {
  ContainerStore store;
  ContainerHandle old = store.emplace();
  store.erase(old);
  ContainerHandle fresh = store.emplace();  // same slot, new generation
  ASSERT_EQ(fresh.index, old.index);
  ASSERT_NE(fresh.gen, old.gen);
  ASSERT_TRUE(store.contains(fresh));
  ASSERT_FALSE(store.contains(old));
  EXPECT_DEATH(store.get(old), "stale slab handle");
}

TEST_F(SlabGuardDeathTest, DoubleEraseAborts) {
  Slab<int> slab;
  SlabHandle h = slab.emplace(42);
  slab.erase(h);
  EXPECT_DEATH(slab.erase(h), "stale slab handle");
}

TEST_F(SlabGuardDeathTest, NullHandleGetAborts) {
  Slab<int> slab;
  (void)slab.emplace(1);
  SlabHandle null_handle;  // index 0, gen 0: never issued
  EXPECT_DEATH(slab.get(null_handle), "stale slab handle");
}

TEST(SlabGuard, ContainsIsExactAcrossRecycling) {
  Slab<int> slab;
  SlabHandle a = slab.emplace(1);
  SlabHandle b = slab.emplace(2);
  slab.erase(a);
  SlabHandle c = slab.emplace(3);  // recycles a's slot
  EXPECT_FALSE(slab.contains(a));
  EXPECT_TRUE(slab.contains(b));
  EXPECT_TRUE(slab.contains(c));
  EXPECT_EQ(slab.get(c), 3);
  EXPECT_EQ(slab.get(b), 2);
}

}  // namespace
}  // namespace ilu
