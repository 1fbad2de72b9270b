#include "trace/azure_csv.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "keepalive/simulator.hpp"
#include "util/hash.hpp"

namespace ilu {
namespace {

/// Writes a miniature dataset in the real AzureFunctionsDataset2019 schema.
class AzureCsvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-process directory: ctest runs each case as its own process, and
    // one case's TearDown must not delete a directory another is filling.
    dir_ = std::filesystem::temp_directory_path() /
           ("ilu_azure_csv_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    inv_ = (dir_ / "invocations.csv").string();
    dur_ = (dir_ / "durations.csv").string();
    mem_ = (dir_ / "memory.csv").string();

    {
      std::ofstream f(inv_);
      f << "HashOwner,HashApp,HashFunction,Trigger";
      for (int m = 1; m <= 5; ++m) f << "," << m;
      f << "\n";
      // fnA (appX): 3 invocations in minute 1, 1 in minute 3.
      f << "o1,appX,fnA,http,3,0,1,0,0\n";
      // fnB (appX): invoked once only -> dropped (paper rule).
      f << "o1,appX,fnB,timer,1,0,0,0,0\n";
      // fnC (appY): 2 invocations in minute 5.
      f << "o2,appY,fnC,queue,0,0,0,0,2\n";
    }
    {
      std::ofstream f(dur_);
      f << "HashOwner,HashApp,HashFunction,Average,Count,Minimum,Maximum\n";
      f << "o1,appX,fnA,1000,4,800,3500\n";
      // fnC intentionally missing -> defaults used.
    }
    {
      std::ofstream f(mem_);
      f << "HashOwner,HashApp,SampleCount,AverageAllocatedMb\n";
      f << "o1,appX,100,400\n";
      f << "o2,appY,100,96\n";
    }
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
  std::string inv_, dur_, mem_;
};

TEST_F(AzureCsvTest, LoadsFunctionsAndDropsSingletons) {
  auto t = load_azure_dataset(inv_, dur_, mem_);
  ASSERT_EQ(t.functions.size(), 2u);  // fnB dropped
  EXPECT_EQ(t.functions[0].name, "fnA");
  EXPECT_EQ(t.functions[1].name, "fnC");
  EXPECT_TRUE(t.valid());
}

TEST_F(AzureCsvTest, DurationsMapped) {
  auto t = load_azure_dataset(inv_, dur_, mem_);
  // fnA: warm = Average (1000 ms); init = Maximum - Average (2500 ms).
  EXPECT_EQ(t.functions[0].warm_time, msecs(1000));
  EXPECT_EQ(t.functions[0].init_time, msecs(2500));
  // fnC: defaults.
  AzureCsvOptions opts;
  EXPECT_EQ(t.functions[1].warm_time, opts.default_warm);
  EXPECT_EQ(t.functions[1].init_time, opts.min_init);
}

TEST_F(AzureCsvTest, AppMemorySplitEvenly) {
  auto t = load_azure_dataset(inv_, dur_, mem_);
  // appX has two functions in the invocations file (fnA, fnB) -> 400/2.
  EXPECT_EQ(t.functions[0].mem_mb, 200u);
  // appY has one -> 96.
  EXPECT_EQ(t.functions[1].mem_mb, 96u);
}

TEST_F(AzureCsvTest, MinuteBucketReplayRule) {
  auto t = load_azure_dataset(inv_, dur_, mem_);
  // fnA minute 1 (bucket index 0): 3 invocations equally spaced 20 s apart.
  ASSERT_GE(t.size(), 4u);
  EXPECT_EQ(t.at(0), secs(0));
  EXPECT_EQ(t.at(1), secs(20));
  EXPECT_EQ(t.at(2), secs(40));
  // fnA minute 3 single invocation -> start of minute (120 s).
  EXPECT_EQ(t.at(3), secs(120));
  // fnC minute 5: two at 240 and 270.
  EXPECT_EQ(t.at(4), secs(240));
  EXPECT_EQ(t.at(5), secs(270));
  EXPECT_EQ(t.fn(4), 1u);
}

TEST_F(AzureCsvTest, EventOrderIsPinned) {
  auto t = load_azure_dataset(inv_, dur_, mem_);
  std::uint64_t h = kFnv1a64Basis;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const std::int64_t at = t.at(i).count();
    const std::uint32_t fn = t.fn(i);
    h = fnv1a64_bytes(&at, sizeof at, h);
    h = fnv1a64_bytes(&fn, sizeof fn, h);
  }
  EXPECT_EQ(t.size(), 6u);
  EXPECT_EQ(h, 0x83cde45653be5b34u) << std::hex << h;
}

TEST_F(AzureCsvTest, DurationCoversAllMinutes) {
  auto t = load_azure_dataset(inv_, dur_, mem_);
  EXPECT_EQ(t.duration, mins(5));
}

TEST_F(AzureCsvTest, MaxFunctionsLimits) {
  AzureCsvOptions opts;
  opts.max_functions = 1;
  auto t = load_azure_dataset(inv_, dur_, mem_, opts);
  EXPECT_EQ(t.functions.size(), 1u);
}

TEST_F(AzureCsvTest, MissingFileThrows) {
  EXPECT_THROW(load_azure_dataset("/no/such.csv", dur_, mem_),
               std::runtime_error);
}

TEST_F(AzureCsvTest, MinutePastPackedKeyRangeThrows) {
  // Trace::kMaxUs (2^43 - 1 us) falls inside 0-based minute 146601, so one
  // invocation at the start of minute 146602 cannot be packed: the loader
  // must refuse it in every build type rather than wrap the timestamp.
  constexpr int kMinutes = 146603;
  static_assert(std::int64_t{kMinutes - 1} * 60'000'000 > Trace::kMaxUs);
  auto far = (dir_ / "far_invocations.csv").string();
  {
    std::ofstream f(far);
    f << "HashOwner,HashApp,HashFunction,Trigger";
    for (int m = 1; m <= kMinutes; ++m) f << "," << m;
    f << "\no1,appX,fnA,http,1";
    for (int m = 2; m < kMinutes; ++m) f << ",0";
    f << ",1\n";
  }
  EXPECT_THROW(load_azure_dataset(far, dur_, mem_), std::out_of_range);
}

TEST_F(AzureCsvTest, MalformedHeaderThrows) {
  auto bad = (dir_ / "bad.csv").string();
  {
    std::ofstream f(bad);
    f << "NotTheRightColumns\nx\n";
  }
  EXPECT_THROW(load_azure_dataset(bad, dur_, mem_), std::runtime_error);
}

TEST_F(AzureCsvTest, LoadedTraceRunsThroughKeepAliveSim) {
  auto t = load_azure_dataset(inv_, dur_, mem_);
  auto r = run_keepalive_sim(t, "GD", 1024);
  EXPECT_EQ(r.stats.invocations, t.size());
  EXPECT_GT(r.stats.cold_starts, 0u);
}

}  // namespace
}  // namespace ilu
