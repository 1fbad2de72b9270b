#include "trace/workload.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "trace/function_profile.hpp"

namespace ilu {
namespace {

Trace tiny_trace() {
  Trace t;
  t.functions = {lookbusy(msecs(100), 128), lookbusy(secs(1), 256)};
  t.duration = secs(10);
  t.keys = {Trace::pack(secs(0), 0), Trace::pack(secs(1), 1),
            Trace::pack(secs(2), 0), Trace::pack(secs(3), 0),
            Trace::pack(secs(4), 1)};
  return t;
}

TEST(FunctionBench, MatchesTable3) {
  auto fb = function_bench();
  ASSERT_EQ(fb.size(), 7u);
  auto cnn = function_bench_app("ml_inference");
  EXPECT_EQ(cnn.mem_mb, 512u);
  EXPECT_EQ(cnn.init_time, secs(4.5));
  EXPECT_EQ(cnn.cold_time(), secs(6.5));  // Table 3 "run time"
  auto fp = function_bench_app("float_op");
  EXPECT_EQ(fp.mem_mb, 128u);
  EXPECT_EQ(fp.init_time, secs(1.7));
  EXPECT_EQ(fp.cold_time(), secs(2.0));
}

TEST(FunctionBench, UnknownAppThrows) {
  EXPECT_THROW(function_bench_app("nope"), std::out_of_range);
}

TEST(FunctionBench, AllWarmTimesPositive) {
  for (const auto& p : function_bench()) {
    EXPECT_GT(p.warm_time, Duration::zero()) << p.name;
    EXPECT_GT(p.init_time, Duration::zero()) << p.name;
  }
}

TEST(TraceStats, CountsAndRate) {
  auto t = tiny_trace();
  auto s = t.stats();
  EXPECT_EQ(s.num_functions, 2u);
  EXPECT_EQ(s.num_invocations, 5u);
  EXPECT_NEAR(s.reqs_per_sec, 0.5, 1e-9);  // 5 events over 10 s
  // IAT over the observed span: 4 s across 4 gaps = 1 s.
  EXPECT_EQ(s.avg_iat, secs(1));
  EXPECT_EQ(s.invocations_by_function, (std::vector<std::size_t>{3, 2}));
}

TEST(TraceStats, UnknownFunctionThrows) {
  auto t = tiny_trace();
  t.keys.push_back(Trace::pack(secs(5), 2));  // only fns 0 and 1 exist
  EXPECT_THROW(t.stats(), std::out_of_range);
}

TEST(TraceStats, LittlesLawConcurrency) {
  auto t = tiny_trace();
  auto s = t.stats();
  // fn0: 3 inv / 10 s * 0.1 s = 0.03; fn1: 2 / 10 * 1 = 0.2.
  EXPECT_NEAR(s.expected_concurrency, 0.23, 1e-9);
}

TEST(TraceStats, EmptyTrace) {
  Trace t;
  auto s = t.stats();
  EXPECT_EQ(s.num_invocations, 0u);
  EXPECT_DOUBLE_EQ(s.reqs_per_sec, 0.0);
}

TEST(TraceTimeseries, MinuteBuckets) {
  Trace t;
  t.functions = {lookbusy(msecs(10), 64)};
  t.duration = mins(3);
  t.keys = {Trace::pack(secs(10), 0), Trace::pack(secs(20), 0),
            Trace::pack(secs(70), 0)};
  auto rps = t.invocations_per_second_by_minute();
  ASSERT_EQ(rps.size(), 3u);
  EXPECT_NEAR(rps[0], 2.0 / 60.0, 1e-9);
  EXPECT_NEAR(rps[1], 1.0 / 60.0, 1e-9);
  EXPECT_NEAR(rps[2], 0.0, 1e-9);
}

TEST(TraceValid, DetectsUnsortedEvents) {
  auto t = tiny_trace();
  EXPECT_TRUE(t.valid());
  std::swap(t.keys[0], t.keys[4]);
  EXPECT_FALSE(t.valid());
}

TEST(TraceValid, DetectsBadFunctionId) {
  auto t = tiny_trace();
  t.keys.push_back(Trace::pack(secs(9), 7));
  EXPECT_FALSE(t.valid());
}

TEST(TraceValid, DetectsTiesOutOfFunctionOrder) {
  // Keys order ties at one microsecond by function id; fn 1 before fn 0 at
  // the same instant is not a sorted trace.
  auto t = tiny_trace();
  t.keys = {Trace::pack(secs(0), 1), Trace::pack(secs(0), 0)};
  EXPECT_FALSE(t.valid());
}

TEST(TracePackChecked, RejectsOutOfRangeInEveryBuildType) {
  const auto max_fn = static_cast<FunctionId>(Trace::kMaxFn);
  const std::uint64_t k = Trace::pack_checked(TimePoint{Trace::kMaxUs}, max_fn);
  EXPECT_EQ(Trace::key_at(k).count(), Trace::kMaxUs);
  EXPECT_EQ(Trace::key_fn(k), max_fn);
  EXPECT_THROW(Trace::pack_checked(TimePoint{Trace::kMaxUs + 1}, 0),
               std::out_of_range);
  EXPECT_THROW(Trace::pack_checked(TimePoint{-1}, 0), std::out_of_range);
  EXPECT_THROW(Trace::pack_checked(TimePoint{0}, max_fn + 1),
               std::out_of_range);
}

}  // namespace
}  // namespace ilu
