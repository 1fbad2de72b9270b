#include "trace/loadgen.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "runtime/sim_runtime.hpp"
#include "trace/function_profile.hpp"

namespace ilu {
namespace {

/// Trivial instant-success invoker that records submission times.
InvokeFn instant_invoker(Runtime& rt, std::vector<TimePoint>* submits) {
  return [&rt, submits](FunctionId fn,
                        std::function<void(const InvokeResult&)> cb) {
    if (submits) submits->push_back(rt.now());
    InvokeResult r;
    r.success = true;
    r.fn = fn;
    r.submitted = rt.now();
    r.exec_started = rt.now();
    r.completed = rt.now();
    rt.post([cb = std::move(cb), r] { cb(r); });
  };
}

/// Invoker that completes after a fixed service time.
InvokeFn delayed_invoker(Runtime& rt, Duration service) {
  return [&rt, service](FunctionId fn,
                        std::function<void(const InvokeResult&)> cb) {
    InvokeResult r;
    r.fn = fn;
    r.success = true;
    r.submitted = rt.now();
    r.exec_started = rt.now();
    r.exec_time = service;
    rt.schedule(service, [&rt, cb = std::move(cb), r]() mutable {
      r.completed = rt.now();
      cb(r);
    });
  };
}

TEST(OpenLoopDriver, SubmitsAtTraceTimes) {
  SimRuntime rt;
  std::vector<TimePoint> submits;
  Trace t;
  t.functions = {pyaes()};
  t.duration = secs(5);
  t.keys = {Trace::pack(msecs(100), 0), Trace::pack(msecs(250), 0),
            Trace::pack(secs(3), 0)};
  OpenLoopDriver d(rt, instant_invoker(rt, &submits));
  d.start(t);
  rt.run();
  ASSERT_EQ(submits.size(), 3u);
  EXPECT_EQ(submits[0], msecs(100));
  EXPECT_EQ(submits[1], msecs(250));
  EXPECT_EQ(submits[2], secs(3));
  EXPECT_TRUE(d.done());
  EXPECT_EQ(d.results().size(), 3u);
}

TEST(OpenLoopDriver, OpenLoopDoesNotWaitForCompletions) {
  SimRuntime rt;
  Trace t;
  t.functions = {pyaes()};
  t.duration = secs(1);
  // Three events 10 ms apart; service time 1 s each.
  t.keys = {Trace::pack(msecs(0), 0), Trace::pack(msecs(10), 0),
            Trace::pack(msecs(20), 0)};
  OpenLoopDriver d(rt, delayed_invoker(rt, secs(1)));
  d.start(t);
  rt.run_until(msecs(25));
  EXPECT_EQ(d.submitted(), 3u);   // all submitted despite none complete
  EXPECT_EQ(d.outstanding(), 3u);
  rt.run();
  EXPECT_TRUE(d.done());
}

TEST(OpenLoopDriver, EmptyTraceIsImmediatelyDone) {
  SimRuntime rt;
  Trace t;
  OpenLoopDriver d(rt, instant_invoker(rt, nullptr));
  d.start(t);
  rt.run();
  EXPECT_TRUE(d.done());
}

TEST(OpenLoopDriver, StartsRelativeToCurrentTime) {
  SimRuntime rt;
  rt.run_until(secs(100));
  std::vector<TimePoint> submits;
  Trace t;
  t.functions = {pyaes()};
  t.duration = secs(1);
  t.keys = {Trace::pack(msecs(500), 0)};
  OpenLoopDriver d(rt, instant_invoker(rt, &submits));
  d.start(t);
  rt.run();
  ASSERT_EQ(submits.size(), 1u);
  EXPECT_EQ(submits[0], secs(100) + msecs(500));
}

TEST(ClosedLoopDriver, EachClientRunsIterations) {
  SimRuntime rt;
  ClosedLoopDriver d(rt, delayed_invoker(rt, msecs(10)), 0, /*clients=*/4);
  d.start(/*iterations_per_client=*/5);
  rt.run();
  EXPECT_TRUE(d.done());
  EXPECT_EQ(d.results().size(), 20u);
  // 5 serial invocations of 10 ms per client, clients run concurrently.
  EXPECT_EQ(rt.now(), msecs(50));
}

TEST(ClosedLoopDriver, SingleClientIsSerial) {
  SimRuntime rt;
  ClosedLoopDriver d(rt, delayed_invoker(rt, msecs(100)), 0, 1);
  d.start(3);
  rt.run();
  EXPECT_EQ(rt.now(), msecs(300));
  EXPECT_EQ(d.results().size(), 3u);
}

TEST(SyntheticTrace, ConstantSpacing) {
  std::vector<SyntheticFunctionSpec> specs{
      {.profile = pyaes(), .mean_iat = secs(1), .exponential = false},
  };
  auto t = make_synthetic_trace(specs, secs(5));
  EXPECT_TRUE(t.valid());
  ASSERT_EQ(t.size(), 5u);
  EXPECT_EQ(t.at(3), secs(3));
}

TEST(SyntheticTrace, PhaseOffset) {
  std::vector<SyntheticFunctionSpec> specs{
      {.profile = pyaes(), .mean_iat = secs(2), .phase = msecs(500)},
  };
  auto t = make_synthetic_trace(specs, secs(5));
  ASSERT_GT(t.size(), 0u);
  EXPECT_EQ(t.at(0), msecs(500));
}

TEST(SyntheticTrace, ExponentialMeanRateConverges) {
  std::vector<SyntheticFunctionSpec> specs{
      {.profile = pyaes(), .mean_iat = msecs(100), .exponential = true},
  };
  auto t = make_synthetic_trace(specs, secs(1000), /*seed=*/7);
  // Expect ~10000 events; Poisson noise is ~1%.
  EXPECT_NEAR(static_cast<double>(t.size()), 10000.0, 400.0);
}

TEST(SyntheticTrace, MergesMultipleFunctionsSorted) {
  std::vector<SyntheticFunctionSpec> specs{
      {.profile = pyaes(), .mean_iat = msecs(300)},
      {.profile = lookbusy(secs(1), 256), .mean_iat = msecs(700)},
  };
  auto t = make_synthetic_trace(specs, secs(10));
  EXPECT_TRUE(t.valid());
  EXPECT_EQ(t.functions.size(), 2u);
  bool saw_both = false;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t.fn(i) == 1) saw_both = true;
  }
  EXPECT_TRUE(saw_both);
}

TEST(TraceKeys, PackRoundTripsAndSortsLikeStableSort) {
  auto profiles = function_bench();
  profiles.resize(4);
  std::vector<SyntheticFunctionSpec> specs;
  for (const auto& p : profiles) {
    specs.push_back({.profile = p, .mean_iat = secs(0.5), .exponential = true});
  }
  auto trace = make_synthetic_trace(specs, secs(30), 7);
  ASSERT_TRUE(trace.valid());

  // Rebuild the generator's function-major emission order from the trace
  // (each function's events are ascending), stable-sort it by time alone,
  // and require the key order back.
  struct Event {
    TimePoint at;
    FunctionId fn;
  };
  std::vector<Event> function_major;
  for (FunctionId f = 0; f < specs.size(); ++f) {
    for (std::size_t i = 0; i < trace.size(); ++i) {
      if (trace.fn(i) == f) function_major.push_back({trace.at(i), f});
    }
  }
  std::stable_sort(function_major.begin(), function_major.end(),
                   [](const Event& a, const Event& b) { return a.at < b.at; });
  ASSERT_EQ(function_major.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace.at(i), function_major[i].at) << "event " << i;
    EXPECT_EQ(trace.fn(i), function_major[i].fn) << "event " << i;
    EXPECT_EQ(Trace::pack(trace.at(i), trace.fn(i)), trace.keys[i]);
  }
}

TEST(CyclicTrace, RotatesThroughFunctions) {
  auto profiles = function_bench();
  profiles.resize(3);
  auto t = make_cyclic_trace(profiles, secs(1), secs(9));
  ASSERT_EQ(t.size(), 9u);
  EXPECT_EQ(t.fn(0), 0u);
  EXPECT_EQ(t.fn(1), 1u);
  EXPECT_EQ(t.fn(2), 2u);
  EXPECT_EQ(t.fn(3), 0u);
  EXPECT_TRUE(t.valid());
}

}  // namespace
}  // namespace ilu
