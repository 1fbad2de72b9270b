// Tests for the research-platform extensions: the clairvoyant oracle
// policy, snapshot-based cold starts, the stretch-signal AIMD regulator,
// and the energy meter.

#include <gtest/gtest.h>

#include "containers/backend.hpp"
#include "core/energy.hpp"
#include "keepalive/clairvoyant.hpp"
#include "keepalive/simulator.hpp"
#include "queueing/regulator.hpp"
#include "runtime/sim_runtime.hpp"
#include "trace/azure.hpp"
#include "trace/function_profile.hpp"
#include "trace/loadgen.hpp"

namespace ilu {
namespace {

// ---------- ClairvoyantPolicy ----------

TEST(Clairvoyant, NextUseTracksTrace) {
  Trace t;
  t.functions = {lookbusy(secs(1), 100, secs(1))};
  t.duration = mins(10);
  t.keys = {Trace::pack(secs(10), 0), Trace::pack(secs(50), 0),
            Trace::pack(secs(200), 0)};
  ClairvoyantPolicy p(t);
  EXPECT_EQ(p.next_use(0), secs(10));
  p.on_invocation(0, secs(10));
  EXPECT_EQ(p.next_use(0), secs(50));
  p.on_invocation(0, secs(50));
  EXPECT_EQ(p.next_use(0), secs(200));
  p.on_invocation(0, secs(200));
  // Exhausted: sentinel far future.
  EXPECT_GT(p.next_use(0), secs(1e9));
}

TEST(Clairvoyant, RanksFurthestNextUseForEviction) {
  Trace t;
  t.functions = {lookbusy(secs(1), 100, secs(1)),
                 lookbusy(secs(1), 100, secs(1))};
  t.duration = mins(10);
  t.keys = {Trace::pack(secs(0), 0), Trace::pack(secs(0), 1),
            Trace::pack(secs(30), 0), Trace::pack(secs(300), 1)};
  ClairvoyantPolicy p(t);
  p.on_invocation(0, secs(0));
  p.on_invocation(1, secs(0));
  CacheEntry a;
  a.fn = 0;
  CacheEntry b;
  b.fn = 1;
  // fn1's next use (300 s) is further than fn0's (30 s) -> lower rank.
  EXPECT_LT(p.eviction_rank(b), p.eviction_rank(a));
}

TEST(Clairvoyant, UnknownFunctionIsNeverNeeded) {
  Trace t;
  t.functions = {lookbusy(secs(1), 100, secs(1))};
  t.duration = secs(10);
  ClairvoyantPolicy p(t);
  CacheEntry e;
  e.fn = 42;
  CacheEntry known;
  known.fn = 0;
  EXPECT_LE(p.eviction_rank(e), p.eviction_rank(known));
}

TEST(Clairvoyant, OracleBeatsOnlinePoliciesOnMissRatio) {
  // The Belady property (uniform-size variant): with equal sizes/costs the
  // oracle's miss count is a lower bound for any online policy.
  AzureModelConfig cfg;
  cfg.population = 500;
  cfg.days = 0.2;
  cfg.seed = 31;
  // Uniform memory/cost so Belady optimality applies.
  cfg.min_fn_mem_mb = 128;
  cfg.max_fn_mem_mb = 128;
  cfg.app_mem_median_mb = 128;
  AzureTraceModel model(cfg);
  auto trace = model.sample_random(60);
  // Equalize init costs.
  for (auto& f : trace.functions) f.init_time = secs(1);

  ClairvoyantPolicy oracle(trace);
  auto o = run_keepalive_sim_with(trace, oracle, 2 * 1024);
  for (const char* pol : {"LRU", "GD", "FREQ", "TTL"}) {
    auto r = run_keepalive_sim(trace, pol, 2 * 1024);
    EXPECT_LE(o.stats.cold_starts, r.stats.cold_starts)
        << "oracle must not lose to " << pol;
  }
}

// ---------- snapshot cold starts ----------

TEST(SnapshotColdStarts, SecondCreateIsFast) {
  SimRuntime rt;
  CpuModel cpu(rt, 4.0);
  auto profile = BackendLatencyProfile::containerd();
  profile.snapshot_cold_starts = true;
  profile.snapshot_restore = LatencyModel::constant(msecs(60));
  profile.create = LatencyModel::constant(msecs(300));
  profile.agent_start = LatencyModel::constant(msecs(200));
  SimContainerBackend be(rt, cpu, Rng(1), profile);

  auto fn = pyaes();
  TimePoint first_done{}, second_done{};
  be.create_container(fn, [&](bool ok) {
    EXPECT_TRUE(ok);
    first_done = rt.now();
    be.create_container(fn, [&](bool ok2) {
      EXPECT_TRUE(ok2);
      second_done = rt.now();
    });
  });
  rt.run();
  EXPECT_EQ(first_done, msecs(500));            // full create + agent
  EXPECT_EQ(second_done - first_done, msecs(60));  // snapshot restore
  EXPECT_EQ(be.snapshot_restores(), 1u);
}

TEST(SnapshotColdStarts, DistinctFunctionsGetOwnSnapshots) {
  SimRuntime rt;
  CpuModel cpu(rt, 4.0);
  auto profile = BackendLatencyProfile::crun();
  profile.snapshot_cold_starts = true;
  SimContainerBackend be(rt, cpu, Rng(1), profile);
  be.create_container(pyaes(), [](bool) {});
  rt.run();
  // A different function's first create is NOT a snapshot restore.
  be.create_container(function_bench_app("float_op"), [](bool) {});
  rt.run();
  EXPECT_EQ(be.snapshot_restores(), 0u);
}

TEST(SnapshotColdStarts, DisabledByDefault) {
  SimRuntime rt;
  CpuModel cpu(rt, 4.0);
  SimContainerBackend be(rt, cpu, Rng(1),
                         BackendLatencyProfile::containerd());
  be.create_container(pyaes(), [](bool) {});
  rt.run();
  be.create_container(pyaes(), [](bool) {});
  rt.run();
  EXPECT_EQ(be.snapshot_restores(), 0u);
}

// ---------- stretch-signal AIMD ----------

TEST(StretchAimd, DecreasesOnHighStretch) {
  RegulatorConfig cfg{.limit = 50.0, .dynamic = true};
  cfg.signal = CongestionSignal::Stretch;
  cfg.stretch_threshold = 2.0;
  ConcurrencyRegulator reg(cfg);
  reg.tick(/*normalized_load=*/0.1, /*recent_stretch=*/3.0);
  EXPECT_DOUBLE_EQ(reg.limit(), 35.0);
}

TEST(StretchAimd, IncreasesWhenStretchLow) {
  RegulatorConfig cfg{.limit = 50.0, .dynamic = true};
  cfg.signal = CongestionSignal::Stretch;
  ConcurrencyRegulator reg(cfg);
  // Load average says congested, but the stretch signal is in charge.
  reg.tick(/*normalized_load=*/5.0, /*recent_stretch=*/1.1);
  EXPECT_DOUBLE_EQ(reg.limit(), 51.0);
}

TEST(StretchAimd, LoadSignalIgnoresStretch) {
  RegulatorConfig cfg{.limit = 50.0, .dynamic = true};
  ConcurrencyRegulator reg(cfg);  // default LoadAverage signal
  reg.tick(/*normalized_load=*/0.5, /*recent_stretch=*/10.0);
  EXPECT_DOUBLE_EQ(reg.limit(), 51.0);
}

// ---------- energy meter ----------

TEST(EnergyMeter, IdleConsumesIdlePower) {
  EnergyMeter m(48.0);
  // No demand changes: 10 s at idle floor.
  EXPECT_NEAR(m.total_joules(secs(10)), 120.0 * 10.0, 1e-6);
  EXPECT_NEAR(m.active_joules(secs(10)), 0.0, 1e-6);
}

TEST(EnergyMeter, FullLoadConsumesMaxPower) {
  EnergyMeter m(48.0);
  m.on_demand_change(secs(0), 48.0);
  EXPECT_NEAR(m.total_joules(secs(10)), 420.0 * 10.0, 1e-6);
  EXPECT_NEAR(m.active_joules(secs(10)), 300.0 * 10.0, 1e-6);
}

TEST(EnergyMeter, PiecewiseIntegration) {
  EnergyMeter m(10.0, {.idle_watts = 100.0, .max_watts = 200.0});
  m.on_demand_change(secs(0), 5.0);   // 150 W for 4 s
  m.on_demand_change(secs(4), 10.0);  // 200 W for 6 s
  EXPECT_NEAR(m.total_joules(secs(10)), 150.0 * 4 + 200.0 * 6, 1e-6);
}

TEST(EnergyMeter, OvercommittedDemandClampsToMax) {
  EnergyMeter m(10.0, {.idle_watts = 100.0, .max_watts = 200.0});
  m.on_demand_change(secs(0), 50.0);  // 5x overcommit: still 200 W
  EXPECT_NEAR(m.total_joules(secs(2)), 400.0, 1e-6);
}

TEST(EnergyMeter, AverageWatts) {
  EnergyMeter m(10.0, {.idle_watts = 100.0, .max_watts = 200.0});
  m.on_demand_change(secs(0), 10.0);
  m.on_demand_change(secs(5), 0.0);
  EXPECT_NEAR(m.average_watts(secs(10)), 150.0, 1e-6);
}

TEST(EnergyMeter, IntegratesWithCpuModel) {
  SimRuntime rt;
  CpuModel cpu(rt, 4.0);
  EnergyMeter meter(4.0, {.idle_watts = 100.0, .max_watts = 300.0});
  cpu.set_demand_observer([&](TimePoint t, double demand) {
    meter.on_demand_change(t, demand);
  });
  // 4 cores fully busy for exactly 5 s.
  for (int i = 0; i < 4; ++i) cpu.submit(5.0, 1.0, [] {});
  rt.run_until(secs(10));
  // 5 s at 300 W + 5 s at 100 W.
  EXPECT_NEAR(meter.total_joules(secs(10)), 300.0 * 5 + 100.0 * 5, 1.0);
}

}  // namespace
}  // namespace ilu
