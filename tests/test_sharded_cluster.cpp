// End-to-end determinism of the time-parallel cluster: with a fixed seed,
// the sharded simulation must produce a byte-identical ExperimentReport to
// the serial (1-shard) run at ANY shard count — the ISSUE's hard
// requirement for trusting parallel results.

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "lb/cluster.hpp"
#include "metrics/report.hpp"
#include "trace/azure.hpp"
#include "trace/loadgen.hpp"

namespace ilu {
namespace {

Trace small_cluster_trace(double target_rps = 3.0) {
  AzureModelConfig cfg;
  cfg.population = 1500;
  cfg.days = 0.05;
  cfg.seed = 77;
  // Short functions keep the test fast.
  cfg.dur_median_s = 0.3;
  cfg.dur_sigma = 1.2;
  cfg.max_dur_s = 5.0;
  cfg.min_init_s = 0.05;
  cfg.max_init_s = 2.0;
  AzureTraceModel model(cfg);
  return model.sample_random(40, target_rps);
}

struct RunResult {
  std::string report_json;
  std::vector<std::uint64_t> routed;
  std::uint64_t forwarded = 0;
  std::uint64_t warm = 0;
  std::uint64_t cold = 0;
  std::uint64_t windows = 0;
  /// Per worker: its tracer's span log and dropped-record count.
  std::vector<std::vector<SpanRecord>> spans;
  std::vector<std::uint64_t> dropped;
};

RunResult run_cluster(std::size_t shards, const Trace& trace,
                      LbPolicy lb) {
  ClusterConfig cfg;
  cfg.num_workers = 4;
  cfg.lb = lb;
  cfg.worker.cores = 8;
  cfg.worker.memory_mb = 8 * 1024;

  ShardedRuntime srt(shards, cfg.rpc.lower_bound());
  Cluster cluster(srt, cfg);
  for (const auto& f : trace.functions) cluster.register_function(f);
  cluster.start();

  OpenLoopDriver d(srt.shard(0),
                   [&](FunctionId fn,
                       std::function<void(const InvokeResult&)> cb) {
                     cluster.invoke(fn, std::move(cb));
                   });
  d.start(trace);
  while (!d.done()) srt.run_for(secs(30));
  cluster.shutdown();

  std::vector<std::string> names;
  for (const auto& f : trace.functions) names.push_back(f.name);
  ExperimentReport rep(std::move(names));
  rep.add_all(d.results());

  RunResult out;
  out.report_json = rep.to_json().dump();
  out.routed = cluster.routed();
  out.forwarded = cluster.forwarded();
  for (std::size_t i = 0; i < cluster.num_workers(); ++i) {
    out.warm += cluster.worker(i).warm_starts();
    out.cold += cluster.worker(i).cold_starts();
    out.spans.push_back(cluster.worker(i).tracer().spans());
    out.dropped.push_back(cluster.worker(i).tracer().tx().dropped_records());
  }
  out.windows = srt.windows();
  return out;
}

TEST(ShardedCluster, ReportsByteIdenticalAtAnyShardCount) {
  auto trace = small_cluster_trace();
  auto serial = run_cluster(1, trace, LbPolicy::ChBl);
  ASSERT_FALSE(serial.report_json.empty());
  EXPECT_EQ(serial.windows, 0u);  // 1 shard takes the fast path

  for (std::size_t shards : {2u, 4u}) {
    auto sharded = run_cluster(shards, trace, LbPolicy::ChBl);
    EXPECT_EQ(sharded.report_json, serial.report_json)
        << "report diverged at " << shards << " shards";
    EXPECT_EQ(sharded.routed, serial.routed);
    EXPECT_EQ(sharded.forwarded, serial.forwarded);
    EXPECT_EQ(sharded.warm, serial.warm);
    EXPECT_EQ(sharded.cold, serial.cold);
    EXPECT_GT(sharded.windows, 0u);
  }
}

TEST(ShardedCluster, EquivalenceHoldsForEveryPolicy) {
  auto trace = small_cluster_trace();
  for (LbPolicy lb :
       {LbPolicy::ChBl, LbPolicy::RoundRobin, LbPolicy::LeastLoaded}) {
    auto serial = run_cluster(1, trace, lb);
    auto sharded = run_cluster(3, trace, lb);
    EXPECT_EQ(sharded.report_json, serial.report_json);
    EXPECT_EQ(sharded.routed, serial.routed);
  }
}

TEST(ShardedCluster, SpanLogCappedPerTracerAndSameAtAnyShardCount) {
  // Every run_for call starts fresh shard threads, so a worker's tracer
  // sees a new recording thread per 30 s slice. The record cap must bound
  // the tracer, not each thread's shard, and since it keeps the first
  // records in the worker's own event order, the log must not depend on
  // the shard count (only `thread`, the recording shard's index, may).
  // Round-robin spreads the dense trace evenly, so every worker passes the
  // default cap.
  auto trace = small_cluster_trace(/*target_rps=*/22.0);
  auto serial = run_cluster(1, trace, LbPolicy::RoundRobin);
  auto sharded = run_cluster(4, trace, LbPolicy::RoundRobin);
  auto fields = [](const std::vector<SpanRecord>& log) {
    std::vector<std::tuple<TransactionId, SpanId, SpanId, std::string_view,
                           TimePoint, Duration>>
        out;
    for (const auto& r : log) {
      out.emplace_back(r.tx, r.id, r.parent, r.name, r.start, r.dur);
    }
    return out;
  };
  ASSERT_EQ(sharded.spans.size(), serial.spans.size());
  for (std::size_t w = 0; w < serial.spans.size(); ++w) {
    EXPECT_EQ(sharded.spans[w].size(), TransactionTracer::kDefaultRecordCap)
        << "worker " << w;
    EXPECT_GT(sharded.dropped[w], 0u) << "worker " << w;
    EXPECT_EQ(sharded.dropped[w], serial.dropped[w]) << "worker " << w;
    EXPECT_TRUE(fields(sharded.spans[w]) == fields(serial.spans[w]))
        << "worker " << w << "'s span log depends on the shard count";
  }
}

TEST(ShardedCluster, LegacySingleRuntimeStillWorks) {
  auto trace = small_cluster_trace();

  SimRuntime rt;
  ClusterConfig cfg;
  cfg.num_workers = 4;
  cfg.worker.cores = 8;
  cfg.worker.memory_mb = 8 * 1024;
  Cluster cluster(rt, cfg);
  for (const auto& f : trace.functions) cluster.register_function(f);
  cluster.start();
  OpenLoopDriver d(rt, [&](FunctionId fn,
                           std::function<void(const InvokeResult&)> cb) {
    cluster.invoke(fn, std::move(cb));
  });
  d.start(trace);
  while (!d.done()) rt.run_for(secs(30));
  cluster.shutdown();
  EXPECT_EQ(d.results().size(), trace.size());
}

// ---- worker→shard placement ---------------------------------------------

TEST(ShardedCluster, AssignShardsRoundRobinStripes) {
  auto map = assign_shards(Placement::kRoundRobin, 8, 3, 16);
  ASSERT_EQ(map.size(), 8u);
  for (std::size_t w = 0; w < map.size(); ++w) EXPECT_EQ(map[w], w % 3);
}

TEST(ShardedCluster, AssignShardsLocalityIsABalancedPartition) {
  const std::size_t workers = 10, shards = 3;
  auto map = assign_shards(Placement::kLocality, workers, shards, 16);
  ASSERT_EQ(map.size(), workers);
  std::vector<std::size_t> sizes(shards, 0);
  for (std::size_t s : map) {
    ASSERT_LT(s, shards);
    ++sizes[s];
  }
  const std::size_t ceil_chunk = (workers + shards - 1) / shards;
  for (std::size_t s = 0; s < shards; ++s) {
    EXPECT_GE(sizes[s], 1u) << "no shard may be empty when W >= S";
    EXPECT_LE(sizes[s], ceil_chunk);
  }
  // Deterministic: a pure function of its arguments.
  EXPECT_EQ(map, assign_shards(Placement::kLocality, workers, shards, 16));
  EXPECT_EQ(std::string("locality"), to_string(Placement::kLocality));
  EXPECT_EQ(std::string("roundrobin"), to_string(Placement::kRoundRobin));
}

}  // namespace
}  // namespace ilu
