// Cluster-level integration: Azure-model traffic through CH-BL clusters,
// checked with the metrics layer.

#include <gtest/gtest.h>

#include "lb/cluster.hpp"
#include "metrics/report.hpp"
#include "runtime/sim_runtime.hpp"
#include "trace/azure.hpp"
#include "trace/function_profile.hpp"
#include "trace/loadgen.hpp"

namespace ilu {
namespace {

Trace small_cluster_trace() {
  AzureModelConfig cfg;
  cfg.population = 1500;
  cfg.days = 0.05;  // 72 minutes
  cfg.seed = 77;
  // Short functions keep the simulated cluster far from saturation.
  cfg.dur_median_s = 0.4;
  cfg.dur_sigma = 1.0;
  cfg.max_dur_s = 5.0;
  AzureTraceModel model(cfg);
  return model.sample_random(40, /*target_rps=*/3.0);
}

ExperimentReport replay(Cluster& cluster, SimRuntime& rt, const Trace& trace) {
  OpenLoopDriver d(rt, [&](FunctionId fn,
                           std::function<void(const InvokeResult&)> cb) {
    cluster.invoke(fn, std::move(cb));
  });
  d.start(trace);
  while (!d.done()) rt.run_for(secs(30));
  std::vector<std::string> names;
  for (const auto& f : trace.functions) names.push_back(f.name);
  ExperimentReport rep(std::move(names));
  rep.add_all(d.results());
  return rep;
}

TEST(ClusterTrace, ChblCompletesAzureTraffic) {
  SimRuntime rt;
  ClusterConfig cfg;
  cfg.num_workers = 4;
  cfg.worker.cores = 8;
  cfg.worker.memory_mb = 8 * 1024;
  Cluster cluster(rt, cfg);
  auto trace = small_cluster_trace();
  for (const auto& f : trace.functions) cluster.register_function(f);
  cluster.start();
  auto rep = replay(cluster, rt, trace);
  cluster.shutdown();

  EXPECT_EQ(rep.global().invocations, trace.size());
  EXPECT_EQ(rep.global().dropped, 0u);
  EXPECT_EQ(rep.global().failed, 0u);
  EXPECT_GT(rep.global().warm_ratio(), 0.5);
}

TEST(ClusterTrace, ChblBeatsRoundRobinOnWarmRatio) {
  auto trace = small_cluster_trace();
  auto run = [&](LbPolicy lb) {
    SimRuntime rt;
    ClusterConfig cfg;
    cfg.num_workers = 4;
    cfg.worker.cores = 8;
    cfg.worker.memory_mb = 8 * 1024;
    cfg.lb = lb;
    Cluster cluster(rt, cfg);
    for (const auto& f : trace.functions) cluster.register_function(f);
    cluster.start();
    auto rep = replay(cluster, rt, trace);
    cluster.shutdown();
    return rep.global().warm_ratio();
  };
  EXPECT_GT(run(LbPolicy::ChBl), run(LbPolicy::RoundRobin));
}

TEST(ClusterTrace, PerFunctionRowsCoverEveryActiveFunction) {
  SimRuntime rt;
  ClusterConfig cfg;
  cfg.num_workers = 2;
  cfg.worker.cores = 8;
  Cluster cluster(rt, cfg);
  auto trace = small_cluster_trace();
  for (const auto& f : trace.functions) cluster.register_function(f);
  cluster.start();
  auto rep = replay(cluster, rt, trace);
  cluster.shutdown();
  std::vector<bool> seen(trace.functions.size(), false);
  for (std::size_t i = 0; i < trace.size(); ++i) seen[trace.fn(i)] = true;
  for (FunctionId f = 0; f < trace.functions.size(); ++f) {
    if (seen[f]) {
      ASSERT_NE(rep.function(f), nullptr) << f;
      EXPECT_EQ(rep.function(f)->name, trace.functions[f].name);
    }
  }
}

}  // namespace
}  // namespace ilu
