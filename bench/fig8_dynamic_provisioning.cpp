// Fig 8: dynamic vertical scaling of the keep-alive cache. A proportional
// controller keeps the miss speed (cold starts/sec) near a target with a
// 30% error deadband; the average cache size comes out well below the
// conservative static 10,000 MB provisioning — the paper reports a ~30%
// reduction without hurting performance.

#include "bench_util.hpp"

int main() {
  using namespace ilu;
  using namespace ilu::bench;

  AzureModelConfig mcfg;
  mcfg.population = 50000;
  mcfg.days = 1.0;
  AzureTraceModel model(mcfg);
  auto trace = model.sample_representative(400);

  // The controller's objective (as in the paper): hold a fixed acceptable
  // miss speed with as little memory as possible. We calibrate the target
  // as the steady-state miss speed of a 7,000 MB cache — i.e. "the
  // performance a right-sized server would give" — measured after the
  // first two hours so the cold-start ramp does not inflate it. (The
  // paper's absolute 0.0015/s corresponds to its much lower-rate replay.)
  auto baseline = run_keepalive_sim(trace, "GD", 10000);

  // Measure the 7 GB baseline through the exact estimator the controller
  // uses (a 30-minute sliding window sampled every 2 minutes, cold starts
  // plus drops), averaging after the first two hours of warm-up.
  double target = 0.0;
  {
    auto policy = make_policy("GD");
    KeepAliveCache cache(*policy, {.capacity_mb = 7000}, trace.functions);
    SlidingRateMeter meter(mins(30));
    double sum = 0.0;
    std::size_t n = 0;
    TimePoint next_sample = mins(2);
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const TimePoint at = trace.at(i);
      while (next_sample <= at) {
        if (next_sample >= secs(7200)) {
          sum += meter.rate_per_sec(next_sample);
          ++n;
        }
        next_sample += mins(2);
      }
      auto out = cache.on_invocation(trace.fn(i), at);
      if (!out.warm) meter.record(at);
    }
    target = n ? sum / static_cast<double>(n) : 1.0;
  }

  ProvisionerConfig cfg;
  cfg.initial_capacity_mb = 10000;
  cfg.target_miss_rate = target;
  cfg.error_tolerance = 0.30;
  cfg.interval = mins(2);
  cfg.window = mins(30);
  cfg.gain = 0.10;
  // Floor well above the cold-storm bistability region: below ~3 GB this
  // workload collapses into a self-sustaining drop regime.
  cfg.min_capacity_mb = 4096;
  cfg.max_capacity_mb = 20000;

  auto r = run_dynamic_provisioning(trace, "GD", cfg);

  banner("Fig 8 — dynamic cache-size adjustment (GD, representative trace)");
  double static_rate = static_cast<double>(baseline.stats.cold_starts) /
                       to_sec(trace.duration);
  std::printf(
      "target miss speed: %.4f /s (7 GB steady state); static 10,000 MB "
      "full-day rate: %.4f /s\n\n",
      cfg.target_miss_rate, static_rate);
  std::printf("%10s %14s %14s %8s\n", "t (min)", "miss rate /s",
              "capacity MB", "resized");
  CsvWriter csv(results_dir() + "/fig8_dynamic_provisioning.csv");
  csv.row("t_min", "miss_rate_per_s", "capacity_mb", "resized");
  for (std::size_t i = 0; i < r.timeseries.size(); ++i) {
    const auto& s = r.timeseries[i];
    csv.row(to_sec(s.at) / 60.0, s.miss_rate, s.capacity_mb,
            s.resized ? 1 : 0);
    if (i % 5 == 0) {
      std::printf("%10.0f %14.4f %14llu %8s\n", to_sec(s.at) / 60.0,
                  s.miss_rate, (unsigned long long)s.capacity_mb,
                  s.resized ? "yes" : "");
    }
  }
  double reduction =
      100.0 * (1.0 - r.average_capacity_mb /
                         static_cast<double>(r.static_capacity_mb));
  std::printf("\naverage capacity: %.0f MB vs static %llu MB  (%.1f%% reduction)\n",
              r.average_capacity_mb,
              (unsigned long long)r.static_capacity_mb, reduction);
  std::printf("dynamic run cold fraction: %.4f (static baseline %.4f)\n",
              r.stats.cold_fraction(), baseline.cold_fraction());
  std::printf("\nPaper reference: ~30%% average reduction (<7000 MB vs 10000 MB)\n"
              "while keeping miss speed near target.\n");
  return 0;
}
