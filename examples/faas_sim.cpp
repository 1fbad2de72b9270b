// Config-driven simulation CLI: loads a worker config from JSON (§6's
// deployment story), builds or loads a workload, replays it on the
// simulation runtime, and prints a full report — the "single platform for
// FaaS experimentation" in one binary.
//
//   ./faas_sim                                # built-in demo config
//   ./faas_sim --config worker.json
//   ./faas_sim --config worker.json --trace day.arena  # ilu-arena-v1 file
//   ./faas_sim --print-config                 # dump the effective config
//
// A trace file is an ilu-arena-v1 arena (tools/trace_gen); it replays
// straight from the mmap'd key column.

#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "core/config.hpp"
#include "iluvatar.hpp"

using namespace ilu;

namespace {

Trace demo_trace() {
  std::vector<SyntheticFunctionSpec> specs;
  for (const auto& p : function_bench()) {
    if (p.name == "video_encoding") continue;
    specs.push_back({.profile = p, .mean_iat = secs(4), .exponential = true});
  }
  return make_synthetic_trace(specs, mins(5), 12);
}

}  // namespace

int main(int argc, char** argv) {
  std::string config_path;
  std::string trace_path;
  std::string report_csv;
  bool print_config = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--config") == 0 && i + 1 < argc) {
      config_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--report") == 0 && i + 1 < argc) {
      report_csv = argv[++i];
    } else if (std::strcmp(argv[i], "--print-config") == 0) {
      print_config = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--config cfg.json] [--trace file.arena] "
                   "[--report out.csv] [--print-config]\n",
                   argv[0]);
      return 2;
    }
  }

  WorkerConfig cfg;
  if (!config_path.empty()) {
    try {
      cfg = load_worker_config(config_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "config error: %s\n", e.what());
      return 1;
    }
  }
  if (print_config) {
    std::printf("%s\n", worker_config_to_json(cfg).dump(2).c_str());
    return 0;
  }

  Trace demo;
  std::optional<ArenaFile> file;
  if (!trace_path.empty()) {
    try {
      file.emplace(trace_path);
      file->verify();  // the strict open leaves the key column unchecked
    } catch (const std::exception& e) {
      std::fprintf(stderr, "trace error: %s\n", e.what());
      return 1;
    }
  } else {
    demo = demo_trace();
  }
  const std::vector<FunctionProfile>& functions =
      file ? file->functions() : demo.functions;
  const EventView events = file ? file->view() : EventView(demo);
  auto ts = trace_stats(functions, events,
                        file ? file->duration() : demo.duration);
  std::printf("workload: %zu functions, %zu invocations, %.1f req/s, "
              "expected concurrency %.1f\n",
              ts.num_functions, ts.num_invocations, ts.reqs_per_sec,
              ts.expected_concurrency);
  if (ts.expected_concurrency > cfg.cores) {
    std::printf("WARNING: expected concurrency %.1f exceeds %.0f cores — the "
                "system will saturate and queue\n",
                ts.expected_concurrency, cfg.cores);
  }
  std::printf("worker: %.0f cores, %llu MB, queue=%s keepalive=%s backend=%s\n\n",
              cfg.cores, (unsigned long long)cfg.memory_mb,
              cfg.queue_policy.c_str(), cfg.keepalive_policy.c_str(),
              cfg.backend.name.c_str());

  SimRuntime rt;
  Worker w(rt, cfg);
  // RAPL-style energy metering over the CPU model's demand changes (§6.1).
  EnergyMeter energy(cfg.cores);
  w.cpu().set_demand_observer([&](TimePoint t, double demand) {
    energy.on_demand_change(t, demand);
  });
  for (const auto& f : functions) w.register_function(f);
  w.start();

  OpenLoopDriver driver(rt, [&](FunctionId fn,
                                std::function<void(const InvokeResult&)> cb) {
    w.invoke(fn, std::move(cb));
  });
  driver.start(events);
  while (!driver.done()) rt.run_for(secs(30));
  w.shutdown();

  Summary flow, overhead, warm_overhead;
  double stretch_sum = 0.0;
  std::size_t ok = 0, failed = 0;
  for (const auto& r : driver.results()) {
    if (!r.success) {
      ++failed;
      continue;
    }
    ++ok;
    flow.add_ms(r.flow_time());
    overhead.add_ms(r.overhead());
    if (!r.cold) warm_overhead.add_ms(r.overhead());
    stretch_sum += r.stretch();
  }

  std::printf("results\n");
  std::printf("  completed: %zu  failed: %zu\n", ok, failed);
  std::printf("  warm: %llu  cold: %llu  (%.1f%% warm)  bypassed: %llu  "
              "prewarms: %llu\n",
              (unsigned long long)w.warm_starts(),
              (unsigned long long)w.cold_starts(),
              100.0 * w.warm_starts() /
                  std::max<std::uint64_t>(1, w.warm_starts() + w.cold_starts()),
              (unsigned long long)w.bypassed(),
              (unsigned long long)w.prewarms());
  std::printf("  flow time   p50 %8.1f ms   p99 %8.1f ms\n", flow.p50(),
              flow.p99());
  std::printf("  overhead    p50 %8.2f ms   p99 %8.2f ms (warm-only p50 "
              "%.2f ms)\n",
              overhead.p50(), overhead.p99(), warm_overhead.p50());
  std::printf("  mean stretch %.2f\n",
              ok ? stretch_sum / static_cast<double>(ok) : 0.0);
  std::printf("  pool: evictions %llu  expirations %llu  used %llu/%llu MB\n",
              (unsigned long long)w.pool().evictions(),
              (unsigned long long)w.pool().expirations(),
              (unsigned long long)w.pool().used_mb(),
              (unsigned long long)w.pool().capacity_mb());
  std::printf("  virtual time simulated: %.1f s\n", to_sec(rt.now()));
  std::printf("  energy: %.1f kJ total (%.0f W avg), %.1f kJ above idle\n",
              energy.total_joules(rt.now()) / 1000.0,
              energy.average_watts(rt.now()),
              energy.active_joules(rt.now()) / 1000.0);

  // FaasMeter-style post-hoc attribution: the active (above-idle) energy is
  // split across functions in proportion to their CPU-seconds.
  {
    std::vector<double> cpu_s(functions.size(), 0.0);
    double total_cpu_s = 0.0;
    for (const auto& r : driver.results()) {
      if (!r.success) continue;
      cpu_s[r.fn] += to_sec(r.exec_time);
      total_cpu_s += to_sec(r.exec_time);
    }
    if (total_cpu_s > 0.0 && functions.size() <= 16) {
      std::printf("  active energy attribution:\n");
      for (std::size_t f = 0; f < functions.size(); ++f) {
        double share = cpu_s[f] / total_cpu_s;
        std::printf("    %-24s %6.1f%%  (%.1f kJ)\n",
                    functions[f].name.c_str(), 100.0 * share,
                    share * energy.active_joules(rt.now()) / 1000.0);
      }
    }
  }

  // Per-function breakdown via the metrics layer.
  std::vector<std::string> names;
  for (const auto& f : functions) names.push_back(f.name);
  ExperimentReport report(std::move(names));
  report.add_all(driver.results());
  if (functions.size() <= 16) {
    std::printf("\n%s", report.format().c_str());
  }
  if (!report_csv.empty()) {
    report.write_csv(report_csv);
    std::printf("\nper-function report written to %s\n", report_csv.c_str());
  }
  return 0;
}
