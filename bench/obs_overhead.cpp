// Observability overhead: cost of the transaction-scoped tracer + metrics
// on the worker's warm invocation hot path.
//
// The paper ships tracing off by default because the disabled path must be
// free; this bench measures (a) wall-clock cost per simulated warm
// invocation with tracing disabled vs enabled, and (b) the microsecond-level
// cost of a single tracer record / metric update. Results go to
// results/obs_overhead.json.

#include <algorithm>
#include <chrono>
#include <fstream>
#include <vector>

#include "bench_util.hpp"

namespace {

using namespace ilu;
using namespace ilu::bench;

using Clock = std::chrono::steady_clock;

double wall_us(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Wall-clock microseconds per warm invocation of the full worker pipeline
/// under SimRuntime (virtual time, so all cost is control-plane code).
double us_per_warm_invoke(bool tracing, int runs) {
  SimRuntime rt;
  WorkerConfig cfg;
  cfg.cores = 48.0;
  cfg.memory_mb = 16 * 1024;
  cfg.tracing = tracing;
  Worker w(rt, cfg);
  auto fn = w.register_function(pyaes());
  w.start();

  bool warmed = false;
  w.invoke(fn, [&](const InvokeResult&) { warmed = true; });
  while (!warmed) rt.run_for(secs(1));

  int completed = 0;
  std::function<void(int)> chain = [&](int remaining) {
    if (remaining == 0) return;
    w.invoke(fn, [&, remaining](const InvokeResult&) {
      ++completed;
      chain(remaining - 1);
    });
  };
  auto t0 = Clock::now();
  chain(runs);
  while (completed < runs) rt.run_for(secs(5));
  auto t1 = Clock::now();
  w.shutdown();
  return wall_us(t0, t1) / runs;
}

/// Nanoseconds per TransactionTracer::record call.
double ns_per_record(bool enabled, int iters) {
  TransactionTracer t(enabled);
  TransactionId tx = t.begin_transaction();
  auto t0 = Clock::now();
  for (int i = 0; i < iters; ++i) {
    t.record(tx, "bench_span", usecs(i), usecs(1));
  }
  auto t1 = Clock::now();
  return wall_us(t0, t1) * 1e3 / iters;
}

/// Nanoseconds per counter-inc + log-histogram-observe pair.
double ns_per_metric_update(int iters) {
  MetricsRegistry reg;
  Counter* c = reg.counter("bench.counter");
  LogHistogram* h = reg.log_histogram("bench.hist");
  auto t0 = Clock::now();
  for (int i = 0; i < iters; ++i) {
    c->inc();
    h->observe(static_cast<double>(i % 50));
  }
  auto t1 = Clock::now();
  return wall_us(t0, t1) * 1e3 / iters;
}

/// Nanoseconds per flight-recorder record() on this thread's ring. The
/// enabled path is two relaxed stores plus a release head bump; the disabled
/// path is one relaxed flag load and must stay free.
double ns_per_flight_event(bool enabled, int iters) {
  flight::Recorder rec(enabled);
  auto t0 = Clock::now();
  for (int i = 0; i < iters; ++i) {
    rec.record(static_cast<std::uint64_t>(i), flight::Ev::kQueueEnq,
               static_cast<std::uint32_t>(i));
  }
  auto t1 = Clock::now();
  return wall_us(t0, t1) * 1e3 / iters;
}

/// Nanoseconds per LogHistogram::observe (bit_width bucket index + two
/// relaxed fetch_adds + extreme CAS).
double ns_per_log_hist_record(int iters) {
  LogHistogram h;
  auto t0 = Clock::now();
  for (int i = 0; i < iters; ++i) {
    h.observe(0.05 + static_cast<double>(i % 400));
  }
  auto t1 = Clock::now();
  return wall_us(t0, t1) * 1e3 / iters;
}

double median_of_5(double (*f)(bool, int), bool arg, int n) {
  std::vector<double> xs;
  for (int i = 0; i < 5; ++i) xs.push_back(f(arg, n));
  std::sort(xs.begin(), xs.end());
  return xs[2];
}

double median_of_5_int(double (*f)(int), int n) {
  std::vector<double> xs;
  for (int i = 0; i < 5; ++i) xs.push_back(f(n));
  std::sort(xs.begin(), xs.end());
  return xs[2];
}

/// The seed (pre-flight-recorder) hot path paid zero for the recorder; the
/// disabled path is one relaxed load and must stay within noise of that.
/// 5 ns/event is ~15 cycles — far above the real cost, far below a real
/// regression (an accidental mutex or map lookup is 20-100+ ns).
constexpr double kDisabledBudgetNs = 5.0;

}  // namespace

int main() {
  banner("Observability overhead — tracing off vs on, warm hot path");

  constexpr int kRuns = 2000;
  // Interleave off/on and take medians so CPU frequency drift does not bias
  // one side of the comparison.
  double off_us = median_of_5(us_per_warm_invoke, false, kRuns);
  double on_us = median_of_5(us_per_warm_invoke, true, kRuns);
  double rec_on_ns = ns_per_record(true, 200000);
  double rec_off_ns = ns_per_record(false, 200000);
  double metric_ns = ns_per_metric_update(200000);
  double flight_on_ns = median_of_5(ns_per_flight_event, true, 1000000);
  double flight_off_ns = median_of_5(ns_per_flight_event, false, 1000000);
  double log_hist_ns = median_of_5_int(ns_per_log_hist_record, 1000000);

  double delta_pct = off_us > 0.0 ? (on_us - off_us) / off_us * 100.0 : 0.0;

  std::printf("%-44s %10.2f us\n",
              "warm invocation, tracing disabled (median)", off_us);
  std::printf("%-44s %10.2f us\n",
              "warm invocation, tracing enabled  (median)", on_us);
  std::printf("%-44s %+9.1f %%\n", "tracing-enabled delta", delta_pct);
  std::printf("%-44s %10.1f ns\n", "tracer record() (enabled)", rec_on_ns);
  std::printf("%-44s %10.1f ns\n", "tracer record() (disabled)", rec_off_ns);
  std::printf("%-44s %10.1f ns\n", "counter inc + log-histogram observe",
              metric_ns);
  std::printf("%-44s %10.1f ns\n", "flight record() (enabled)", flight_on_ns);
  std::printf("%-44s %10.1f ns\n", "flight record() (disabled)",
              flight_off_ns);
  std::printf("%-44s %10.1f ns\n", "log-histogram observe()", log_hist_ns);
  std::printf(
      "\nThe disabled path is a single relaxed atomic load; the full worker\n"
      "pipeline with tracing off must match the pre-observability seed\n"
      "within measurement noise.\n");

  JsonObject o;
  o["runs_per_sample"] = kRuns;
  o["warm_invoke_us_tracing_off"] = off_us;
  o["warm_invoke_us_tracing_on"] = on_us;
  o["tracing_on_delta_pct"] = delta_pct;
  o["record_ns_enabled"] = rec_on_ns;
  o["record_ns_disabled"] = rec_off_ns;
  o["metric_update_ns"] = metric_ns;
  o["flight_record_ns_enabled"] = flight_on_ns;
  o["flight_record_ns_disabled"] = flight_off_ns;
  o["log_hist_observe_ns"] = log_hist_ns;
  std::string path = results_dir() + "/obs_overhead.json";
  std::ofstream out(path);
  out << JsonValue(std::move(o)).dump(2) << "\n";
  std::printf("wrote %s\n", path.c_str());

  if (flight_off_ns > kDisabledBudgetNs) {
    std::fprintf(stderr,
                 "FAIL: disabled flight recorder costs %.1f ns/event "
                 "(budget %.1f ns) — the always-off path regressed\n",
                 flight_off_ns, kDisabledBudgetNs);
    return 1;
  }
  return 0;
}
