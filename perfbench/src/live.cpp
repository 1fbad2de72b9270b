// live_serve: one prewarmed Worker on a RealRuntime, fed open-loop by one
// LiveLoadHarness producer. Table-1 latencies are zeroed and the container
// backend is the null backend, so the measured overhead is this program's
// own control-plane cost; bypass is off, so every invocation goes through
// the queue and the regulator. It is the only workload on the timer wheel,
// the staging shards and the live queue.

#include <malloc.h>
#include <sys/prctl.h>

#include <cmath>
#include <cstdio>
#include <optional>
#include <thread>

#include "bench.hpp"

namespace perfbench {
namespace {

using namespace ilu;

constexpr std::size_t kFunctions = 64;
/// Offered rates (invocations per second): 1.2M/min, and a fixed high rate.
/// No stage goes above the high rate: from about 45k/s a stage can fall
/// into a cold-start storm (netns pool exhausted, creates on the critical
/// path) whose drain outlasts any run budget.
constexpr double kLowRate = 20000.0;
constexpr double kHighRate = 30000.0;
/// A stage whose generator ran this late at p99 did not offer its load: a
/// producer that cannot keep up falls behind by hundreds of milliseconds
/// and more. Below the bound sit the 1-6 ms vCPU stalls of a shared host,
/// which bunch a few hundred arrivals but leave the offered rate intact.
constexpr double kLatenessBoundUs = 10000.0;
constexpr Duration kLeadIn = msecs(100);
/// Invocations the regulator lets run at once. The steady state at the high
/// rate needs about 120 (4 ms each) and a backlog drains at up to 64k/s,
/// faster than the loop thread serves it; whatever is beyond the limit
/// waits in the queue.
constexpr double kRegulatorLimit = 256.0;

/// A worker provisioned so the control plane, not the modeled machine, is
/// the bottleneck. The prewarmed containers (see run_stage) outnumber what
/// the regulator can run at once, so the burst a host stall leaves behind
/// queues instead of starting cold containers: a cold start costs the loop
/// thread several times a warm one, and at 20k/s a 50 ms stall with a
/// looser limit set off thousands of them, the backlog feeding itself. The
/// netns pool and the memory are still sized for thousands of cold starts:
/// once the pool runs dry every cold start queues behind the serialized
/// ~100 ms namespace creation, a storm that does not drain within any run
/// budget.
WorkerConfig live_config(bool tracing) {
  WorkerConfig cfg;
  cfg.name = "live";
  cfg.cores = 384.0;
  cfg.memory_mb = 4096 * 1024;
  cfg.regulator.limit = kRegulatorLimit;
  cfg.bypass_threshold = Duration::zero();
  cfg.netns.target_size = 32768;
  cfg.netns.low_watermark = 8192;
  cfg.backend = BackendLatencyProfile::null_backend();
  auto& l = cfg.latencies;
  for (LatencyModel* m :
       {&l.invoke, &l.sync_invoke, &l.enqueue_invocation, &l.add_item_to_q,
        &l.spawn_worker, &l.dequeue, &l.acquire_container,
        &l.try_lock_container, &l.prepare_invoke, &l.call_container,
        &l.download_result, &l.return_container, &l.return_results,
        &l.http_connect}) {
    *m = LatencyModel::zero();
  }
  cfg.tracing = tracing;
  cfg.predictive_prewarm = false;
  return cfg;
}

/// Uniform arrivals at exactly `per_sec`: constant per-function spacing with
/// staggered phases. The seed shifts every phase by a common offset.
std::vector<SyntheticFunctionSpec> make_specs(double per_sec,
                                              std::uint64_t seed) {
  std::vector<SyntheticFunctionSpec> specs;
  const double fn_iat_us = 1e6 * static_cast<double>(kFunctions) / per_sec;
  Rng rng(seed);
  const double shift = rng.uniform(0.0, fn_iat_us / kFunctions);
  for (std::size_t i = 0; i < kFunctions; ++i) {
    SyntheticFunctionSpec s;
    s.profile.name = "live_fn_" + std::to_string(i);
    s.profile.mem_mb = 128;
    s.profile.warm_time = msecs(4);
    s.profile.init_time = msecs(20);
    s.mean_iat = usecs(static_cast<std::int64_t>(fn_iat_us));
    s.exponential = false;
    s.phase = usecs(static_cast<std::int64_t>(
        shift + fn_iat_us * static_cast<double>(i) / kFunctions));
    specs.push_back(std::move(s));
  }
  return specs;
}

/// Block until `counter` reaches `target` (set from the loop thread).
void wait_for(const std::atomic<std::size_t>& counter, std::size_t target) {
  while (counter.load(std::memory_order_acquire) < target) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

struct Stage {
  double rate = 0.0;
  double setup_s = 0.0;
  bool valid = true;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t bypassed = 0;
  std::uint64_t order_mismatches = 0;
  double offered = 0.0;
  double achieved = 0.0;
  double wall_s = 0.0;
  std::uint64_t pending_after = 0;
  /// Scheduled arrival instant to completion, minus execution time.
  std::vector<double> overhead_us;
  /// Loop-thread CPU microseconds per invocation completed, per window.
  std::vector<double> cpu_us_per_inv;
  /// Sums over those windows: loop-thread CPU time and completions.
  double window_cpu_us = 0.0;
  std::uint64_t window_done = 0;
  /// Highest resident set sampled during the stage (every window, after
  /// prewarm and before teardown), in MiB.
  double peak_rss_mb = 0.0;
  /// Resident set just before the stage built anything, in MiB.
  double rss_before_mb = 0.0;
  double lateness_p99_us = 0.0;
  double submit_lag_p99_us = 0.0;

  // Layer counters (traced pass).
  std::uint64_t busy_ns = 0;
  std::uint64_t invoke_ns = 0;
  std::uint64_t executed = 0;
  std::uint64_t dispatches = 0;
  std::uint64_t cold = 0;
  std::uint64_t netns_critical = 0;
  double queue_wait_p99_us = 0.0;
  std::uint64_t flight_records = 0;

  double p50() const { return binned_percentile(overhead_us, 0.5); }
  double p90() const { return binned_percentile(overhead_us, 0.9); }
  double p99() const { return binned_percentile(overhead_us, 0.99); }
  double cost_p50() const { return percentile(cpu_us_per_inv, 0.5); }
  double cost_p90() const { return percentile(cpu_us_per_inv, 0.9); }
  /// Completions per second of loop-thread CPU time over the windows.
  double loop_rate() const {
    return window_cpu_us > 0.0
               ? static_cast<double>(window_done) / (window_cpu_us * 1e-6)
               : 0.0;
  }
};

/// Samples the loop thread's CPU time every kCpuWindow and records CPU
/// microseconds per invocation completed in the window (a window without a
/// completion carries its time forward). CPU time, unlike the latency of an
/// open-loop stage, does not count the time a stalled host takes the
/// thread away, so it is the steady measure of the program's own cost.
/// Each sample also reads the process's resident set.
struct CpuSampler {
  static constexpr Duration kCpuWindow = msecs(100);
  RealRuntime* rt;
  Stage* st;
  const std::size_t* done;
  bool stop = false;  // set on the loop thread by the teardown task
  Runtime::TimerId timer = Runtime::kInvalidTimer;
  double cpu0 = -1.0;
  std::size_t done0 = 0;

  void operator()() {
    if (stop) return;
    st->peak_rss_mb = std::max(st->peak_rss_mb, rss_now_mb());
    const double cpu = 1e-3 * static_cast<double>(thread_cpu_ns());
    if (cpu0 < 0.0) {
      cpu0 = cpu;
      done0 = *done;
    } else if (*done > done0) {
      st->cpu_us_per_inv.push_back((cpu - cpu0) /
                                   static_cast<double>(*done - done0));
      st->window_cpu_us += cpu - cpu0;
      st->window_done += *done - done0;
      cpu0 = cpu;
      done0 = *done;
    }
    timer = rt->schedule(kCpuWindow, [this] { (*this)(); });
  }
};

Stage run_stage(const RunContext& ctx, double rate, Duration duration,
                bool traced) {
  Stage st;
  st.rate = rate;
  st.rss_before_mb = rss_now_mb();
  const auto setup_t0 = Clock::now();
  RealRuntime rt;
  std::optional<TimedRuntime> timed;
  Runtime& wrt = traced ? static_cast<Runtime&>(timed.emplace(rt)) : rt;
  Worker w(wrt, live_config(traced));
  const auto specs = make_specs(rate, ctx.seed);
  std::vector<FunctionId> fns;
  for (const auto& s : specs) fns.push_back(w.register_function(s.profile));
  w.start();

  // Warm capacity for the offered concurrency (per-function rate x ~6 ms
  // busy window, 4x headroom) and for four times each function's share of
  // the regulator limit (a backlog does not dispatch evenly over functions:
  // twice the share still started hundreds of cold containers after a
  // stall), then one invocation per function so client caches are hot too.
  {
    const double per_fn = rate / static_cast<double>(kFunctions);
    const auto prewarms = static_cast<std::size_t>(
        std::max(4.0 * kRegulatorLimit / static_cast<double>(kFunctions),
                 std::ceil(per_fn * 0.006 * 4.0)));
    std::atomic<std::size_t> warmed{0};
    for (FunctionId f : fns) {
      for (std::size_t k = 0; k < prewarms; ++k) {
        rt.post([&w, &warmed, f] {
          w.prewarm(f, [&warmed](bool) {
            warmed.fetch_add(1, std::memory_order_release);
          });
        });
      }
    }
    wait_for(warmed, fns.size() * prewarms);
    warmed.store(0, std::memory_order_relaxed);
    for (FunctionId f : fns) {
      rt.post([&w, &warmed, f] {
        w.invoke(f, [&warmed](const InvokeResult&) {
          warmed.fetch_add(1, std::memory_order_release);
        });
      });
    }
    wait_for(warmed, fns.size());
  }
  // Worker state is loop-thread-confined: take the baselines there.
  std::uint64_t cold0 = 0, critical0 = 0, spawn0 = 0;
  {
    std::atomic<std::size_t> read{0};
    rt.post([&] {
      cold0 = w.cold_starts();
      critical0 = w.netns().critical_path_creates();
      if (traced) spawn0 = w.tracer().count(spans::kSpawnWorker);
      read.store(1, std::memory_order_release);
    });
    wait_for(read, 1);
  }
  const std::uint64_t executed0 = rt.executed();
  const std::uint64_t busy0 = timed ? timed->busy_ns() : 0;

  const TraceArena arena =
      make_synthetic_arena(specs, duration, ctx.seed + 1);
  const EventView view(arena);
  st.overhead_us.reserve(view.size());
  st.setup_s = seconds_since(setup_t0);

  // With one producer the loop thread receives submissions in trace order,
  // so the k-th invoke belongs to event k and its scheduled instant is
  // known. The base is read just before the harness reads its own, so the
  // overhead errs high by that gap (well under a microsecond).
  std::int64_t base_us = 0;
  std::size_t next = 0;
  std::size_t done = 0;  // loop thread only
  LiveLoadHarness harness(
      rt, [&](FunctionId f, LiveLoadHarness::CompletionCb cb) {
        const std::size_t k = next++;
        if (k >= view.size() || view.fn(k) != f) ++st.order_mismatches;
        const std::int64_t intended =
            base_us + (k < view.size() ? view.at(k).count() : 0);
        const auto t0 = Clock::now();
        w.invoke(f, [&st, done = &done, intended,
                     cb = std::move(cb)](const InvokeResult& r) {
          if (r.success && !r.dropped) {
            st.overhead_us.push_back(static_cast<double>(
                r.completed.count() - intended - r.exec_time.count()));
          }
          ++*done;
          cb(r);
        });
        st.invoke_ns += static_cast<std::uint64_t>(ns_since(t0));
      });
  LiveLoadConfig lcfg;
  lcfg.producers = 1;
  lcfg.lead_in = kLeadIn;
  lcfg.completion_timeout = secs(90);
  LiveLoadStats stats;
  const std::uint64_t flight0 = flight::Recorder::instance().recorded();
  CpuSampler sampler{&rt, &st, &done};
  rt.post([&sampler] { sampler(); });
  base_us = rt.now().count() + kLeadIn.count();
  harness.run(view, lcfg, &stats);
  if (stats.timed_out) {
    // Completions still in flight reference this frame; nothing can be
    // torn down safely, and the run has failed anyway.
    std::fprintf(stderr, "live stage at %.0f/s did not drain\n", rate);
    std::_Exit(1);
  }
  st.flight_records = flight::Recorder::instance().recorded() - flight0;

  st.submitted = stats.submitted.load(std::memory_order_relaxed);
  st.completed = stats.completed.load(std::memory_order_relaxed);
  st.failed = stats.failed.load(std::memory_order_relaxed);
  st.dropped = stats.dropped.load(std::memory_order_relaxed);
  st.bypassed = stats.bypassed.load(std::memory_order_relaxed);
  st.offered = stats.offered_per_sec;
  st.achieved = stats.achieved_per_sec;
  st.wall_s = stats.wall_s;
  st.lateness_p99_us = 1000.0 * stats.lateness_ms.percentile(0.99);
  st.submit_lag_p99_us = 1000.0 * stats.submit_lag_ms.percentile(0.99);
  st.pending_after = rt.pending();
  st.valid = st.lateness_p99_us <= kLatenessBoundUs &&
             st.order_mismatches == 0;

  std::atomic<std::size_t> down{0};
  rt.post([&] {
    st.peak_rss_mb = std::max(st.peak_rss_mb, rss_now_mb());
    st.cold = w.cold_starts() - cold0;
    st.netns_critical = w.netns().critical_path_creates() - critical0;
    st.queue_wait_p99_us =
        1000.0 * w.metrics().log_histogram("queue.wait_ms")->percentile(0.99);
    if (traced) st.dispatches = w.tracer().count(spans::kSpawnWorker) - spawn0;
    sampler.stop = true;
    rt.cancel(sampler.timer);
    w.shutdown();
    down.store(1, std::memory_order_release);
  });
  wait_for(down, 1);
  st.executed = rt.executed() - executed0;
  if (timed) st.busy_ns = timed->busy_ns() - busy0;
  return st;
}

/// Runs one stage and then hands the memory it freed back to the system,
/// so each stage's resident set is its own and not the high-water mark a
/// stall left in an earlier stage.
Stage run_trimmed_stage(const RunContext& ctx, double rate,
                        Duration duration) {
  Stage st = run_stage(ctx, rate, duration, false);
  malloc_trim(0);
  return st;
}

double per(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// `offered_ok` is false when the generator could not offer the load of
/// this stage's rate (see run_live): then all of an invalid stage's
/// invocations count as failed, not only those the worker failed.
void check_stage(const Stage& s, Outcome& o, bool offered_ok = true) {
  o.check(s.completed + s.failed + s.dropped == s.submitted,
          "live stage: completed + failed + dropped != submitted");
  o.check(s.bypassed == 0, "live stage: an invocation bypassed the queue");
  o.attempted += s.submitted;
  o.failed += s.valid || offered_ok ? s.failed + s.dropped : s.submitted;
}

std::string describe(const Stage& s) {
  char line[480];
  std::snprintf(
      line, sizeof line,
      "stage %.0f/s: offered %.1f/s achieved %.1f/s submitted %llu "
      "completed %llu failed %llu dropped %llu cold %llu overhead p50 "
      "%.2f us p99 %.2f us lateness p99 %.1f us pending %llu loop cost "
      "p50 %.2f us p90 %.2f us rate %.0f/s rss %.2f MB (+%.2f MB)%s",
      s.rate, s.offered, s.achieved,
      static_cast<unsigned long long>(s.submitted),
      static_cast<unsigned long long>(s.completed),
      static_cast<unsigned long long>(s.failed),
      static_cast<unsigned long long>(s.dropped),
      static_cast<unsigned long long>(s.cold), s.p50(), s.p99(),
      s.lateness_p99_us, static_cast<unsigned long long>(s.pending_after),
      s.cost_p50(), s.cost_p90(), s.loop_rate(), s.peak_rss_mb,
      s.peak_rss_mb - s.rss_before_mb,
      s.valid ? "" : " [INVALID]");
  return line;
}

}  // namespace

Outcome run_live(const RunContext& ctx) {
  Outcome o;
  // Loop thread + one producer; the main thread only waits.
  o.threads = 2;
  // Threads inherit their creator's timer slack. The default 50 us would
  // make every paced sleep of the producer overshoot by about that much,
  // which the scheduled-instant overhead would then report as the worker's.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const Duration stage_len = ctx.smoke ? msecs(300) : msecs(1500);

  if (ctx.traced) {
    const Stage base = run_stage(ctx, kHighRate, stage_len, false);
    const Stage t = run_stage(ctx, kHighRate, stage_len, true);
    // A single stage each: an invalid one is reported, not failed.
    check_stage(base, o);
    check_stage(t, o);
    o.info.push_back(describe(base));
    o.info.push_back(describe(t) + " (traced)");
    const double inv = static_cast<double>(t.submitted);
    const double wall_ns = t.wall_s * 1e9;
    const double loop_ns =
        static_cast<double>(t.busy_ns) + static_cast<double>(t.invoke_ns);
    o.metric("obs.bench_trace_overhead_frac", per(t.p50(), base.p50()) - 1.0,
             "ratio");
    o.metric("runtime.loop_busy_frac", per(loop_ns, wall_ns), "ratio");
    o.metric("runtime.loop_us_per_inv", per(loop_ns * 1e-3, inv), "us");
    o.metric("runtime.executed_per_inv",
             per(static_cast<double>(t.executed), inv), "count");
    o.metric("core.dispatches_per_inv",
             per(static_cast<double>(t.dispatches), inv), "count");
    o.metric("core.useful_dispatch_frac",
             per(static_cast<double>(t.completed + t.failed),
                 static_cast<double>(t.dispatches)),
             "ratio");
    o.metric("core.invoke_ns", per(static_cast<double>(t.invoke_ns), inv),
             "ns");
    o.metric("queueing.wait_p99_us", t.queue_wait_p99_us, "us");
    o.metric("queueing.bypass_frac", per(static_cast<double>(t.bypassed), inv),
             "ratio");
    o.metric("containers.cold_starts_per_inv",
             per(static_cast<double>(t.cold), inv), "count");
    o.metric("containers.netns_critical_creates",
             static_cast<double>(t.netns_critical), "count");
    o.metric("obs.flight_records_per_inv",
             per(static_cast<double>(t.flight_records), inv), "count");
    o.metric("exp.submit_lag_p99_us", t.submit_lag_p99_us, "us");
    o.metric("exp.gen_lateness_p99_us", t.lateness_p99_us, "us");
    return o;
  }

  // Alternate high- and low-rate stages until the budget is spent, with at
  // least three valid stages of each rate (at most ten tries). A stage is
  // invalid when its generator ran late (a host stall): it is not a data
  // point, and its invocations count as failed only if fewer than half of
  // its rate's stages were valid, i.e. when the load could not be offered
  // at all. The gated figures are per-stage figures over the loop thread's
  // 100 ms CPU windows, taken as the median over the valid stages of each
  // rate and averaged over the two rates: a stall slows a few stages (it
  // bunches arrivals), and the median leaves them out where a pool of all
  // windows would not. The scheduled-instant overhead latencies are
  // printed, not gated: on a shared host a stalled vCPU moves a
  // stage's p50 by tens of percent and its p99 several-fold between
  // identical runs. The throughput figure is the rate the loop thread
  // sustains per second of its own CPU time: the offered rates leave the
  // loop thread mostly idle, so the achieved rate would only echo them.
  // peak_rss_mb is the peak of a process that ran one high-rate stage: the
  // resident set before the first stage plus the median over high-rate
  // stages of what each added to the set it started from. The process
  // peak itself grows with the number of stages that fit (each stage's
  // threads leave their flight-recorder rings behind) and keeps the
  // high-water mark of the worst stall.
  const double rss0 = rss_now_mb();
  std::vector<Stage> high, low;
  const auto count_valid = [](const std::vector<Stage>& v) {
    return static_cast<std::size_t>(
        std::count_if(v.begin(), v.end(), [](const Stage& s) {
          return s.valid;
        }));
  };
  const auto t0 = Clock::now();
  do {
    high.push_back(run_trimmed_stage(ctx, kHighRate, stage_len));
    low.push_back(run_trimmed_stage(ctx, kLowRate, stage_len));
  } while (another_fits(t0, high.size(), ctx.seconds, 3) ||
           (std::min(count_valid(high), count_valid(low)) < 3 &&
            high.size() < 10));

  std::vector<double> setup;
  double throughput = 0.0, cost_p50 = 0.0, cost_p90 = 0.0, rss = 0.0;
  for (const auto* stages : {&high, &low}) {
    const bool offered_ok = 2 * count_valid(*stages) >= stages->size();
    std::vector<double> p50, p99, rate, c50, c90, mem;
    for (const Stage& s : *stages) {
      check_stage(s, o, offered_ok);
      o.info.push_back(describe(s));
      setup.push_back(s.setup_s);
      if (!s.valid || s.cpu_us_per_inv.empty()) continue;
      p50.push_back(s.p50());
      p99.push_back(s.p99());
      rate.push_back(s.loop_rate());
      c50.push_back(s.cost_p50());
      c90.push_back(s.cost_p90());
      mem.push_back(s.peak_rss_mb - s.rss_before_mb);
    }
    o.check(!rate.empty(), "no valid live stage at a rate: nothing to report");
    const bool is_high = stages == &high;
    const char* tag = is_high ? "high" : "low";
    char line[200];
    std::snprintf(line, sizeof line,
                  "overhead_p50_us.%s %.3f us, overhead_p99_us.%s %.3f us "
                  "(median of %zu valid stages at %.0f/s)",
                  tag, median(p50), tag, median(p99), p50.size(),
                  is_high ? kHighRate : kLowRate);
    o.info.push_back(line);
    throughput += 0.5 * median(rate);
    cost_p50 += 0.5 * median(c50);
    cost_p90 += 0.5 * median(c90);
    // The high rate holds the most state; its stages set the peak.
    if (is_high) rss = rss0 + median(mem);
  }
  o.metric("setup_s", median(setup), "s");
  o.metric("throughput_per_s", throughput, "1/s");
  o.metric("cost_p50_us", cost_p50, "us");
  o.metric("cost_p90_us", cost_p90, "us");
  o.metric("peak_rss_mb", rss, "MB");
  return o;
}

}  // namespace perfbench
