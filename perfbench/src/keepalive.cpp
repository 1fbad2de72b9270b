// keepalive_sweep: the Fig 4 grid (3 Azure-model traces x 6 keep-alive
// policies x 8 cache sizes) through run_keepalive_sim on the SweepRunner.
// It exercises trace sampling, the caching policies and the sweep engine,
// and never touches a Worker, a runtime, the span tracer or the LB — the
// workload on which a control-plane change should change nothing.

#include <cstdio>
#include <functional>
#include <limits>

#include "bench.hpp"

namespace perfbench {
namespace {

using namespace ilu;

const std::vector<std::string> kPolicies = {"TTL", "GD",   "LRU",
                                            "LND", "FREQ", "HIST"};
const std::vector<std::uint64_t> kCacheGb = {10, 15, 20, 30, 40, 50, 60, 80};

struct Inputs {
  std::vector<Trace> traces;
  double gen_s = 0.0;
};

/// The Fig 4 traces exactly as bench/fig4_exec_increase samples them (the
/// model's default seed). The run's seed does not change them: the model's
/// heavy-tailed population moves the grid's drop share between about 4%
/// and 22% from one model seed to the next, and the per-invocation cost
/// with it, so a seeded population would measure the population, not the
/// code.
Inputs make_inputs(bool smoke) {
  const auto t0 = Clock::now();
  AzureModelConfig mcfg;
  mcfg.population = smoke ? 5000 : 50000;
  mcfg.days = smoke ? 0.05 : 1.0;
  AzureTraceModel model(mcfg);
  Inputs in;
  in.traces.push_back(model.sample_representative(smoke ? 40 : 400));
  in.traces.push_back(model.sample_rare(smoke ? 100 : 1000));
  in.traces.push_back(model.sample_random(smoke ? 20 : 200));
  in.gen_s = seconds_since(t0);
  return in;
}

struct Cell {
  KeepAliveSimResult result;
  /// CPU time of the worker thread that ran the cell.
  std::int64_t cpu_ns = 0;
  /// Host probe factor taken on that thread right after the cell (1 when
  /// not scaled).
  double factor = 1.0;
};

using Tasks = std::vector<std::function<Cell()>>;

/// One task per grid cell in trace-major, policy, cache-size order. With
/// `scale` each cell is followed by a host probe on its thread.
Tasks grid(const Inputs& in, bool scale, std::size_t stride = 1) {
  Tasks tasks;
  std::size_t k = 0;
  for (const auto& trace : in.traces) {
    for (const auto& pol : kPolicies) {
      for (auto gb : kCacheGb) {
        if (k++ % stride != 0) continue;
        tasks.emplace_back([&trace, &pol, gb, scale] {
          const std::int64_t t0 = thread_cpu_ns();
          Cell c{run_keepalive_sim(trace, pol, gb * 1024), 0};
          c.cpu_ns = thread_cpu_ns() - t0;
          if (scale) c.factor = host_probe().factor(true);
          return c;
        });
      }
    }
  }
  return tasks;
}

/// Every field of one cell's result, as text: the unit of the equality
/// checks.
std::string cell_key(const Cell& c) {
  const auto& st = c.result.stats;
  std::string s = c.result.policy;
  for (std::int64_t v :
       {static_cast<std::int64_t>(c.result.capacity_mb),
        static_cast<std::int64_t>(st.invocations),
        static_cast<std::int64_t>(st.warm_starts),
        static_cast<std::int64_t>(st.cold_starts),
        static_cast<std::int64_t>(st.dropped),
        static_cast<std::int64_t>(st.evictions),
        static_cast<std::int64_t>(st.expirations),
        static_cast<std::int64_t>(st.prewarm_creates),
        st.total_base_exec.count(), st.total_init_paid.count()}) {
    s += ":" + std::to_string(v);
  }
  return s;
}

std::string fingerprint(const std::vector<Cell>& cells) {
  std::string s;
  for (const auto& c : cells) s += cell_key(c) + ";";
  return s;
}

struct Sweep {
  double setup_s = 0.0;
  double gen_s = 0.0;
  double wall_s = 0.0;
  std::vector<Cell> cells;
  std::string fingerprint;
};

/// `setup_only` stops after construction: a probe of the set-up time. The
/// timed pass (not ctx.traced) scales set-up time and cell costs to the
/// host probe's reference speed.
Sweep run_sweep(const RunContext& ctx, unsigned threads,
                bool setup_only = false) {
  Sweep out;
  const auto setup_t0 = Clock::now();
  const Inputs in = make_inputs(ctx.smoke);
  const bool scale = !ctx.traced;
  const Tasks tasks = grid(in, scale);
  exp::SweepRunner runner({.threads = threads});
  out.gen_s = in.gen_s;
  out.setup_s = seconds_since(setup_t0);
  if (scale) out.setup_s *= host_probe().factor(false);
  if (setup_only) return out;
  const auto t0 = Clock::now();
  out.cells = runner.run(tasks);
  out.wall_s = seconds_since(t0);
  out.fingerprint = fingerprint(out.cells);
  return out;
}

double per(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Sweeps every timed run makes. A cell's cost is the least these sweeps
/// paid for it; a fixed count, so that the figure does not depend on how
/// many more sweeps fit in the budget.
constexpr std::size_t kMinReps = 4;

}  // namespace

Outcome run_keepalive(const RunContext& ctx) {
  Outcome o;
  const unsigned threads = std::min(4u, ctx.nproc);
  o.threads = threads;
  host_probe();  // build the probe's table before anything is timed

  std::vector<Sweep> reps;
  double rss_mb = 0.0;
  const auto t0 = Clock::now();
  do {
    reps.push_back(run_sweep(ctx, threads));
    // Peak RSS of one sweep (later ones add only allocator retention).
    if (reps.size() == 1) rss_mb = peak_rss_mb(host_probe().resident_mb());
    if (ctx.traced) break;
  } while (another_fits(t0, reps.size(), ctx.seconds, kMinReps));
  if (ctx.perturb_fingerprint) reps.back().fingerprint[0] ^= 1;

  const Sweep& first = reps.front();
  for (std::size_t i = 0; i < reps.size(); ++i) {
    o.check(reps[i].fingerprint == first.fingerprint,
            "same-seed sweep " + std::to_string(i) +
                " produced different cells");
    for (const auto& c : reps[i].cells) {
      const auto& st = c.result.stats;
      o.check(st.warm_starts + st.cold_starts + st.dropped == st.invocations,
              "cell " + c.result.policy + "/" +
                  std::to_string(c.result.capacity_mb) +
                  ": warm + cold + dropped != invocations");
      // A drop is the modeled cache having no room for a cold start, a
      // deterministic output of the grid (shown on the model line), not a
      // failed operation of the program.
      o.attempted += st.invocations;
    }
  }

  // Thread-count independence on every fifth cell: one thread must give
  // exactly the cells the parallel sweep gave.
  {
    const Inputs in = make_inputs(ctx.smoke);
    const std::size_t stride = 5;
    exp::SweepRunner serial({.threads = 1});
    const auto subset = serial.run(grid(in, false, stride));
    for (std::size_t k = 0; k < subset.size(); ++k) {
      o.check(cell_key(subset[k]) == cell_key(first.cells[k * stride]),
              "cell " + std::to_string(k * stride) +
                  " differs between 1 and " + std::to_string(threads) +
                  " threads");
    }
  }

  double cold = 0.0, served = 0.0, replayed = 0.0, evictions = 0.0,
         dropped = 0.0;
  for (const auto& c : first.cells) {
    const auto& st = c.result.stats;
    cold += static_cast<double>(st.cold_starts);
    served += static_cast<double>(st.warm_starts + st.cold_starts);
    replayed += static_cast<double>(st.invocations);
    evictions += static_cast<double>(st.evictions);
    dropped += static_cast<double>(st.dropped);
  }
  char line[256];
  std::snprintf(line, sizeof line,
                "model: cells=%zu replayed=%.0f cold_pct=%.4f dropped_pct=%.4f "
                "report_fingerprint=%s",
                first.cells.size(), replayed,
                served > 0 ? 100.0 * cold / served : 0.0,
                replayed > 0 ? 100.0 * dropped / replayed : 0.0,
                fingerprint_hex(first.fingerprint).c_str());
  o.info.push_back(line);

  if (!ctx.traced) {
    std::vector<double> setup, throughput;
    // Every repetition replays the same cells, so a cell's cost is the
    // least the first kMinReps sweeps paid for it: a host stall only ever
    // adds time, and in a pool of every sweep's cells the stalls set the
    // p90.
    std::vector<double> cell_us(first.cells.size(),
                                std::numeric_limits<double>::infinity());
    probe_setups(setup,
                 [&] { return run_sweep(ctx, threads, true).setup_s; });
    for (std::size_t k = 0; k < reps.size(); ++k) {
      const Sweep& r = reps[k];
      setup.push_back(r.setup_s);
      // The sweep's wall scaled by its cells' CPU-weighted probe factor.
      double cpu = 0.0, scaled = 0.0;
      for (std::size_t i = 0; i < r.cells.size(); ++i) {
        const auto& c = r.cells[i];
        cpu += static_cast<double>(c.cpu_ns);
        scaled += static_cast<double>(c.cpu_ns) * c.factor;
        if (k < kMinReps && i < cell_us.size()) {
          cell_us[i] = std::min(
              cell_us[i], 1e-3 * static_cast<double>(c.cpu_ns) * c.factor /
                              static_cast<double>(c.result.stats.invocations));
        }
      }
      throughput.push_back(replayed / (r.wall_s * per(scaled, cpu)));
      o.info.push_back("sweep: wall " + std::to_string(r.wall_s) + " s, " +
                       std::to_string(replayed / r.wall_s) +
                       " inv/s; at reference speed " +
                       std::to_string(throughput.back()) +
                       " inv/s; probe mean " +
                       std::to_string(HostProbe::kReferenceNs /
                                      per(scaled, cpu)) +
                       " ns/op");
    }
    o.info.push_back("repetitions " + std::to_string(reps.size()));
    o.metric("setup_s", median(setup), "s");
    o.metric("throughput_per_s", median(throughput), "1/s");
    o.metric("cost_p50_us", percentile(cell_us, 0.5), "us");
    o.metric("cost_p90_us", percentile(cell_us, 0.9), "us");
    o.metric("peak_rss_mb", rss_mb, "MB");
    return o;
  }

  // Traced pass: per-cell timing is always on (it is a clock pair per
  // cell), so the traced run is the same sweep; its overhead is the
  // relative wall difference of two identical sweeps.
  const Sweep t = run_sweep(ctx, threads);
  o.check(t.fingerprint == first.fingerprint,
          "traced sweep produced different cells");
  double t_cell_ns = 0.0;
  for (const auto& c : t.cells) t_cell_ns += static_cast<double>(c.cpu_ns);
  o.metric("obs.bench_trace_overhead_frac", t.wall_s / first.wall_s - 1.0,
           "ratio");
  o.metric("trace.gen_s", t.gen_s, "s");
  o.metric("keepalive.cell_ms",
           1e-6 * t_cell_ns / static_cast<double>(t.cells.size()), "ms");
  o.metric("keepalive.ns_per_replayed_inv", t_cell_ns / replayed, "ns");
  o.metric("keepalive.evictions_per_inv", evictions / replayed, "count");
  o.metric("containers.cold_starts_per_inv", cold / replayed, "count");
  o.metric("exp.sweep_parallel_eff",
           t_cell_ns / (static_cast<double>(threads) * t.wall_s * 1e9),
           "ratio");
  return o;
}

}  // namespace perfbench
