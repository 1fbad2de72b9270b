#pragma once

// Shared plumbing for the perfbench workloads: the run context parsed from
// the command line, the outcome a workload hands back, host-clock helpers,
// and a timing wrapper around the public Runtime interface.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <ctime>
#include <fstream>
#include <memory_resource>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "iluvatar.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline std::int64_t ns_since(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

/// CPU time the calling thread has consumed, in nanoseconds. Unlike wall
/// time it does not advance while the host takes the thread's CPU away.
inline std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// Resident set of this process now, in MiB.
inline double rss_now_mb() {
  std::ifstream statm("/proc/self/statm");
  long size = 0, resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// A fixed piece of bench-side work whose speed stands in for the host's.
///
/// On a shared host the CPU's effective speed moves by up to about 2x in
/// steps that last from a second to minutes (other tenants' load on the
/// caches and memory system). No repetition count averages that away: two
/// sets of runs a few minutes apart disagree by more than any useful bound.
/// So every timed slice of a simulation workload is followed by one probe
/// on the same thread, and the slice's cost is scaled by kReferenceNs over
/// the probe's ns per op: costs are reported at the probe's reference
/// speed. (live_serve is not scaled: its cost is the loop thread's, and a
/// probe on another thread did not track it.) The probe
/// has a memory profile like the simulator's (lookups in a ~40 MB hash
/// table, a heap, short-lived strings) but its own table and pool
/// allocator, so it shares only hardware with the program. A program
/// change moves the scaled figures as it moves the raw ones, save for the
/// cache and memory contention the change itself causes the probe; the
/// raw figures are printed next to the scaled ones.
class HostProbe {
 public:
  /// Probe speed, in ns per op, at which scaled figures are reported:
  /// about what the probe measures on an unloaded 4-vCPU Xeon VM.
  static constexpr double kReferenceNs = 600.0;

  HostProbe() {
    const double before = rss_now_mb();
    table_.reserve(kKeys);
    for (std::uint64_t i = 0; i < kKeys; ++i) table_[i * kGolden] = i;
    resident_mb_ = std::max(0.0, rss_now_mb() - before);
  }

  /// Runs the probe once on the calling thread and returns the factor that
  /// scales a cost measured just before it to the reference speed. With
  /// `cpu_clock` the probe is timed in the thread's CPU time, otherwise in
  /// wall time: time it on the clock of the cost it scales. Safe to call
  /// from several threads at once.
  double factor(bool cpu_clock) const {
    const std::int64_t t0 = cpu_clock ? thread_cpu_ns() : wall_ns();
    std::pmr::unsynchronized_pool_resource pool;
    std::priority_queue<std::uint64_t, std::pmr::vector<std::uint64_t>> heap{
        std::less<std::uint64_t>{}, std::pmr::vector<std::uint64_t>(&pool)};
    std::pmr::vector<std::pmr::string> strings(&pool);
    std::uint64_t x = kGolden, found = 0;
    for (int i = 0; i < kOps; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      heap.push(x & 0xffffff);
      if (heap.size() > 4096) heap.pop();
      const auto it = table_.find((x & (kKeys - 1)) * kGolden);
      if (it != table_.end()) found += it->second;
      strings.emplace_back(40 + (x & 63), 'a');
      if (strings.size() > 2000) {
        strings.erase(strings.begin(), strings.begin() + 1000);
      }
    }
    sink_.fetch_add(found, std::memory_order_relaxed);
    const std::int64_t t1 = cpu_clock ? thread_cpu_ns() : wall_ns();
    return kReferenceNs * kOps / static_cast<double>(std::max<std::int64_t>(1, t1 - t0));
  }

  /// Resident memory the probe's table holds, in MiB.
  double resident_mb() const { return resident_mb_; }

 private:
  static constexpr std::uint64_t kKeys = 1u << 20;
  static constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ull;
  static constexpr int kOps = 10000;

  static std::int64_t wall_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }

  std::unordered_map<std::uint64_t, std::uint64_t> table_;
  double resident_mb_ = 0.0;
  // Keeps the lookups from being optimized away.
  mutable std::atomic<std::uint64_t> sink_{0};
};

/// The process's probe, built on first use: a workload that scales its
/// timings builds it before it times anything.
inline const HostProbe& host_probe() {
  static const HostProbe probe;
  return probe;
}

/// Peak resident set of this process so far, in MiB, less `less_mb` (the
/// host probe's table where a workload built one: it is the benchmark's,
/// not the workload's).
inline double peak_rss_mb(double less_mb = 0.0) {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0 - less_mb;  // KiB
}

/// Median of a sample; for an even size, the mean of the two middle values
/// (as Python's statistics.median computes it).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile q in [0, 1] of a sample.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// Percentile q of a sample of whole-microsecond readings, interpolated
/// within the reading's one-microsecond bin (each reading v stands for a
/// true value in [v, v + 1)), so the figure is not stuck on whole numbers.
inline double binned_percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size());
  const auto i = std::min(v.size() - 1, static_cast<std::size_t>(rank));
  const auto lo = std::lower_bound(v.begin(), v.end(), v[i]) - v.begin();
  const auto hi = std::upper_bound(v.begin(), v.end(), v[i]) - v.begin();
  return v[i] + (rank - static_cast<double>(lo)) / static_cast<double>(hi - lo);
}

/// True while another repetition should start: fewer than `min_reps` have
/// run, or one more at the mean pace so far still ends within `seconds` of
/// `t0`.
inline bool another_fits(Clock::time_point t0, std::size_t done,
                         double seconds, std::size_t min_reps) {
  if (done < min_reps) return true;
  const double elapsed = seconds_since(t0);
  return elapsed + elapsed / static_cast<double>(done) <= seconds;
}

/// Set-up-only probes, so setup_s is a median of many set-ups even when a
/// run has room for one or two measured repetitions: at least 3, at most
/// 25, and no more once a second has gone to probing. `setup` returns the
/// set-up time of one probe in seconds.
template <typename Setup>
void probe_setups(std::vector<double>& out, Setup setup) {
  const auto t0 = Clock::now();
  for (int k = 0; k < 25 && (k < 3 || seconds_since(t0) < 1.0); ++k) {
    out.push_back(setup());
  }
}

/// The default workload seed; the held-out one is in perfbench/metrics.json.
constexpr std::uint64_t kDefaultSeed = 23;

struct RunContext {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool traced = false;
  /// Tiny inputs for the benchmark's own smoke tests.
  bool smoke = false;
  /// Testing hook: corrupt one fingerprint so the equality checks must fail.
  bool perturb_fingerprint = false;
  unsigned nproc = 1;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main: the metrics of the requested pass,
/// informational lines (deterministic model outputs, fingerprints), the
/// attempted/failed invocation counts and every violated output check.
struct Outcome {
  std::vector<Metric> metrics;
  std::vector<std::string> info;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;
  unsigned threads = 1;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) violations.push_back(what);
  }
};

Outcome run_cluster(const RunContext& ctx);
Outcome run_keepalive(const RunContext& ctx);
Outcome run_live(const RunContext& ctx);

/// A Runtime that forwards to another and times every callback it runs.
/// The benchmark hands it to the layers under test in the traced pass so
/// callback time (control-plane logic) can be split from event-engine time
/// without instrumenting the program itself. Scheduling order, delays and
/// cancellation are forwarded unchanged, so simulated results are identical
/// to a run on the wrapped runtime.
class TimedRuntime final : public ilu::Runtime {
 public:
  explicit TimedRuntime(ilu::Runtime& inner) : inner_(inner) {}
  TimedRuntime(const TimedRuntime&) = delete;
  TimedRuntime& operator=(const TimedRuntime&) = delete;

  void add_snapshotter(ilu::Snapshotter s) override {
    inner_.add_snapshotter(std::move(s));
  }
  bool supports_snapshot() const override {
    return inner_.supports_snapshot();
  }
  ilu::TimePoint now() const override { return inner_.now(); }
  TimerId schedule(ilu::Duration delay, Task fn) override {
    return inner_.schedule(delay, Task([this, f = std::move(fn)]() mutable {
      const auto t0 = Clock::now();
      f();
      busy_ns_.fetch_add(static_cast<std::uint64_t>(ns_since(t0)),
                         std::memory_order_relaxed);
    }));
  }
  bool cancel(TimerId id) override { return inner_.cancel(id); }

  /// Host nanoseconds spent inside callbacks (read after the loop quiesced).
  std::uint64_t busy_ns() const {
    return busy_ns_.load(std::memory_order_relaxed);
  }

 private:
  ilu::Runtime& inner_;
  // Bumped only on the wrapped runtime's loop thread; read by the main
  // thread after the run has drained.
  std::atomic<std::uint64_t> busy_ns_{0};
};

/// Hex FNV-1a of a report dump: the printed form of a fingerprint.
inline std::string fingerprint_hex(const std::string& report) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(ilu::fnv1a64(report)));
  return buf;
}

}  // namespace perfbench
