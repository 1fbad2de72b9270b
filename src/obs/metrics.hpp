#pragma once
// ilu-lint: atomics-floor(relaxed) - instruments are monotone counters/last-write gauges scraped by the sampler; per-op ordering buys nothing

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

/// Live metrics: thread-safe counters, gauges, and log-bucketed histograms
/// with cheap relaxed-atomic updates, collected in a name-keyed registry.
///
/// Registration (looking an instrument up by name) takes a mutex and is a
/// cold-path operation — components resolve their instruments once at wiring
/// time and hold the returned pointers, which stay valid for the registry's
/// lifetime (the registry-lookup-hotpath lint check enforces this).
/// Updates through those pointers are single atomic RMW ops, so the invoke
/// hot path never locks. snapshot() reads every instrument with relaxed
/// loads: values are individually coherent, not a consistent cut (fine for
/// status lines and end-of-run dumps).
///
/// LogHistogram is HDR-style log-bucketed (octave × subbucket): honest
/// p50/p99/p999 over µs→s with bounded relative error and a deterministic
/// merge (DESIGN.md §12).
namespace ilu {

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t d = 1) { v_.fetch_add(d, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Instantaneous signed level (queue depth, containers idle, MB in use).
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  void sub(std::int64_t d) { v_.fetch_sub(d, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// HDR-style log-bucketed histogram over [min_value, max_value): each
/// power-of-two octave of the range is split into 2^subbucket_bits linear
/// subbuckets, so the relative error of any quantile upper bound is at most
/// 1 / 2^subbucket_bits (≈3.1% at the default 32 subbuckets/octave) while
/// the whole µs→s range costs ~1 KB of buckets.
///
/// An observation is a handful of relaxed atomic ops; the bucket index is
/// pure bit arithmetic on a fixed-point mantissa (no log, no loop):
///
///   t      = round(x / min_value * 1024)           (fixed point, 10 frac bits)
///   octave = bit_width(t) - 1 - 10                 (which power of two)
///   sub    = top `subbucket_bits` bits of t below its leading one
///
/// Exact observed min/max are kept via CAS so p0/p100 (and saturated p99s)
/// are exact, not bucket edges. Values below min_value clamp into bucket 0;
/// values at or past max_value are tracked as overflow with an exact max
/// (`saturated()`).
///
/// merge() is a pure integer element-wise add (plus CAS min/max), hence
/// commutative and associative: merging per-shard histograms yields the same
/// result at any shard count, in any order — required by the determinism
/// contract.
class LogHistogram {
 public:
  static constexpr double kDefaultMin = 1e-3;  // 1 µs when values are ms
  static constexpr double kDefaultMax = 1e5;   // 100 s when values are ms

  explicit LogHistogram(double min_value = kDefaultMin,
                        double max_value = kDefaultMax,
                        unsigned subbucket_bits = 5);

  void observe(double x) {
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_micro_.fetch_add(static_cast<std::int64_t>(x * 1e6),
                         std::memory_order_relaxed);
    update_extremes(static_cast<std::int64_t>(x * 1e6));
    if (x >= max_) {
      // Overflow lives outside the bucket array so the percentile walk can
      // tell "past the range" apart from "in the top bucket".
      overflow_count_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    buckets_[index_of(x)].fetch_add(1, std::memory_order_relaxed);
  }

  /// Upper bound of the value at quantile q (q in (0, 1]); 0 when empty.
  /// Never exceeds the exact observed max; a target landing in the overflow
  /// region returns the exact overflow max.
  double percentile(double q) const;

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const;
  double mean() const;
  /// Exact observed extremes (0 when empty).
  double observed_min() const;
  double observed_max() const;

  std::uint64_t overflow_count() const {
    return overflow_count_.load(std::memory_order_relaxed);
  }
  bool saturated() const { return overflow_count() > 0; }

  double min_value() const { return min_; }
  double max_value() const { return max_; }
  std::size_t subbuckets() const { return std::size_t{1} << sub_bits_; }
  std::size_t num_buckets() const { return buckets_.size(); }
  std::uint64_t bucket(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// Upper value edge of bucket i.
  double bucket_upper(std::size_t i) const;

  /// True when `other` has identical geometry (merge precondition).
  bool same_geometry(const LogHistogram& other) const {
    return min_ == other.min_ && sub_bits_ == other.sub_bits_ &&
           buckets_.size() == other.buckets_.size();
  }
  /// Element-wise integer merge of `other` into this (deterministic in any
  /// order/grouping). Geometries must match.
  void merge(const LogHistogram& other);

  /// Zero every bucket and scalar, returning the instrument to its
  /// just-constructed state. Not atomic with respect to concurrent
  /// observe() — quiesce writers first (the live-load harness resets
  /// between sweep stages, after each stage has drained).
  void reset();


 private:
  /// Pure bucket index for x in [0, max_value). Underflow and NaN clamp to
  /// bucket 0.
  std::size_t index_of(double x) const {
    double r = x / min_;
    if (!(r >= 1.0)) return 0;
    auto t = static_cast<std::uint64_t>(r * 1024.0);
    unsigned top = static_cast<unsigned>(std::bit_width(t)) - 1;  // ≥ 10
    std::size_t octave = top - 10;
    std::size_t sub = static_cast<std::size_t>(t >> (top - sub_bits_)) &
                      (subbuckets() - 1);
    std::size_t i = (octave << sub_bits_) | sub;
    return i < buckets_.size() ? i : buckets_.size() - 1;
  }

  void update_extremes(std::int64_t micro);

  double min_;
  double max_;
  unsigned sub_bits_;
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::int64_t> sum_micro_{0};
  std::atomic<std::uint64_t> overflow_count_{0};
  std::atomic<std::int64_t> min_micro_;
  std::atomic<std::int64_t> max_micro_;
};

/// Point-in-time copy of every instrument in a registry.
struct MetricsSnapshot {
  /// Scalars only: the ~900 raw buckets stay on the live instrument; the
  /// snapshot carries the digested tail shape every exporter wants.
  struct LogHistogramData {
    std::uint64_t count = 0;
    double sum = 0.0;
    double mean = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
    double p999 = 0.0;
    bool saturated = false;
    std::uint64_t overflow_count = 0;
  };
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, LogHistogramData> log_histograms;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create by name. Returned pointers remain valid until the
  /// registry is destroyed. log_histogram() with a name that already exists
  /// returns the existing instrument (its geometry wins).
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  LogHistogram* log_histogram(const std::string& name,
                              double min_value = LogHistogram::kDefaultMin,
                              double max_value = LogHistogram::kDefaultMax);

  MetricsSnapshot snapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<LogHistogram>> log_histograms_;
};

}  // namespace ilu
