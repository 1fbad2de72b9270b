#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/types.hpp"
#include "util/stats.hpp"

/// Keep-alive policies: the paper's central insight is that container
/// keep-alive is isomorphic to object caching, so eviction can use classic
/// caching algorithms parameterized by each function's (frequency,
/// recency, initialization cost, memory size).
namespace ilu {

/// A warm container as seen by a keep-alive policy. The same record backs
/// both the lean trace simulator (keepalive/simulator.hpp) and the full
/// control-plane container pool (keepalive/pool.hpp).
struct CacheEntry {
  FunctionId fn = 0;
  std::uint32_t mem_mb = 0;
  /// Miss cost: the initialization overhead a cold start would pay.
  Duration init_time{};
  TimePoint created{};
  TimePoint last_used{};
  /// Number of invocations served by this container.
  std::uint64_t uses = 0;
  /// Policy scratch value (Greedy-Dual / Landlord credit).
  double priority = 0.0;
};

/// Interface for keep-alive (container cache) policies.
///
/// Contract mirrors the Rust trait in the paper's implementation: policies
/// are pure priority computations plus optional TTL expiry and prewarm
/// prediction, which is why a new policy is only a few dozen lines (§6.1).
class KeepAlivePolicy {
 public:
  virtual ~KeepAlivePolicy() = default;

  virtual std::string name() const = 0;

  /// Called on insertion (after a cold start) and on every warm hit, after
  /// `uses`/`last_used` have been updated. Policies update entry scratch
  /// state (e.g. the Greedy-Dual priority).
  virtual void on_access(CacheEntry& entry, TimePoint now) = 0;

  /// Eviction order among idle containers: the entry with the *lowest* rank
  /// is evicted first. Ranks are only consulted while an entry is idle, and
  /// entries are re-ranked on access, so rank must not depend on wall time
  /// beyond fields frozen at last access.
  virtual double eviction_rank(const CacheEntry& entry) const = 0;

  /// Called when an entry is evicted (Greedy-Dual aging updates L here).
  virtual void on_evict(const CacheEntry& entry) { (void)entry; }

  /// For non-work-conserving policies (TTL, HIST): absolute time at which
  /// this idle entry should be removed even if memory is not needed.
  virtual std::optional<TimePoint> expires_at(const CacheEntry& entry) const {
    (void)entry;
    return std::nullopt;
  }

  /// Per-function arrival notification, independent of cache contents.
  /// HIST uses this to maintain inter-arrival-time histograms.
  virtual void on_invocation(FunctionId fn, TimePoint now) {
    (void)fn;
    (void)now;
  }

  /// For prefetching policies: when should a container for `fn` be
  /// pre-warmed, given no warm container currently exists?
  virtual std::optional<TimePoint> prewarm_at(FunctionId fn,
                                              TimePoint now) const {
    (void)fn;
    (void)now;
    return std::nullopt;
  }
};

/// OpenWhisk's default: keep each container for a fixed TTL after last use
/// (10 minutes by default); under memory pressure evict in LRU order.
class TtlPolicy final : public KeepAlivePolicy {
 public:
  explicit TtlPolicy(Duration ttl = mins(10)) : ttl_(ttl) {}
  std::string name() const override { return "TTL"; }
  void on_access(CacheEntry&, TimePoint) override {}
  double eviction_rank(const CacheEntry& e) const override {
    return static_cast<double>(e.last_used.count());
  }
  std::optional<TimePoint> expires_at(const CacheEntry& e) const override {
    return e.last_used + ttl_;
  }

 private:
  Duration ttl_;
};

/// Least Recently Used (work-conserving).
class LruPolicy final : public KeepAlivePolicy {
 public:
  std::string name() const override { return "LRU"; }
  void on_access(CacheEntry&, TimePoint) override {}
  double eviction_rank(const CacheEntry& e) const override {
    return static_cast<double>(e.last_used.count());
  }
};

/// Least Frequently Used (the paper's FREQ variant).
class LfuPolicy final : public KeepAlivePolicy {
 public:
  std::string name() const override { return "FREQ"; }
  void on_access(CacheEntry&, TimePoint) override {}
  double eviction_rank(const CacheEntry& e) const override {
    return static_cast<double>(e.uses);
  }
};

/// Greedy-Dual-Size-Frequency (the paper's GD policy, §"subsec:gdsf"):
/// priority = L + frequency x init_cost / memory_size, where L ages the
/// cache by rising to each evicted entry's priority. Balances the four-way
/// tradeoff between recency (via L), frequency, miss cost, and size.
class GreedyDualPolicy final : public KeepAlivePolicy {
 public:
  std::string name() const override { return "GD"; }
  void on_access(CacheEntry& e, TimePoint) override {
    e.priority = l_ + static_cast<double>(e.uses) * cost_over_size(e);
  }
  double eviction_rank(const CacheEntry& e) const override {
    return e.priority;
  }
  void on_evict(const CacheEntry& e) override {
    if (e.priority > l_) l_ = e.priority;
  }
  double aging_factor() const { return l_; }

 private:
  static double cost_over_size(const CacheEntry& e) {
    return to_ms(e.init_time) / std::max(1.0, static_cast<double>(e.mem_mb));
  }
  double l_ = 0.0;
};

/// Landlord (the paper's LND variant): like Greedy-Dual but credit is reset
/// on hit without the frequency multiplier.
class LandlordPolicy final : public KeepAlivePolicy {
 public:
  std::string name() const override { return "LND"; }
  void on_access(CacheEntry& e, TimePoint) override {
    e.priority =
        l_ + to_ms(e.init_time) / std::max(1.0, static_cast<double>(e.mem_mb));
  }
  double eviction_rank(const CacheEntry& e) const override {
    return e.priority;
  }
  void on_evict(const CacheEntry& e) override {
    if (e.priority > l_) l_ = e.priority;
  }

 private:
  double l_ = 0.0;
};

/// The histogram-based keep-alive policy of Shahrad et al. (the paper's
/// HIST comparison, reproduced "best-effort" exactly as §7.1 describes):
///  - per-function IAT histogram in minute buckets up to 4 hours,
///  - coefficient of variation via Welford's online algorithm,
///  - predictable functions (CoV <= 2): custom keep-alive window derived
///    from the histogram tail, pre-warming near the predicted next arrival,
///  - unpredictable functions: a generic 2-hour TTL,
///  - the ARIMA path for >4h IATs is intentionally not implemented (the
///    paper skips it too; ~0.56% of invocations).
class HistPolicy final : public KeepAlivePolicy {
 public:
  struct Params {
    Duration bucket = mins(1);
    std::size_t num_buckets = 241;  // 4 hours + overflow
    double cov_threshold = 2.0;
    double head_quantile = 0.05;
    double tail_quantile = 0.99;
    Duration generic_ttl = mins(120);
    /// Below this many observed IATs the generic TTL applies.
    std::uint64_t min_samples = 3;
    /// Linger after last use before eager eviction of predictable functions
    /// whose next arrival is far away.
    Duration linger = mins(1);
  };

  HistPolicy();
  explicit HistPolicy(Params p);
  std::string name() const override { return "HIST"; }
  void on_access(CacheEntry&, TimePoint) override {}
  double eviction_rank(const CacheEntry& e) const override;
  std::optional<TimePoint> expires_at(const CacheEntry& e) const override;
  void on_invocation(FunctionId fn, TimePoint now) override;
  std::optional<TimePoint> prewarm_at(FunctionId fn,
                                      TimePoint now) const override;

  /// Test/introspection hooks.
  bool predictable(FunctionId fn) const;
  double cov(FunctionId fn) const;

 private:
  struct FnHist {
    BucketHistogram iat;
    Welford stats;
    TimePoint last_invocation{-1};
    explicit FnHist(const Params& p)
        : iat(to_sec(p.bucket), p.num_buckets) {}
  };

  const FnHist* find(FunctionId fn) const;
  /// Keep-alive window after the last invocation for this function.
  Duration window_for(FunctionId fn) const;
  /// Predicted time of next invocation.
  std::optional<TimePoint> predicted_next(FunctionId fn) const;

  Params params_;
  std::unordered_map<FunctionId, FnHist> hists_;
};

/// Named construction for config files and benchmark sweeps.
/// Names: TTL, LRU, FREQ, GD, LND, HIST. Throws std::invalid_argument.
std::unique_ptr<KeepAlivePolicy> make_policy(const std::string& name);

}  // namespace ilu
