#pragma once

#include <functional>
#include <string>
#include <vector>

#include "containers/container.hpp"
#include "keepalive/policy.hpp"
#include "obs/metrics.hpp"
#include "runtime/indexed_heap.hpp"
#include "runtime/runtime.hpp"

/// The worker's keep-alive container pool (§4.3.1): tracks every in-use and
/// available container per function, accounts server memory, and performs
/// eviction *asynchronously* in a background sweep (§4.3.2) that maintains a
/// free-memory buffer for invocation bursts — instead of picking victims on
/// the invoke critical path.
///
/// Storage model (DESIGN.md §11): all container records live in a
/// `ContainerStore` slab and are addressed by `ContainerHandle` — callers
/// never hold `Container*` across calls. The idle set is kept in two
/// allocation-free index structures over the slab:
///
///  * per-function intrusive LIFO lists (prev/next handles stored in the
///    record itself) for MRU `acquire`;
///  * an indexed min-heap keyed `(eviction_rank, slot index)` for victim
///    selection. Including the slot index in the key makes the victim order
///    a total, run-to-run-stable order by construction — ties that the old
///    `multimap` broke by insertion order are now broken by canonical
///    handle order.
///
/// After warm-up, acquire/return/evict perform zero heap allocations.
namespace ilu {

class ContainerPool {
 public:
  struct Config {
    std::uint64_t capacity_mb = 32 * 1024;
    /// The background sweep evicts idle containers until at least this much
    /// memory is free (0 disables the buffer).
    std::uint64_t free_buffer_mb = 2048;
    /// Background sweep cadence; zero disables background eviction entirely
    /// (the synchronous-eviction ablation).
    Duration sweep_interval = msecs(500);
  };

  /// Eviction notification: the record is alive only for the duration of
  /// the call (its handle is already invalid) — copy out whatever teardown
  /// needs. The callback must not synchronously reenter the pool; both the
  /// worker and the OpenWhisk baseline defer real teardown to the runtime.
  using EvictFn = std::function<void(const Container&)>;
  /// Prefetching policies (HIST) can ask for a container to be pre-warmed
  /// at an absolute time after an expiry removed the last warm one; the
  /// worker schedules the actual prewarm.
  using PrewarmRequestFn = std::function<void(FunctionId, TimePoint)>;

  ContainerPool(Runtime& rt, KeepAlivePolicy& policy, Config cfg,
                EvictFn on_evict);

  void set_prewarm_requester(PrewarmRequestFn fn) {
    on_prewarm_request_ = std::move(fn);
  }

  /// Optional live-metrics hooks (null pointers are skipped). `busy` is
  /// containers not currently idle (running or being provisioned).
  struct Metrics {
    Counter* evictions = nullptr;
    Counter* expirations = nullptr;
    Counter* prewarm_parks = nullptr;
    Gauge* total = nullptr;
    Gauge* idle = nullptr;
    Gauge* busy = nullptr;
    Gauge* prewarmed = nullptr;
    Gauge* used_mb = nullptr;
  };
  void set_metrics(const Metrics& m) {
    metrics_ = m;
    sync_metrics();
  }
  ~ContainerPool();

  ContainerPool(const ContainerPool&) = delete;
  ContainerPool& operator=(const ContainerPool&) = delete;

  /// Begin/end background sweeping.
  void start();
  void stop();

  /// Take the most-recently-used idle container of `fn` for an invocation
  /// (Idle -> Running). Returns a null handle when none is available.
  ContainerHandle acquire(FunctionId fn, TimePoint now);

  /// Reserve memory and register a brand-new container (cold start or
  /// prewarm). Synchronously evicts idle containers if the buffer could not
  /// keep up; when `sync_evictions` is non-null it receives the number of
  /// victims removed on this call (the caller pays their teardown on the
  /// critical path — exactly the jitter §4.3.2's background eviction
  /// avoids). Returns a null handle when memory cannot be found (busy
  /// containers pin it). The returned container is in Provisioning state.
  ContainerHandle add_container(FunctionId fn, const FunctionProfile& profile,
                                TimePoint now,
                                std::size_t* sync_evictions = nullptr);

  /// Running -> Idle; the container becomes available for reuse.
  void return_container(ContainerHandle h, TimePoint now);

  /// Park a freshly launched prewarm container (Launching -> Idle).
  void park_prewarmed(ContainerHandle h, TimePoint now);

  /// Remove a container in any state (creation failure, shutdown).
  void remove(ContainerHandle h);

  /// Dereference a handle. References are invalidated by `add_container`
  /// (slab growth) and by anything that can evict the record; re-fetch
  /// rather than caching across pool calls.
  Container& get(ContainerHandle h) { return store_.get(h); }
  const Container& get(ContainerHandle h) const { return store_.get(h); }
  /// True while `h` refers to a live (not yet removed/evicted) container.
  bool alive(ContainerHandle h) const { return store_.contains(h); }

  bool has_idle(FunctionId fn) const {
    return fn < idle_head_.size() && idle_head_[fn].valid();
  }
  std::size_t idle_count() const { return rank_.size(); }
  std::size_t total_count() const { return store_.size(); }
  std::uint64_t used_mb() const { return used_mb_; }
  std::uint64_t capacity_mb() const { return capacity_mb_; }
  std::uint64_t free_mb() const { return capacity_mb_ - used_mb_; }
  void set_capacity_mb(std::uint64_t mb);

  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t expirations() const { return expirations_; }

  /// The backing slab; exposed so tests can assert allocation behaviour and
  /// iterate records in canonical order.
  const ContainerStore& store() const { return store_; }

  /// One background sweep: expire per policy, then restore the free buffer.
  /// Public so tests and the sync-eviction ablation can drive it directly.
  void sweep(TimePoint now);

  /// O(n) structural invariant check for tests: memory accounting, idle
  /// list/rank index consistency, intrusive link integrity. Returns false
  /// and fills `why` (when non-null) on the first violation.
  bool validate(std::string* why = nullptr) const;

 private:
  /// Rank-heap key: policy eviction rank, slot index as canonical
  /// tie-break. Strictly totally ordered, so victim order is deterministic
  /// by construction.
  struct RankKey {
    double rank;
    std::uint32_t index;
    bool operator<(const RankKey& o) const {
      return rank < o.rank || (rank == o.rank && index < o.index);
    }
  };
  using RankHeap = IndexedHeap<RankKey, ContainerHandle>;

  void insert_idle(ContainerHandle h, Container& c);
  void remove_idle(ContainerHandle h, Container& c);
  void sync_metrics();
  void evict_one(ContainerHandle h, bool expired);
  bool make_room(std::uint32_t mem_mb);
  void schedule_sweep();

  Runtime& rt_;
  KeepAlivePolicy& policy_;
  Config cfg_;
  EvictFn on_evict_;
  PrewarmRequestFn on_prewarm_request_;
  Metrics metrics_;
  /// Idle containers still carrying their prewarm flag.
  std::size_t prewarmed_idle_ = 0;

  std::uint64_t capacity_mb_;
  std::uint64_t used_mb_ = 0;
  ContainerId next_id_ = 1;

  ContainerStore store_;
  /// Head of the per-function intrusive idle list (MRU first), indexed by
  /// FunctionId; grows to the largest id seen, then never reallocates.
  std::vector<ContainerHandle> idle_head_;
  RankHeap rank_;
  /// Scratch for sweep's expiry pass; member so steady-state sweeps reuse
  /// its capacity instead of allocating.
  std::vector<ContainerHandle> expired_scratch_;

  bool running_ = false;
  Runtime::TimerId sweep_timer_ = Runtime::kInvalidTimer;
  std::uint64_t evictions_ = 0;
  std::uint64_t expirations_ = 0;
};

}  // namespace ilu
