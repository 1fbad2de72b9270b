#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/worker.hpp"
#include "lb/chbl.hpp"
#include "lb/placement.hpp"
#include "obs/metrics.hpp"
#include "runtime/latency.hpp"
#include "runtime/sharded_runtime.hpp"

/// A cluster of Ilúvatar workers behind a stateless load balancer (§4.1).
/// The balancer routes with CH-BL (RR and least-loaded are included for
/// comparison experiments) over its *local* view of worker load: the number
/// of invocations it has dispatched to each worker whose results have not
/// yet come back. The real control plane cannot read worker memory
/// synchronously either — it works from low-staleness signals — and the
/// local view is what lets the sharded simulation route without a
/// cross-thread read.
///
/// Two execution modes share all of the logic above:
///  * single event loop (`Cluster(Runtime&, ...)`): LB and workers all on
///    one runtime, RPC hops are plain timers;
///  * sharded (`Cluster(ShardedRuntime&, ...)`): the LB and the driver live
///    on shard 0, worker w lives on the shard cfg.placement assigns it
///    (lb/placement.hpp), and every LB→worker / worker→LB hop is a mailbox
///    message. The RPC latency floor (cfg.rpc.lower_bound(), strictly
///    positive) is the lookahead of the sharded runtime's conservative
///    windows.
///
/// With a fixed seed a sharded run is event-for-event identical to the
/// one-shard run at any shard count and under either placement, for two
/// reasons. Both RPC hop samples are drawn on the LB at route time, so the
/// balancer RNG's draw order never depends on worker interleaving. And
/// messages are keyed by (deliver time, sender id, per-sender sequence),
/// which does not depend on the shard count.
namespace ilu {

enum class LbPolicy { ChBl, RoundRobin, LeastLoaded };

struct ClusterConfig {
  std::size_t num_workers = 4;
  WorkerConfig worker{};
  LbPolicy lb = LbPolicy::ChBl;
  ChblBalancer::Config chbl{};
  /// Network hop between load balancer and worker: a hard floor
  /// (serialization + NIC + switch minimum, also the sharded lookahead)
  /// plus lognormal jitter; median ≈ 250 µs as in the paper's LB studies.
  LatencyModel rpc =
      LatencyModel::shifted(usecs(200), LatencyModel::lognormal(usecs(50), 0.4));
  /// Worker→shard placement (sharded ctor only; see lb/placement.hpp).
  /// kRoundRobin stripes worker w onto shard w % N; kLocality groups CH-BL
  /// ring neighbours so forwarded invocations tend to stay intra-shard.
  /// Placement never changes simulation results, only cross-shard traffic.
  Placement placement = Placement::kRoundRobin;
  std::uint64_t seed = 21;
};

class Cluster {
 public:
  /// Single-event-loop cluster (the serial path).
  Cluster(Runtime& rt, ClusterConfig cfg);
  /// Sharded cluster: LB on shard 0, worker w on the shard chosen by
  /// cfg.placement (round-robin striping or CH-BL locality grouping — see
  /// lb/placement.hpp; shard_of() reports the result). srt.lookahead() must
  /// not exceed cfg.rpc.lower_bound().
  Cluster(ShardedRuntime& srt, ClusterConfig cfg);

  void start();
  void shutdown();

  /// Registers the function on every worker (functions can run anywhere).
  /// All workers must assign the same id; disagreement is a wiring bug
  /// (e.g. registering through a worker directly as well as the cluster).
  FunctionId register_function(const FunctionProfile& profile);

  /// Route and invoke; cb fires with the worker's result, on the LB's
  /// event loop (shard 0 in sharded mode).
  void invoke(FunctionId fn, Worker::InvokeCb cb);

  std::size_t num_workers() const { return workers_.size(); }
  Worker& worker(std::size_t i) { return *workers_.at(i); }
  /// Which shard hosts worker i (always 0 on the serial path).
  std::size_t shard_of(std::size_t i) const { return worker_shard_.at(i); }

  /// Invocations routed to each worker (locality / balance metrics).
  const std::vector<std::uint64_t>& routed() const { return routed_; }
  /// Invocations that were not routed to their CH-BL home worker.
  std::uint64_t forwarded() const { return forwarded_; }

  /// The LB's local load view: dispatched-but-not-returned per worker.
  const std::vector<double>& load_view() const { return lb_view_; }

  /// Load-balancer metrics: per-worker dispatch counters
  /// ("lb.dispatch.<worker>") and the CH-BL forwarding counter
  /// ("lb.forwarded"). Per-worker control-plane metrics live in each
  /// worker's own registry (worker(i).metrics()).
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

 private:
  void build_workers();
  std::size_t route(FunctionId fn);
  /// Message tags: (per-sender sequence, sender) lexicographic, encoded so
  /// numeric order == lexicographic order over the fixed sender universe
  /// (LB = 0, worker w = w + 1). Identical at any shard count.
  std::uint64_t next_tag(std::size_t sender_id, std::uint64_t& seq) const;
  /// Deliver `fn` at absolute time `at` on worker w's event loop (or the
  /// LB's, for w == kLbDestination). A mailbox send when sharded, a plain
  /// timer otherwise.
  static constexpr std::size_t kLb = static_cast<std::size_t>(-1);
  void send_from_lb(std::size_t w, TimePoint at, Task fn);
  void send_to_lb(std::size_t w, TimePoint at, Task fn);

  Runtime& rt_;  ///< The LB's event loop (shard 0 when sharded).
  ShardedRuntime* srt_ = nullptr;
  ClusterConfig cfg_;
  Rng rng_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::size_t> worker_shard_;
  std::vector<std::string> fn_keys_;
  ChblBalancer chbl_;
  std::size_t rr_next_ = 0;
  std::vector<std::uint64_t> routed_;
  std::uint64_t forwarded_ = 0;
  /// LB-local outstanding-invocation count per worker (the routing load
  /// signal). Lives here, not allocated per route call.
  std::vector<double> lb_view_;
  /// Per-sender message sequence numbers. lb_seq_ is only touched on the
  /// LB's loop; worker_seq_[w] only on worker w's loop.
  std::uint64_t lb_seq_ = 0;
  std::vector<std::uint64_t> worker_seq_;
  MetricsRegistry metrics_;
  std::vector<Counter*> dispatch_counters_;
  Counter* forwarded_counter_ = nullptr;
};

}  // namespace ilu
