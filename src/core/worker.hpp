#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/types.hpp"
#include "containers/backend.hpp"
#include "containers/netns_pool.hpp"
#include "common/characteristics.hpp"
#include "containers/cpu_model.hpp"
#include "core/span_tracer.hpp"
#include "keepalive/pool.hpp"
#include "obs/metrics.hpp"
#include "queueing/invocation_queue.hpp"
#include "queueing/regulator.hpp"
#include "runtime/runtime.hpp"
#include "runtime/slab.hpp"

/// The Ilúvatar worker (§4): the worker-centric control plane that owns a
/// function registry, a per-worker invocation queue with a concurrency
/// regulator and bypass, a keep-alive container pool with background
/// eviction, a netns pool, and a pluggable container backend.
namespace ilu {

/// Per-span latency models for the worker control plane, calibrated to the
/// paper's Table 1 (values in ms for a single warm invocation). In
/// simulation these model the cost of the real system's Rust control plane
/// plus agent HTTP communication; the jitter shape is lognormal with a rare
/// OS-noise spike.
struct ControlPlaneLatencies {
  LatencyModel invoke;
  LatencyModel sync_invoke;
  LatencyModel enqueue_invocation;
  LatencyModel add_item_to_q;
  LatencyModel spawn_worker;
  LatencyModel dequeue;
  LatencyModel acquire_container;
  LatencyModel try_lock_container;
  LatencyModel prepare_invoke;
  LatencyModel call_container;
  LatencyModel download_result;
  LatencyModel return_container;
  LatencyModel return_results;
  /// First agent call on a fresh container pays HTTP connection setup;
  /// cached clients (§4.3.1) skip it on warm starts.
  LatencyModel http_connect;

  static ControlPlaneLatencies iluvatar_defaults();
};

struct WorkerConfig {
  std::string name = "worker0";
  double cores = 48.0;
  std::uint64_t memory_mb = 32 * 1024;

  /// Queue discipline: FCFS, SJF, EEDF (default, §5.2), RARE.
  std::string queue_policy = "EEDF";
  /// Keep-alive policy: TTL, LRU, FREQ, GD (default), LND, HIST.
  std::string keepalive_policy = "GD";

  RegulatorConfig regulator{.limit = 96.0};  // 2x overcommit by default
  /// Short-function bypass: functions with expected warm time below this
  /// skip the queue (0 disables).
  Duration bypass_threshold{};
  /// ... as long as normalized load average is below this bound.
  double bypass_load_limit = 1.0;

  ContainerPool::Config pool{};  // capacity_mb is overridden by memory_mb
  NetnsPool::Config netns{};
  BackendLatencyProfile backend = BackendLatencyProfile::containerd();
  BackendFaults faults{};
  ControlPlaneLatencies latencies = ControlPlaneLatencies::iluvatar_defaults();

  /// Control-plane slowdown per unit of CPU overcommit (the control plane
  /// shares the machine with function execution).
  double cp_contention_factor = 0.4;
  /// Retry budget for failed container creations.
  int create_retries = 2;
  /// Let prefetching keep-alive policies (HIST) schedule prewarms through
  /// the worker when their predictions fire.
  bool predictive_prewarm = true;
  bool tracing = true;
  std::uint64_t seed = 42;
};

class Worker {
 public:
  // ilu-lint: allow(std-function-hotpath) - result callback takes an argument and is copied into retry paths; not a nullary Task
  using InvokeCb = std::function<void(const InvokeResult&)>;
  using AsyncToken = std::uint64_t;

  Worker(Runtime& rt, WorkerConfig cfg);
  ~Worker();

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  /// Begin background services (pool eviction sweeps, AIMD ticks).
  void start();
  /// Stop background timers so a simulation can drain.
  void shutdown();

  /// Register a function (image preparation happens out of band, §4.2).
  FunctionId register_function(FunctionProfile profile);
  const FunctionProfile& profile(FunctionId fn) const;
  std::size_t num_functions() const { return functions_.size(); }

  /// Synchronous invocation API: cb fires on completion or failure.
  void invoke(FunctionId fn, InvokeCb cb);

  /// Asynchronous API: returns a token immediately; poll for the result.
  AsyncToken async_invoke(FunctionId fn);
  std::optional<InvokeResult> async_result(AsyncToken token);

  /// Start a warm container ahead of demand (§4.2 prewarm).
  // ilu-lint: allow(std-function-hotpath) - optional bool-taking callback with a default-empty state; prewarms are rare control events
  void prewarm(FunctionId fn, std::function<void(bool)> cb = {});

  /// Load/status view used by the load balancer (§4.1): queue length is the
  /// paper's preferred low-staleness load signal.
  struct Status {
    std::size_t queue_len = 0;
    std::size_t running = 0;
    double load_average = 0.0;
    double normalized_load = 0.0;
    std::uint64_t used_mb = 0;
    std::uint64_t free_mb = 0;
    double concurrency_limit = 0.0;
  };
  Status status() const;

  /// Aggregate counters.
  std::uint64_t completed() const { return completed_; }
  std::uint64_t warm_starts() const { return warm_count_; }
  std::uint64_t cold_starts() const { return cold_count_; }
  std::uint64_t bypassed() const { return bypass_count_; }
  std::uint64_t failures() const { return failure_count_; }
  std::uint64_t prewarms() const { return prewarm_count_; }

  /// Component access for tests, benches, and research instrumentation.
  SpanTracer& tracer() { return tracer_; }
  /// Live metrics (counters/gauges/histograms) for this worker: invocation
  /// counts, in-flight level, queue depth/wait, pool occupancy, overheads.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  CpuModel& cpu() { return cpu_; }
  ContainerPool& pool() { return pool_; }
  NetnsPool& netns() { return netns_; }
  const CharacteristicsMap& characteristics() const { return chars_; }
  const WorkerConfig& config() const { return cfg_; }
  Runtime& runtime() { return rt_; }

 private:
  struct Pending {
    FunctionId fn = 0;
    TimePoint submitted{};
    TimePoint exec_started{};
    Duration pre_overhead{};
    InvokeCb cb;
    bool bypassed = false;
    int create_attempts = 0;
    /// Transaction-scoped tracing: every span of this invocation carries
    /// `tx`; the first span recorded becomes the root of its span tree.
    TransactionId tx = 0;
    SpanId root = kNoSpan;
  };
  /// Generation-checked reference to an in-flight invocation in the pending
  /// slab (DESIGN.md §11); continuations capture this 8-byte value instead
  /// of a shared_ptr, so the steady-state invoke path never touches the
  /// allocator or a refcount.
  struct PendingHandle {
    std::uint32_t index = 0;
    std::uint32_t gen = 0;
    bool valid() const { return gen != 0; }
    friend bool operator==(const PendingHandle&,
                           const PendingHandle&) = default;
  };
  using PendingStore = Slab<Pending, PendingHandle>;

  /// Sample a span latency (scaled by current control-plane contention),
  /// record it under p's transaction starting `offset` after now, and
  /// return it. The first span recorded for p becomes its tree root;
  /// subsequent ones are its children.
  Duration span(Pending& p, const char* name, const LatencyModel& model,
                Duration offset = Duration::zero());
  double cp_scale() const;

  void enqueue(PendingHandle p);
  void pump();
  void dispatch(PendingHandle p);
  void cold_start(PendingHandle p);
  void launch_exec(PendingHandle p, ContainerHandle c, bool cold);
  void finish(PendingHandle p, ContainerHandle c, bool cold, bool ok,
              Duration actual_exec);
  /// Complete `p` with a failure result; consumes (erases) the pending.
  void fail(PendingHandle p);
  void on_memory_released();
  void schedule_regulator_tick();

  Runtime& rt_;
  WorkerConfig cfg_;
  Rng rng_;

  std::vector<FunctionProfile> functions_;
  CharacteristicsMap chars_;
  SpanTracer tracer_;
  MetricsRegistry metrics_;
  /// Instruments resolved once at construction; hot-path updates are
  /// single relaxed atomics through these pointers.
  struct Instruments {
    Counter* invocations = nullptr;
    Counter* completed = nullptr;
    Counter* warm = nullptr;
    Counter* cold = nullptr;
    Counter* failures = nullptr;
    Counter* bypassed = nullptr;
    Counter* prewarms = nullptr;
    /// Parked invocations re-queued by on_memory_released: every release
    /// re-queues every invocation parked in cold_start for lack of memory.
    Counter* memory_requeues = nullptr;
    Gauge* inflight = nullptr;
    /// Log-bucketed: queue waits and overheads span µs (bypass hits) to
    /// seconds (cold-start storms); fixed-width buckets flatten that tail.
    LogHistogram* queue_wait_ms = nullptr;
    LogHistogram* overhead_ms = nullptr;
  } ins_;
  CpuModel cpu_;
  std::unique_ptr<KeepAlivePolicy> ka_policy_;
  ContainerPool pool_;
  NetnsPool netns_;
  std::unique_ptr<ContainerBackend> backend_;
  std::unique_ptr<QueuePolicy> q_policy_;
  InvocationQueue queue_;
  ConcurrencyRegulator regulator_;

  std::size_t running_ = 0;
  /// All in-flight invocations; erased on completion/failure so slots
  /// recycle and steady state never allocates.
  PendingStore pending_;
  /// Invocations that could not reserve memory; retried when memory frees.
  std::vector<PendingHandle> waiting_memory_;
  /// on_memory_released swaps the parked list into this buffer and
  /// re-queues from it, so neither buffer is reallocated per release.
  std::vector<PendingHandle> requeue_;
  /// Mean execution-time inflation of recent completions (AIMD's optional
  /// congestion signal: actual execution / expected uncontended execution).
  MovingWindow recent_stretch_{32};

  bool started_ = false;
  Runtime::TimerId regulator_timer_ = Runtime::kInvalidTimer;

  std::uint64_t completed_ = 0;
  std::uint64_t warm_count_ = 0;
  std::uint64_t cold_count_ = 0;
  std::uint64_t bypass_count_ = 0;
  std::uint64_t failure_count_ = 0;
  std::uint64_t prewarm_count_ = 0;

  AsyncToken next_token_ = 1;
  std::unordered_map<AsyncToken, InvokeResult> async_results_;
  /// Functions with a policy-requested prewarm already scheduled.
  std::unordered_set<FunctionId> pending_prewarms_;
};

}  // namespace ilu
