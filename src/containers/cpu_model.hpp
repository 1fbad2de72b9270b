#pragma once

#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "runtime/runtime.hpp"

/// Generalized-processor-sharing CPU model (the 48-core Xeon stand-in).
///
/// Each running task has a fixed amount of CPU work (core-seconds) and a
/// cgroup-style weight that doubles as its per-task core cap: a 1-CPU
/// container can never use more than 1 core, and under contention cores are
/// divided proportionally to weight (exactly the paper's observation that
/// cgroup quotas keep allocation proportional under overcommitment).
///
/// The model is *exact*, not time-stepped: rates are recomputed by
/// water-filling on every arrival/departure and the next completion event is
/// rescheduled accordingly.
///
/// Every arrival and departure walks the whole running set (advance,
/// water-fill, completion sweep), so the set is a contiguous table of
/// plain rows: a simulated worker runs a handful of tasks, but a live
/// worker at 30k inv/s with 4 ms executions runs ~120, and these walks sit
/// on its loop thread's per-invocation path. The per-task arithmetic is
/// deliberately the O(n) one — each row's `remaining -= rate * dt` at
/// every event — because its rounding fixes every completion instant;
/// virtual-time GPS would be O(log n) but shifts completions by a
/// microsecond and so every pinned report.
///
/// It also maintains a Unix-style exponentially-decayed load average over
/// total runnable demand, updated lazily at event boundaries (demand is
/// piecewise constant between events, so the EWMA integral is closed-form).
namespace ilu {

class CpuModel {
 public:
  using TaskId = std::uint64_t;

  CpuModel(Runtime& rt, double cores, double load_tau_seconds = 60.0);

  /// Start a task needing `work_seconds` core-seconds, with cgroup weight /
  /// core-cap `weight` (> 0). `on_complete` fires (via the runtime) when the
  /// work is done; the elapsed wall time depends on contention.
  TaskId submit(double work_seconds, double weight,
                Runtime::Task on_complete);

  /// Abort a running task (no callback). Returns false if unknown.
  bool cancel(TaskId id);

  std::size_t running() const { return tasks_.size(); }

  /// Instantaneous total demand in cores (sum of weights of running tasks).
  double demand() const { return total_weight_; }

  /// Exponentially decayed load average of demand.
  double load_average() const;

  double cores() const { return cores_; }

  /// Wall-clock duration the given work would take at current contention if
  /// conditions froze now (used by queue policies for expectations).
  Duration estimate(double work_seconds, double weight) const;

  /// Observe every demand change (piecewise-constant between events); used
  /// by the EnergyMeter for exact power integration. Takes arguments and is
  /// installed once per model, so it is not a Task candidate.
  // ilu-lint: allow(std-function-hotpath) - set once at wiring time, never on the per-event path
  using DemandObserver = std::function<void(TimePoint, double)>;
  void set_demand_observer(DemandObserver obs) { observer_ = std::move(obs); }

 private:
  /// Advance all remaining-work counters to rt_.now().
  void advance();
  /// Water-fill rates and (re)schedule the next completion event.
  void recompute_and_schedule();
  void on_completion_event();
  double rate_for(double weight) const;
  void update_load_average(TimePoint now) const;

  Runtime& rt_;
  double cores_;
  double load_tau_;

  /// One running task. Plain data, so the completion sweep compacts the
  /// table with 40-byte copies; the callback lives in `callbacks_[slot]`.
  struct Row {
    TaskId id;
    double remaining;  // core-seconds
    double weight;
    double rate;  // cores currently allocated
    std::uint32_t slot;
  };
  static_assert(std::is_trivially_copyable_v<Row>);

  /// Sorted by TaskId (= submission order): `submit` appends, the
  /// completion sweep compacts in place and `cancel` erases, so the table
  /// never reorders. Callbacks collected by the sweep therefore fire, and
  /// `total_weight_` is decremented, in submission order — the order the
  /// pinned reports were produced with.
  std::vector<Row> tasks_;
  /// Callback slab indexed by Row::slot; freed slots are reused via
  /// `free_slots_`, so steady-state churn never allocates.
  std::vector<Runtime::Task> callbacks_;
  std::vector<std::uint32_t> free_slots_;
  /// Callbacks of the tasks one completion event finished, kept as a member
  /// so its capacity survives between events.
  std::vector<Runtime::Task> done_;
  TaskId next_id_ = 1;
  double total_weight_ = 0.0;
  TimePoint last_advance_{};

  Runtime::TimerId completion_timer_ = Runtime::kInvalidTimer;

  mutable double load_avg_ = 0.0;
  mutable TimePoint load_updated_{};
  DemandObserver observer_;
};

}  // namespace ilu
