#pragma once

#include <cstddef>
#include <cstdint>

#include "containers/cpu_model.hpp"
#include "runtime/sim_runtime.hpp"
#include "util/rng.hpp"

/// Steady CpuModel churn at a fixed running-set size, shared by
/// micro_ops (BM_CpuModelChurn) and run_all. Every completion submits a
/// replacement with fresh random work, so each step is one completion plus
/// one submit against a table of `running` tasks — the shape of a live
/// worker at tens of thousands of invocations per second, which a model
/// holding a handful of tasks never shows.
namespace ilu::bench {

class CpuModelChurn {
 public:
  explicit CpuModelChurn(std::size_t running) : cpu_(rt_, 48.0), rng_(7) {
    for (std::size_t i = 0; i < running; ++i) spawn();
  }

  /// Run events until at least one more task has completed.
  void step() {
    const std::uint64_t target = completed_ + 1;
    while (completed_ < target && rt_.step()) {
    }
  }

  std::uint64_t completed() const { return completed_; }

 private:
  void spawn() {
    cpu_.submit(rng_.uniform(0.001, 0.01), 1.0, [this] {
      ++completed_;
      spawn();
    });
  }

  SimRuntime rt_;
  CpuModel cpu_;
  Rng rng_;
  std::uint64_t completed_ = 0;
};

}  // namespace ilu::bench
