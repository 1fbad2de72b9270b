#include "trace/loadgen.hpp"

#include <algorithm>
#include <cassert>

#include "obs/flight.hpp"

namespace ilu {

OpenLoopDriver::OpenLoopDriver(Runtime& rt, InvokeFn invoke)
    : rt_(rt), invoke_(std::move(invoke)) {}

void OpenLoopDriver::start(EventView events) {
  assert(!started_ && "driver already started");
  started_ = true;
  view_ = events;
  begin();
}

void OpenLoopDriver::begin() {
  epoch_ = rt_.now();
  if (!sink_) results_.reserve(view_.size());
  flight::record(rt_.now(), flight::Ev::kReplayMilestone, 0);
  if (view_.empty()) {
    submitted_all_ = true;
    return;
  }
  milestone_step_ = std::max<std::size_t>(1, view_.size() / 10);
  next_milestone_ = milestone_step_;
  rt_.schedule(view_.at(0), [this] { pump(); });
}

void OpenLoopDriver::pump() {
  // Submit every event due now, then re-arm a single timer for the next.
  const std::size_t count = view_.size();
  TimePoint now = rt_.now() - epoch_;
  while (next_ < count && view_.at(next_) <= now) {
    FunctionId fn = view_.fn(next_);
    ++next_;
    ++outstanding_;
    invoke_(fn, [this](const InvokeResult& r) {
      if (sink_) {
        sink_(r);
      } else {
        results_.push_back(r);
      }
      --outstanding_;
    });
    if (next_ == next_milestone_) {
      flight::record(rt_.now(), flight::Ev::kReplayMilestone,
                     static_cast<std::uint32_t>(next_ * 100 / count));
      next_milestone_ += milestone_step_;
    }
  }
  if (next_ < count) {
    rt_.schedule(view_.at(next_) - now, [this] { pump(); });
  } else {
    submitted_all_ = true;
    flight::record(rt_.now(), flight::Ev::kReplayMilestone, 100);
  }
}

ClosedLoopDriver::ClosedLoopDriver(Runtime& rt, InvokeFn invoke, FunctionId fn,
                                   std::size_t clients)
    : rt_(rt), invoke_(std::move(invoke)), fn_(fn), clients_(clients) {
  assert(clients_ > 0);
}

void ClosedLoopDriver::start(std::size_t iterations_per_client) {
  started_ = true;
  active_clients_ = clients_;
  results_.reserve(clients_ * iterations_per_client);
  for (std::size_t c = 0; c < clients_; ++c) {
    rt_.post([this, iterations_per_client] {
      client_loop(iterations_per_client);
    });
  }
}

void ClosedLoopDriver::client_loop(std::size_t remaining) {
  if (remaining == 0) {
    --active_clients_;
    return;
  }
  invoke_(fn_, [this, remaining](const InvokeResult& r) {
    results_.push_back(r);
    client_loop(remaining - 1);
  });
}

Trace make_synthetic_trace(const std::vector<SyntheticFunctionSpec>& specs,
                           Duration duration, std::uint64_t seed) {
  assert(duration > Duration::zero());
  Trace t;
  t.duration = duration;
  Rng rng(seed);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto& spec = specs[i];
    assert(spec.mean_iat > Duration::zero());
    t.functions.push_back(spec.profile);
    Rng frng = rng.substream(i);
    TimePoint at = spec.phase;
    while (at < duration) {
      t.keys.push_back(Trace::pack(at, static_cast<FunctionId>(i)));
      Duration gap =
          spec.exponential
              ? secs(frng.exponential(to_sec(spec.mean_iat)))
              : spec.mean_iat;
      // Guard against a zero exponential draw stalling the generator.
      if (gap <= Duration::zero()) gap = usecs(1);
      at += gap;
    }
  }
  std::sort(t.keys.begin(), t.keys.end());
  return t;
}

Trace make_cyclic_trace(const std::vector<FunctionProfile>& profiles,
                        Duration gap, Duration duration) {
  assert(!profiles.empty() && gap > Duration::zero());
  Trace t;
  t.duration = duration;
  t.functions = profiles;
  // Strictly increasing times: emitted already sorted.
  TimePoint at{};
  FunctionId fn = 0;
  while (at < duration) {
    t.keys.push_back(Trace::pack(at, fn));
    fn = static_cast<FunctionId>((fn + 1) % profiles.size());
    at += gap;
  }
  return t;
}

}  // namespace ilu
