#include "keepalive/simulator.hpp"

#include "keepalive/policy.hpp"

namespace ilu {

KeepAliveSimResult run_keepalive_sim(const Trace& trace,
                                     const std::string& policy_name,
                                     std::uint64_t capacity_mb,
                                     bool enable_prewarm) {
  auto policy = make_policy(policy_name);
  return run_keepalive_sim_with(trace, *policy, capacity_mb, enable_prewarm);
}

KeepAliveSimResult run_keepalive_sim_with(const Trace& trace,
                                          KeepAlivePolicy& policy,
                                          std::uint64_t capacity_mb,
                                          bool enable_prewarm) {
  KeepAliveCache::Config cfg;
  cfg.capacity_mb = capacity_mb;
  cfg.enable_prewarm = enable_prewarm;
  KeepAliveCache cache(policy, cfg, trace.functions);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    cache.on_invocation(trace.fn(i), trace.at(i));
  }
  const TimePoint last =
      trace.size() ? trace.at(trace.size() - 1) : TimePoint{};
  cache.advance_to(trace.duration > Duration::zero()
                       ? std::max(trace.duration, last)
                       : last);
  KeepAliveSimResult r;
  r.policy = policy.name();
  r.capacity_mb = capacity_mb;
  r.stats = cache.stats();
  return r;
}

}  // namespace ilu
