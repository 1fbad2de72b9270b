#include "keepalive/clairvoyant.hpp"

#include <limits>

namespace ilu {

namespace {
constexpr TimePoint kNever = TimePoint{std::numeric_limits<std::int64_t>::max()};
}

ClairvoyantPolicy::ClairvoyantPolicy(const Trace& trace) {
  for (std::size_t i = 0; i < trace.size(); ++i) {
    future_[trace.fn(i)].arrivals.push_back(trace.at(i));
  }
}

void ClairvoyantPolicy::on_invocation(FunctionId fn, TimePoint now) {
  auto it = future_.find(fn);
  if (it == future_.end()) return;
  FnFuture& f = it->second;
  // Advance past every arrival at or before `now` (the one being observed).
  while (f.cursor < f.arrivals.size() && f.arrivals[f.cursor] <= now) {
    ++f.cursor;
  }
}

TimePoint ClairvoyantPolicy::next_use(FunctionId fn) const {
  auto it = future_.find(fn);
  if (it == future_.end()) return kNever;
  const FnFuture& f = it->second;
  if (f.cursor >= f.arrivals.size()) return kNever;
  return f.arrivals[f.cursor];
}

double ClairvoyantPolicy::eviction_rank(const CacheEntry& e) const {
  // Furthest next use evicted first (lowest rank first => negate).
  TimePoint next = next_use(e.fn);
  return -static_cast<double>(next.count());
}

}  // namespace ilu
