#include "trace/workload.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace ilu {

std::uint64_t Trace::pack_checked(TimePoint at, FunctionId fn) {
  if (at.count() < 0 || at.count() > kMaxUs) {
    throw std::out_of_range("event time " + std::to_string(at.count()) +
                            " us out of packed-key range");
  }
  if (fn > kMaxFn) {
    throw std::out_of_range("function id " + std::to_string(fn) +
                            " out of packed-key range");
  }
  return pack(at, fn);
}

TraceStats trace_stats(const std::vector<FunctionProfile>& functions,
                       EventView events, Duration duration) {
  TraceStats s;
  s.num_functions = functions.size();
  s.num_invocations = events.size();
  s.invocations_by_function.assign(functions.size(), 0);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FunctionId fn = events.fn(i);
    if (fn >= functions.size()) {
      throw std::out_of_range("event " + std::to_string(i) +
                              " names function " + std::to_string(fn) +
                              " of " + std::to_string(functions.size()));
    }
    ++s.invocations_by_function[fn];
  }
  if (events.empty()) return s;

  const Duration observed = events.at(events.size() - 1) - events.at(0);
  Duration span = duration > Duration::zero() ? duration : observed;
  if (span <= Duration::zero()) span = usecs(1);
  s.reqs_per_sec = static_cast<double>(events.size()) / to_sec(span);
  if (events.size() > 1) {
    s.avg_iat = Duration{observed.count() /
                         static_cast<std::int64_t>(events.size() - 1)};
  }

  // Little's law: per-function arrival rate x warm execution time.
  for (std::size_t f = 0; f < functions.size(); ++f) {
    double rate =
        static_cast<double>(s.invocations_by_function[f]) / to_sec(span);
    s.expected_concurrency += rate * to_sec(functions[f].warm_time);
  }
  return s;
}

TraceStats Trace::stats() const {
  return trace_stats(functions, *this, duration);
}

std::vector<double> Trace::invocations_per_second_by_minute() const {
  if (keys.empty()) return {};
  Duration span = duration > Duration::zero() ? duration : at(size() - 1);
  auto num_minutes =
      static_cast<std::size_t>(std::ceil(to_sec(span) / 60.0));
  if (num_minutes == 0) num_minutes = 1;
  std::vector<double> out(num_minutes, 0.0);
  for (std::uint64_t k : keys) {
    auto m = static_cast<std::size_t>(to_sec(key_at(k)) / 60.0);
    if (m >= out.size()) m = out.size() - 1;
    out[m] += 1.0;
  }
  for (auto& v : out) v /= 60.0;
  return out;
}

bool Trace::valid() const {
  return std::is_sorted(keys.begin(), keys.end()) &&
         std::all_of(keys.begin(), keys.end(), [&](std::uint64_t k) {
           return key_fn(k) < functions.size();
         });
}

}  // namespace ilu
