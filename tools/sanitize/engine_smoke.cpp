// Sanitizer smoke harness for the event engine (built by the ubsan_smoke /
// asan_smoke ctest targets, see tools/CMakeLists.txt). Exercises the two
// concurrency- and UB-sensitive cores — SimRuntime's slab heap and
// ShardedRuntime's window protocol — in a few hundred milliseconds, without
// any gtest/benchmark dependency so it compiles standalone under any
// -fsanitize flag. Exits nonzero (or the sanitizer aborts) on failure.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "runtime/sharded_runtime.hpp"
#include "runtime/sim_runtime.hpp"

namespace {

// Inline splitmix64 so the harness only needs the two runtime TUs (ilu::Rng
// lives in util/rng.cpp, which this build deliberately avoids).
struct SplitMix {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
};

void require(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "engine_smoke: FAILED: %s\n", what);
    std::abort();
  }
}

// Single-shard churn: schedule/cancel storms over the slab heap, including
// the recycled-slot and stale-handle paths.
void smoke_sim_runtime() {
  ilu::SimRuntime rt;
  SplitMix rng{7};
  std::uint64_t fired = 0;
  std::vector<ilu::Runtime::TimerId> ids;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 200; ++i) {
      auto delay =
          ilu::Duration{static_cast<std::int64_t>(rng.next() % 5000)};
      ids.push_back(rt.schedule(delay, [&fired] { ++fired; }));
    }
    for (std::size_t i = 0; i < ids.size(); i += 3) rt.cancel(ids[i]);
    rt.run_for(ilu::Duration{2500});
  }
  rt.run();
  for (auto id : ids) require(!rt.cancel(id), "stale cancel must return false");
  require(fired > 0 && rt.pending() == 0, "events drained");
}

// Multi-shard ping-pong: every shard keeps mailing its neighbour, driving
// the barrier/outbox machinery that TSan and the ownership auditor watch.
void smoke_sharded_runtime() {
  constexpr std::size_t kShards = 4;
  const ilu::Duration look{100};
  ilu::ShardedRuntime srt(kShards, look);
  std::vector<std::uint64_t> hops(kShards, 0);
  std::vector<std::uint64_t> seq(kShards, 0);

  // fn on shard `me`: count the hop and forward to the next shard.
  struct Hop {
    ilu::ShardedRuntime* srt;
    std::vector<std::uint64_t>* hops;
    std::vector<std::uint64_t>* seq;
    ilu::Duration look;
    void run(std::size_t me) const {
      ++(*hops)[me];
      if ((*hops)[me] >= 200) return;
      std::size_t next = (me + 1) % kShards;
      auto at = srt->shard(me).now() + look;
      auto tag = me * 1000000 + (*seq)[me]++;
      auto self = *this;
      srt->send(me, next, at, tag, [self, next] { self.run(next); });
    }
  };
  Hop hop{&srt, &hops, &seq, look};
  for (std::size_t s = 0; s < kShards; ++s) {
    auto at = srt.shard(s).now() + look;
    auto self = hop;
    srt.send(s, s, at, 900000 + s, [self, s] { self.run(s); });
  }
  srt.run();
  require(srt.idle(), "sharded run reached quiescence");
  std::uint64_t total = 0;
  for (auto h : hops) total += h;
  require(total >= 200, "ping-pong made progress");
  require(srt.messages() > 0, "cross-shard mail was delivered");
}

}  // namespace

int main() {
  smoke_sim_runtime();
  smoke_sharded_runtime();
  std::puts("engine_smoke: OK");
  return 0;
}
