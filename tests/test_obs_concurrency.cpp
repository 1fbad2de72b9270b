// Concurrency hammer for the observability layer: 8 threads concurrently
// pounding the logger, the metrics registry, and the transaction tracer.
// Under -DILU_SANITIZE=thread this doubles as the TSan gate for the whole
// obs/ module; without a sanitizer it still validates that no update is
// lost and that shard merges see a consistent total.

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <thread>
#include <vector>

#include "iluvatar.hpp"

namespace ilu {
namespace {

constexpr int kThreads = 8;
constexpr int kIters = 20000;

TEST(ObsConcurrency, LoggerMetricsAndTracerUnderContention) {
  std::ostringstream captured;
  set_log_sink(&captured);
  LogLevel level_before = log_level();
  set_log_level(LogLevel::Warn);

  MetricsRegistry reg;
  TransactionTracer tracer;
  // Wire-time registration, hot-path updates through cached pointers — the
  // same discipline the worker uses.
  Counter* ops = reg.counter("hammer.ops");
  Gauge* level = reg.gauge("hammer.level");
  LogHistogram* lat = reg.log_histogram("hammer.lat_ms");

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kIters; ++i) {
        ops->inc();
        level->add(1);
        lat->observe(static_cast<double>(i % 40));
        TransactionId tx = tracer.begin_transaction();
        SpanId root = tracer.record(tx, "invoke", usecs(i), usecs(5));
        tracer.record(tx, "stage", usecs(i + 1), usecs(1), root);
        tracer.record_aggregate("agg_only", usecs(2));
        level->sub(1);
        // Concurrent registration of the same names must converge on the
        // same instruments (registry mutex path).
        if (i % 1000 == 0) {
          EXPECT_EQ(reg.counter("hammer.ops"), ops);
          log_warn("thread ", w, " at ", i);
        }
        // Concurrent snapshot/merge while other threads keep writing.
        if (w == 0 && i % 5000 == 0) {
          (void)reg.snapshot();
          (void)tracer.aggregate();
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  set_log_level(level_before);
  set_log_sink(nullptr);

  constexpr std::uint64_t kTotal =
      std::uint64_t(kThreads) * std::uint64_t(kIters);
  EXPECT_EQ(ops->value(), kTotal);
  EXPECT_EQ(level->value(), 0);
  EXPECT_EQ(lat->count(), kTotal);

  auto agg = tracer.aggregate();
  EXPECT_EQ(agg.at("invoke").count(), kTotal);
  EXPECT_EQ(agg.at("stage").count(), kTotal);
  EXPECT_EQ(agg.at("agg_only").count(), kTotal);

  // Record log is complete up to the shard caps (8 shards, default cap is
  // far above 2 * kIters records per shard, so nothing should drop).
  EXPECT_EQ(tracer.dropped_records(), 0u);
  EXPECT_EQ(tracer.collect().size(), 2 * kTotal);

  // Every captured log line arrived unsheared: "[WARN] thread <w> at <i>".
  std::istringstream lines(captured.str());
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    EXPECT_EQ(line.rfind("[WARN] thread ", 0), 0u) << line;
    ++n;
  }
  EXPECT_EQ(n, std::size_t(kThreads) * (kIters / 1000));
}

TEST(ObsConcurrency, ClearWhileRecording) {
  // Small shard cap: bounds the work each clear/collect races against, so
  // the test stays fast under TSan while still exercising the same paths.
  TransactionTracer tracer(/*enabled=*/true, /*max_records_per_shard=*/1024);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kThreads - 1; ++w) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        TransactionId tx = tracer.begin_transaction();
        tracer.record(tx, "x", usecs(0), usecs(1));
      }
    });
  }
  for (int i = 0; i < 50; ++i) {
    tracer.clear();
    (void)tracer.collect();
  }
  stop.store(true);
  for (auto& th : writers) th.join();
  tracer.clear();
  EXPECT_TRUE(tracer.collect().empty());
}

}  // namespace
}  // namespace ilu
