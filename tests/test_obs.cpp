// Observability layer: transaction-scoped tracer (span trees, shard merge,
// record caps), metrics registry (counters/gauges/histograms, snapshots),
// exporters (Chrome trace JSON, metrics JSON/CSV), pluggable log sink, and
// the periodic status-line reporter.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "iluvatar.hpp"

namespace ilu {
namespace {

// ---------------------------------------------------------------- tracer --

TEST(TransactionTracer, AssignsUniqueTransactionIds) {
  TransactionTracer t;
  EXPECT_NE(t.begin_transaction(), t.begin_transaction());
  EXPECT_NE(t.begin_transaction(), 0u);
}

TEST(TransactionTracer, RecordsSpanWithParentLink) {
  TransactionTracer t;
  TransactionId tx = t.begin_transaction();
  SpanId root = t.record(tx, "invoke", usecs(0), usecs(100));
  SpanId child = t.record(tx, "dequeue", usecs(10), usecs(20), root);
  EXPECT_NE(root, kNoSpan);
  EXPECT_NE(child, kNoSpan);

  auto spans = t.collect();
  ASSERT_EQ(spans.size(), 2u);
  // collect() sorts by start time: root first.
  EXPECT_EQ(spans[0].name, "invoke");
  EXPECT_EQ(spans[0].parent, kNoSpan);
  EXPECT_EQ(spans[1].name, "dequeue");
  EXPECT_EQ(spans[1].parent, root);
  EXPECT_EQ(spans[1].tx, tx);
}

TEST(TransactionTracer, DisabledTracerRecordsNothing) {
  TransactionTracer t(/*enabled=*/false);
  TransactionId tx = t.begin_transaction();
  EXPECT_EQ(t.record(tx, "invoke", usecs(0), usecs(1)), kNoSpan);
  t.record_aggregate("invoke", usecs(1));
  EXPECT_TRUE(t.collect().empty());
  EXPECT_TRUE(t.aggregate().empty());
}

TEST(TransactionTracer, ShardCapCountsDroppedRecords) {
  TransactionTracer t(/*enabled=*/true, /*max_records=*/4);
  TransactionId tx = t.begin_transaction();
  for (int i = 0; i < 10; ++i) t.record(tx, "s", usecs(i), usecs(1));
  EXPECT_EQ(t.collect().size(), 4u);
  EXPECT_EQ(t.dropped_records(), 6u);
  // The aggregate view is not subject to the cap.
  auto agg = t.aggregate();
  ASSERT_TRUE(agg.count("s"));
  EXPECT_EQ(agg.at("s").count(), 10u);
  // clear() restarts the cap's count.
  t.clear();
  t.record(tx, "s", usecs(0), usecs(1));
  EXPECT_EQ(t.collect().size(), 1u);
  EXPECT_EQ(t.dropped_records(), 0u);
}

TEST(TransactionTracer, RecordCapHoldsAcrossShortLivedThreads) {
  // A ShardedRuntime starts fresh threads on every run_until call, and each
  // new thread gets a fresh shard: the cap must bound the tracer, not the
  // shard, and keep the first records offered.
  constexpr std::size_t kCap = 100;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 40;
  TransactionTracer t(/*enabled=*/true, kCap);
  for (std::size_t w = 0; w < kThreads; ++w) {
    std::thread([&t] {
      TransactionId tx = t.begin_transaction();
      for (std::size_t i = 0; i < kPerThread; ++i) {
        t.record(tx, "s", usecs(static_cast<std::int64_t>(i)), usecs(1));
      }
    }).join();
  }
  auto spans = t.collect();
  ASSERT_EQ(spans.size(), kCap);
  EXPECT_EQ(t.dropped_records(), kThreads * kPerThread - kCap);
  SpanId max_id = kNoSpan;
  for (const auto& s : spans) max_id = std::max(max_id, s.id);
  EXPECT_EQ(max_id, kCap);
  EXPECT_EQ(t.aggregate().at("s").count(), kThreads * kPerThread);
}

TEST(TransactionTracer, RecordNamesOutliveTracerAndCallerBuffer) {
  std::vector<SpanRecord> kept;
  {
    TransactionTracer t;
    char buf[] = "alpha_stage";
    t.record(t.begin_transaction(), buf, usecs(0), usecs(1));
    // Same buffer, new content: the per-thread name cache must not alias.
    std::memcpy(buf, "omega", sizeof("omega"));
    t.record(t.begin_transaction(), buf, usecs(1), usecs(3));
    auto agg = t.aggregate();
    EXPECT_EQ(agg.at("alpha_stage").count(), 1u);
    EXPECT_EQ(agg.at("omega").count(), 1u);
    EXPECT_DOUBLE_EQ(agg.at("omega").mean(), 0.003);
    kept = t.collect();
  }
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].name, "alpha_stage");
  EXPECT_EQ(kept[1].name, "omega");
}

TEST(TransactionTracer, ClearResetsRecordsAndAggregates) {
  TransactionTracer t;
  TransactionId tx = t.begin_transaction();
  t.record(tx, "a", usecs(0), usecs(5));
  t.record_aggregate("b", usecs(5));
  t.clear();
  EXPECT_TRUE(t.collect().empty());
  EXPECT_TRUE(t.aggregate().empty());
  EXPECT_EQ(t.dropped_records(), 0u);
  // Ids keep advancing after a clear.
  EXPECT_NE(t.record(tx, "a", usecs(0), usecs(5)), kNoSpan);
}

TEST(ScopedSpan, NestedScopesFormParentChildTree) {
  SimRuntime rt;
  TransactionTracer t;
  TransactionId tx = t.begin_transaction();
  SpanId outer_id, inner_id;
  {
    ScopedSpan outer(t, rt, tx, "outer");
    outer_id = outer.id();
    rt.run_for(msecs(3));
    {
      ScopedSpan inner(t, rt, tx, "inner");
      inner_id = inner.id();
      rt.run_for(msecs(1));
    }
    rt.run_for(msecs(2));
  }
  auto spans = t.collect();
  ASSERT_EQ(spans.size(), 2u);
  std::map<std::string_view, SpanRecord> by_name;
  for (auto& s : spans) by_name[s.name] = s;
  EXPECT_EQ(by_name.at("outer").id, outer_id);
  EXPECT_EQ(by_name.at("outer").parent, kNoSpan);
  EXPECT_EQ(by_name.at("inner").id, inner_id);
  EXPECT_EQ(by_name.at("inner").parent, outer_id);
  // Inner span is contained within the outer span's interval.
  EXPECT_GE(by_name.at("inner").start, by_name.at("outer").start);
  EXPECT_LE(by_name.at("inner").start + by_name.at("inner").dur,
            by_name.at("outer").start + by_name.at("outer").dur);
  EXPECT_EQ(by_name.at("outer").dur, msecs(6));
  EXPECT_EQ(by_name.at("inner").dur, msecs(1));
}

TEST(TransactionTracer, SpanTreeIntegrityUnderConcurrentRecording) {
  constexpr int kThreads = 8;
  constexpr int kTxPerThread = 200;
  constexpr int kChildrenPerTx = 3;
  TransactionTracer t;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&t] {
      for (int i = 0; i < kTxPerThread; ++i) {
        TransactionId tx = t.begin_transaction();
        SpanId root = t.record(tx, "invoke", usecs(0), usecs(10));
        for (int c = 0; c < kChildrenPerTx; ++c) {
          t.record(tx, "stage", usecs(1 + c), usecs(1), root);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  auto spans = t.collect();
  ASSERT_EQ(spans.size(),
            std::size_t(kThreads) * kTxPerThread * (1 + kChildrenPerTx));

  // Span ids are globally unique across shards.
  std::vector<SpanId> ids;
  ids.reserve(spans.size());
  for (auto& s : spans) ids.push_back(s.id);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());

  // Every transaction forms a proper tree: exactly one root, every child's
  // parent is that root, and no span leaks into another transaction.
  std::map<TransactionId, std::vector<const SpanRecord*>> by_tx;
  for (auto& s : spans) by_tx[s.tx].push_back(&s);
  ASSERT_EQ(by_tx.size(), std::size_t(kThreads) * kTxPerThread);
  for (auto& [tx, group] : by_tx) {
    ASSERT_EQ(group.size(), std::size_t(1 + kChildrenPerTx));
    SpanId root = kNoSpan;
    for (auto* s : group) {
      if (s->parent == kNoSpan) {
        EXPECT_EQ(root, kNoSpan) << "two roots in tx " << tx;
        root = s->id;
      }
    }
    ASSERT_NE(root, kNoSpan);
    for (auto* s : group) {
      if (s->id != root) {
        EXPECT_EQ(s->parent, root);
      }
    }
  }

  // The merged aggregate agrees with the record counts.
  auto agg = t.aggregate();
  EXPECT_EQ(agg.at("invoke").count(), std::size_t(kThreads) * kTxPerThread);
  EXPECT_EQ(agg.at("stage").count(),
            std::size_t(kThreads) * kTxPerThread * kChildrenPerTx);
}

// --------------------------------------------------------------- metrics --

TEST(Metrics, CounterAndGaugeBasics) {
  Counter c;
  c.inc();
  c.inc(4);
  EXPECT_EQ(c.value(), 5u);
  Gauge g;
  g.set(7);
  g.add(3);
  g.sub(12);
  EXPECT_EQ(g.value(), -2);
}

TEST(Metrics, RegistryFindOrCreateReturnsStablePointers) {
  MetricsRegistry reg;
  Counter* c1 = reg.counter("x");
  Counter* c2 = reg.counter("x");
  EXPECT_EQ(c1, c2);
  LogHistogram* h1 = reg.log_histogram("h", 1.0, 100.0);
  LogHistogram* h2 = reg.log_histogram("h", 5.0, 7.0);  // existing wins
  EXPECT_EQ(h1, h2);
  EXPECT_DOUBLE_EQ(h2->min_value(), 1.0);
}

TEST(Metrics, SnapshotJsonRoundTrip) {
  MetricsRegistry reg;
  reg.counter("invocations")->inc(42);
  reg.gauge("inflight")->set(-3);
  LogHistogram* h = reg.log_histogram("wait_ms");
  h->observe(1.0);
  h->observe(3.0);
  h->observe(100.0);

  MetricsSnapshot snap = reg.snapshot();
  JsonValue parsed = json_parse(metrics_json(snap).dump());

  EXPECT_DOUBLE_EQ(
      parsed.find("counters")->find("invocations")->as_number(), 42.0);
  EXPECT_DOUBLE_EQ(parsed.find("gauges")->find("inflight")->as_number(),
                   -3.0);
  const JsonValue* hist = parsed.find("log_histograms")->find("wait_ms");
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->find("count")->as_number(), 3.0);
  EXPECT_DOUBLE_EQ(hist->find("min")->as_number(), 1.0);
  EXPECT_DOUBLE_EQ(hist->find("max")->as_number(), 100.0);
  EXPECT_NEAR(hist->find("sum")->as_number(), 104.0, 1e-4);
}

TEST(Metrics, CsvExportWrites) {
  MetricsRegistry reg;
  reg.counter("c")->inc(2);
  reg.gauge("g")->set(5);
  reg.log_histogram("h")->observe(0.5);
  std::string path = testing::TempDir() + "/obs_metrics.csv";
  write_metrics_csv(reg.snapshot(), path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_NE(all.find("counter"), std::string::npos);
  EXPECT_NE(all.find("gauge"), std::string::npos);
  EXPECT_NE(all.find("log_histogram"), std::string::npos);
}

// ------------------------------------------------------------- exporters --

TEST(ChromeTrace, GoldenDocumentShape) {
  TransactionTracer t;
  TransactionId tx = t.begin_transaction();
  SpanId root = t.record(tx, "invoke", usecs(100), usecs(50));
  t.record(tx, "dequeue", usecs(110), usecs(10), root);
  TransactionId tx2 = t.begin_transaction();
  t.record(tx2, "invoke", usecs(500), usecs(40));

  JsonValue doc = json_parse(chrome_trace_json(t.collect(), /*pid=*/7));
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  const JsonArray& arr = events->as_array();
  ASSERT_EQ(arr.size(), 3u);

  double prev_ts = -1.0;
  for (const JsonValue& e : arr) {
    // Perfetto-required fields on every complete event.
    EXPECT_EQ(e.find("ph")->as_string(), "X");
    ASSERT_NE(e.find("name"), nullptr);
    ASSERT_NE(e.find("cat"), nullptr);
    ASSERT_NE(e.find("pid"), nullptr);
    ASSERT_NE(e.find("tid"), nullptr);
    EXPECT_DOUBLE_EQ(e.find("pid")->as_number(), 7.0);
    double ts = e.find("ts")->as_number();
    double dur = e.find("dur")->as_number();
    EXPECT_GE(ts, prev_ts) << "ts must be monotonic non-decreasing";
    EXPECT_GE(dur, 0.0);
    prev_ts = ts;
  }
  EXPECT_DOUBLE_EQ(arr[0].find("ts")->as_number(), 100.0);
  EXPECT_DOUBLE_EQ(arr[0].find("dur")->as_number(), 50.0);
}

TEST(ChromeTrace, WriteAndReparseFile) {
  TransactionTracer t;
  TransactionId tx = t.begin_transaction();
  t.record(tx, "invoke", usecs(1), usecs(2));
  std::string path = testing::TempDir() + "/obs_trace.json";
  write_chrome_trace(t.collect(), path);
  JsonValue doc = json_parse_file(path);
  EXPECT_EQ(doc.find("traceEvents")->as_array().size(), 1u);
}

// ------------------------------------------------------------------- log --

TEST(Log, PluggableSinkCapturesAndRestores) {
  std::ostringstream oss;
  set_log_sink(&oss);
  LogLevel before = log_level();
  set_log_level(LogLevel::Info);
  log_info("hello ", 42);
  log_debug("invisible at info level");
  set_log_level(before);
  set_log_sink(nullptr);
  EXPECT_NE(oss.str().find("[INFO] hello 42"), std::string::npos);
  EXPECT_EQ(oss.str().find("invisible"), std::string::npos);
}

// -------------------------------------------------------- status reporter --

TEST(StatusLineReporter, EmitsPeriodicallyUnderSimTime) {
  SimRuntime rt;
  std::ostringstream oss;
  int calls = 0;
  StatusLineReporter rep(
      rt, secs(1), [&] { return "tick " + std::to_string(++calls); }, &oss);
  rep.start();
  rt.run_for(secs(5) + msecs(1));
  rep.stop();
  rt.run_for(secs(5));  // no further emissions after stop
  EXPECT_EQ(rep.emitted(), 5u);
  EXPECT_NE(oss.str().find("tick 1"), std::string::npos);
  EXPECT_NE(oss.str().find("tick 5"), std::string::npos);
  EXPECT_EQ(oss.str().find("tick 6"), std::string::npos);
}

// --------------------------------------------------- worker integration --

TEST(WorkerObservability, InvocationsBuildSpanTreesAndMetrics) {
  SimRuntime rt;
  WorkerConfig cfg;
  Worker w(rt, cfg);
  auto fn = w.register_function(FunctionProfile{
      .name = "f", .mem_mb = 128, .warm_time = msecs(10),
      .init_time = msecs(100)});
  w.start();
  int done = 0;
  std::function<void(int)> chain = [&](int remaining) {
    if (remaining == 0) return;
    w.invoke(fn, [&, remaining](const InvokeResult& r) {
      EXPECT_TRUE(r.success);
      ++done;
      chain(remaining - 1);
    });
  };
  chain(3);
  while (done < 3) rt.run_for(secs(1));
  w.shutdown();

  // Every span belongs to a transaction and each transaction has one root.
  auto spans = w.tracer().spans();
  ASSERT_FALSE(spans.empty());
  std::map<TransactionId, int> roots;
  for (const auto& s : spans) {
    EXPECT_NE(s.tx, 0u);
    if (s.parent == kNoSpan) ++roots[s.tx];
  }
  ASSERT_EQ(roots.size(), 3u);
  for (auto& [tx, n] : roots) EXPECT_EQ(n, 1) << "tx " << tx;

  // Metrics agree with the worker's own counters.
  auto snap = w.metrics().snapshot();
  EXPECT_EQ(snap.counters.at("worker.invocations"), 3u);
  EXPECT_EQ(snap.counters.at("worker.completed"), 3u);
  EXPECT_EQ(snap.counters.at("worker.cold_starts"), 1u);
  EXPECT_EQ(snap.counters.at("worker.warm_starts"), 2u);
  EXPECT_EQ(snap.gauges.at("worker.inflight"), 0);
  EXPECT_EQ(snap.log_histograms.at("worker.overhead_ms").count, 3u);
}

}  // namespace
}  // namespace ilu
