// Log-bucketed histograms (obs/metrics): bounded relative error across the
// µs→s range, deterministic shard-count-independent merge, exact overflow
// tracking, and registry snapshot/export plumbing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace ilu {
namespace {

double exact_percentile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  std::size_t idx = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(xs.size())));
  if (idx == 0) idx = 1;
  return xs[std::min(idx, xs.size()) - 1];
}

TEST(LogHistogram, EmptyIsZero) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(0.5), 0.0);
  EXPECT_EQ(h.observed_min(), 0.0);
  EXPECT_EQ(h.observed_max(), 0.0);
  EXPECT_FALSE(h.saturated());
}

TEST(LogHistogram, ResetReturnsToEmptyAndObservesAgain) {
  // The live-load harness reuses one stats block across sweep stages via
  // reset() between quiesced runs; a stale bucket or min/max would corrupt
  // every stage after the first.
  LogHistogram h;
  h.observe(0.5);
  h.observe(42.0);
  h.observe(4.0e5);  // overflow bucket too
  ASSERT_EQ(h.count(), 3u);
  ASSERT_EQ(h.overflow_count(), 1u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.overflow_count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.observed_min(), 0.0);
  EXPECT_DOUBLE_EQ(h.observed_max(), 0.0);
  // Fresh observations after reset behave exactly like a new histogram.
  h.observe(3.7);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 3.7);
  EXPECT_DOUBLE_EQ(h.observed_min(), 3.7);
  EXPECT_DOUBLE_EQ(h.observed_max(), 3.7);
}

TEST(LogHistogram, GeometryCoversConfiguredRange) {
  LogHistogram h;  // [1e-3, 1e5) ms, 32 subbuckets/octave
  EXPECT_EQ(h.subbuckets(), 32u);
  // log2(1e8) ≈ 26.6 → 27 octaves × 32 subbuckets.
  EXPECT_EQ(h.num_buckets(), 27u * 32u);
  EXPECT_GT(h.bucket_upper(h.num_buckets() - 1), 1e5 / 2);
}

/// The structural guarantee: any quantile upper bound is within one
/// subbucket (relative error ≤ 1/32) of the exact value, across five decades.
TEST(LogHistogram, BoundedRelativeErrorAcrossDecades) {
  LogHistogram h;
  std::vector<double> xs;
  Rng rng(42);
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform over [10 µs, 10 s] in ms units.
    double x = std::pow(10.0, rng.uniform(-2.0, 4.0));
    xs.push_back(x);
    h.observe(x);
  }
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    double exact = exact_percentile(xs, q);
    double approx = h.percentile(q);
    EXPECT_GE(approx, exact * (1.0 - 1e-9)) << "q=" << q;
    EXPECT_LE(approx, exact * (1.0 + 2.0 / 32.0)) << "q=" << q;
  }
  EXPECT_NEAR(h.observed_max(), *std::max_element(xs.begin(), xs.end()),
              1e-5);
  EXPECT_NEAR(h.observed_min(), *std::min_element(xs.begin(), xs.end()),
              1e-5);
}

TEST(LogHistogram, SingleValueIsExactViaObservedMax) {
  LogHistogram h;
  h.observe(3.7);
  // The percentile walk clamps to the exact observed max, so a single value
  // comes back exactly, not at a bucket edge.
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 3.7);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 3.7);
}

TEST(LogHistogram, UnderflowClampsToFirstBucket) {
  LogHistogram h;  // min 1e-3
  h.observe(1e-7);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_FALSE(h.saturated());
}

TEST(LogHistogram, OverflowIsTrackedExactly) {
  LogHistogram h;  // max 1e5
  h.observe(1.0);
  h.observe(2.5e5);
  h.observe(4.0e5);
  EXPECT_TRUE(h.saturated());
  EXPECT_EQ(h.overflow_count(), 2u);
  EXPECT_EQ(h.count(), 3u);
  // Tail quantiles land in the overflow region → the exact max, not a
  // bucket edge and not the range cap.
  EXPECT_DOUBLE_EQ(h.percentile(0.999), 4.0e5);
  EXPECT_DOUBLE_EQ(h.observed_max(), 4.0e5);
  // A quantile whose rank lands on the in-range value (rank ceil(0.3*3)=1)
  // is still served from the buckets.
  EXPECT_LE(h.percentile(0.3), 1.0 * (1.0 + 2.0 / 32.0));
}

/// Determinism contract: one stream split round-robin across k per-shard
/// histograms and merged must be bit-identical to the k=1 result, for any k
/// and any merge order.
TEST(LogHistogram, MergeIsShardCountInvariant) {
  std::vector<double> xs;
  Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    xs.push_back(std::pow(10.0, rng.uniform(-2.5, 4.5)));  // incl. overflow
  }
  LogHistogram reference;
  for (double x : xs) reference.observe(x);

  for (std::size_t k = 1; k <= 5; ++k) {
    std::vector<std::unique_ptr<LogHistogram>> shards;
    for (std::size_t s = 0; s < k; ++s) {
      shards.push_back(std::make_unique<LogHistogram>());
    }
    for (std::size_t i = 0; i < xs.size(); ++i) {
      shards[i % k]->observe(xs[i]);
    }
    LogHistogram merged;
    // Reverse order: the merge must be commutative.
    for (std::size_t s = k; s-- > 0;) {
      ASSERT_TRUE(merged.same_geometry(*shards[s]));
      merged.merge(*shards[s]);
    }
    EXPECT_EQ(merged.count(), reference.count()) << "k=" << k;
    EXPECT_EQ(merged.overflow_count(), reference.overflow_count());
    EXPECT_DOUBLE_EQ(merged.sum(), reference.sum()) << "k=" << k;
    EXPECT_DOUBLE_EQ(merged.observed_min(), reference.observed_min());
    EXPECT_DOUBLE_EQ(merged.observed_max(), reference.observed_max());
    for (double q : {0.5, 0.9, 0.99, 0.999}) {
      EXPECT_DOUBLE_EQ(merged.percentile(q), reference.percentile(q))
          << "k=" << k << " q=" << q;
    }
    for (std::size_t b = 0; b < merged.num_buckets(); ++b) {
      ASSERT_EQ(merged.bucket(b), reference.bucket(b)) << "bucket " << b;
    }
  }
}

// ---- registry + snapshot + export ----------------------------------------

TEST(MetricsRegistry, LogHistogramFindOrCreate) {
  MetricsRegistry reg;
  LogHistogram* a = reg.log_histogram("lat");
  LogHistogram* b = reg.log_histogram("lat", 1.0, 10.0);
  EXPECT_EQ(a, b) << "existing instrument (and its geometry) wins";
  a->observe(2.0);
  a->observe(5.0e5);  // overflow

  MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.log_histograms.count("lat"), 1u);
  const auto& d = snap.log_histograms.at("lat");
  EXPECT_EQ(d.count, 2u);
  EXPECT_TRUE(d.saturated);
  EXPECT_EQ(d.overflow_count, 1u);
  EXPECT_DOUBLE_EQ(d.max, 5.0e5);
  EXPECT_GT(d.p99, 0.0);
}

TEST(MetricsExport, JsonCarriesSaturationAndLogHistograms) {
  MetricsRegistry reg;
  LogHistogram* full = reg.log_histogram("full_ms", 1.0, 10.0);
  full->observe(99.0);  // past max_value: overflow
  LogHistogram* lh = reg.log_histogram("wait_ms");
  lh->observe(0.25);

  JsonValue doc = metrics_json(reg.snapshot());
  std::string text = doc.dump();
  JsonValue parsed = json_parse(text);

  const JsonValue* lhs = parsed.find("log_histograms");
  ASSERT_NE(lhs, nullptr);
  const JsonValue* fx = lhs->find("full_ms");
  ASSERT_NE(fx, nullptr);
  EXPECT_TRUE(fx->find("saturated")->as_bool());
  EXPECT_DOUBLE_EQ(fx->find("overflow_count")->as_number(), 1.0);
  EXPECT_DOUBLE_EQ(fx->find("max")->as_number(), 99.0);

  const JsonValue* w = lhs->find("wait_ms");
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->find("count")->as_number(), 1.0);
  EXPECT_FALSE(w->find("saturated")->as_bool());
  EXPECT_DOUBLE_EQ(w->find("p50")->as_number(), 0.25);
}

TEST(MetricsExport, CsvCarriesLogHistogramRows) {
  MetricsRegistry reg;
  reg.log_histogram("lat_ms")->observe(1.5);
  std::string path = ::testing::TempDir() + "metrics_loghist.csv";
  write_metrics_csv(reg.snapshot(), path);
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  std::string csv = ss.str();
  EXPECT_NE(csv.find("lat_ms"), std::string::npos);
  EXPECT_NE(csv.find("p99"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ilu
