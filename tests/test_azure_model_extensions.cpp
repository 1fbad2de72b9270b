// Tests for the Azure-model features added for fidelity: per-function
// activity windows (temporal locality), the per-function concurrency
// sanity cap, and the rare-sampler "always cold under TTL" property.

#include <gtest/gtest.h>

#include <algorithm>

#include "trace/azure.hpp"

namespace ilu {
namespace {

AzureModelConfig cfg_with(std::uint64_t seed) {
  AzureModelConfig cfg;
  cfg.population = 3000;
  cfg.days = 1.0;
  cfg.seed = seed;
  return cfg;
}

TEST(AzureActivity, WindowModulationHasUnitMean) {
  AzureTraceModel model(cfg_with(3));
  // For every function, integrating activity() over the day must give ~1
  // (the window boost is normalized against the inactive floor).
  for (std::size_t i = 0; i < 50; ++i) {
    const auto& m = model.population()[i];
    double sum = 0.0;
    for (int minute = 0; minute < 1440; ++minute) {
      sum += model.activity(m, minute);
    }
    EXPECT_NEAR(sum / 1440.0, 1.0, 0.02) << "function " << i;
  }
}

TEST(AzureActivity, InsideWindowBoostedOutsideSuppressed) {
  AzureTraceModel model(cfg_with(4));
  const auto& m = model.population()[0];
  double inside = model.activity(m, m.active_start_min + 0.5);
  double outside =
      model.activity(m, m.active_start_min + m.active_len_min + 1.0);
  if (m.active_len_min < 1439.0) {
    EXPECT_GT(inside, 1.0);
    EXPECT_NEAR(outside, model.config().inactive_weight, 1e-9);
  }
}

TEST(AzureActivity, WindowWrapsAroundMidnight) {
  AzureTraceModel model(cfg_with(5));
  AzureFunctionMeta m = model.population()[0];
  m.active_start_min = 1400.0;  // 23:20
  m.active_len_min = 120.0;     // through 01:20
  m.active_boost = 3.0;
  EXPECT_DOUBLE_EQ(model.activity(m, 1430.0), 3.0);  // 23:50 inside
  EXPECT_DOUBLE_EQ(model.activity(m, 30.0), 3.0);    // 00:30 inside (wrap)
  EXPECT_DOUBLE_EQ(model.activity(m, 300.0),
                   model.config().inactive_weight);  // 05:00 outside
}

TEST(AzureActivity, DisabledWindowsGiveFlatActivity) {
  AzureModelConfig cfg = cfg_with(6);
  cfg.active_window_median_min = 0.0;  // disable
  AzureTraceModel model(cfg);
  const auto& m = model.population()[0];
  for (int minute = 0; minute < 1440; minute += 97) {
    EXPECT_DOUBLE_EQ(model.activity(m, minute), 1.0);
  }
}

TEST(AzureActivity, TrafficConcentratesInWindows) {
  // Generated events for a rarely-invoked function should mostly fall in
  // its active window.
  AzureTraceModel model(cfg_with(7));
  // Pick a function with a few dozen daily invocations and a short window.
  std::size_t chosen = SIZE_MAX;
  for (std::size_t i = 0; i < model.population().size(); ++i) {
    const auto& m = model.population()[i];
    if (m.expected_invocations > 30 && m.expected_invocations < 200 &&
        m.active_len_min < 400) {
      chosen = i;
      break;
    }
  }
  ASSERT_NE(chosen, SIZE_MAX);
  auto trace = model.build_trace({chosen});
  const auto& m = model.population()[chosen];
  ASSERT_GT(trace.size(), 10u);
  std::size_t inside = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    double minute = to_sec(trace.at(i)) / 60.0;
    double off = minute - m.active_start_min;
    if (off < 0) off += 1440.0;
    if (off < m.active_len_min) ++inside;
  }
  EXPECT_GT(static_cast<double>(inside) / trace.size(), 0.5);
}

TEST(AzureConcurrencyCap, BoundsPerFunctionExpectedConcurrency) {
  AzureTraceModel model(cfg_with(8));
  double cap = model.config().max_expected_concurrency;
  for (const auto& m : model.population()) {
    EXPECT_LE(m.warm_s / m.mean_iat_s, cap + 1e-9);
  }
}

TEST(AzureConcurrencyCap, DisablingAllowsHotLongFunctions) {
  AzureModelConfig cfg = cfg_with(9);
  cfg.max_expected_concurrency = 0.0;  // off
  AzureTraceModel model(cfg);
  double worst = 0.0;
  for (const auto& m : model.population()) {
    worst = std::max(worst, m.warm_s / m.mean_iat_s);
  }
  // With a heavy-tailed population something exceeds the default cap.
  EXPECT_GT(worst, 30.0);
}

TEST(AzureRareSampler, PicksAlwaysColdUnderTtlFunctions) {
  AzureTraceModel model(cfg_with(10));
  auto trace = model.sample_rare(100);
  // Identify sampled population entries by matching the generated name.
  for (const auto& f : trace.functions) {
    auto idx = std::stoul(f.name.substr(std::string("azure_fn_").size()));
    const auto& m = model.population()[idx];
    EXPECT_GT(m.mean_iat_s, 600.0) << f.name;          // > 10-min TTL
    EXPECT_GE(m.expected_invocations, 2.0) << f.name;  // re-used
  }
}

TEST(AzureRareSampler, IsARandomSampleNotTheAbsoluteRarest) {
  AzureTraceModel model(cfg_with(11));
  auto trace = model.sample_rare(100);
  // If it were the absolute bottom-100, total invocations would be ~200;
  // a random rare sample has a spread of rates.
  auto stats = trace.stats();
  EXPECT_GT(stats.num_invocations, 300u);
}

}  // namespace
}  // namespace ilu
