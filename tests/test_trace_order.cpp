// Event-order pins: every trace generator's (at, fn) sequence is fixed by an
// FNV-1a checksum, so a change to how events are stored, packed or sorted
// cannot silently reorder a replay. Ties at the same microsecond must break
// by ascending function id, which is what the Azure and synthetic generators
// produce (many functions share each minute-bucket start).

#include <gtest/gtest.h>

#include <cstdint>

#include "trace/azure.hpp"
#include "trace/function_profile.hpp"
#include "trace/loadgen.hpp"
#include "util/hash.hpp"

namespace ilu {
namespace {

std::uint64_t order_hash(const Trace& t) {
  std::uint64_t h = kFnv1a64Basis;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const std::int64_t at = t.at(i).count();
    const std::uint32_t fn = t.fn(i);
    h = fnv1a64_bytes(&at, sizeof at, h);
    h = fnv1a64_bytes(&fn, sizeof fn, h);
  }
  return h;
}

/// Adjacent events at the same microsecond with different functions: the
/// ties whose order the pins are really about.
std::size_t tied_pairs(const Trace& t) {
  std::size_t n = 0;
  for (std::size_t i = 1; i < t.size(); ++i) {
    n += t.at(i) == t.at(i - 1) && t.fn(i) != t.fn(i - 1);
  }
  return n;
}

AzureModelConfig pin_config() {
  AzureModelConfig cfg;
  cfg.population = 3000;
  cfg.days = 0.1;
  cfg.seed = 41;
  return cfg;
}

void expect_pinned(const Trace& t, std::size_t events, std::uint64_t hash) {
  EXPECT_TRUE(t.valid());
  EXPECT_EQ(t.size(), events);
  EXPECT_EQ(order_hash(t), hash) << std::hex << order_hash(t);
}

TEST(TraceOrderPin, AzureSamplersAtNaturalRate) {
  AzureTraceModel model(pin_config());
  EXPECT_GT(tied_pairs(model.sample_representative(120)), 0u);
  expect_pinned(model.sample_rare(200), 786, 0x0ff61e8835f49bf2);
  expect_pinned(model.sample_representative(120), 140970,
                0x7f0916acc779aa3e);
  expect_pinned(model.sample_random(80), 14936, 0x08ab320b87108552);
}

TEST(TraceOrderPin, AzureSamplersAtTargetRate) {
  AzureTraceModel model(pin_config());
  expect_pinned(model.sample_rare(200, 5.0), 43638, 0x87735b1d32ca0fe5);
  expect_pinned(model.sample_representative(120, 20.0), 173112,
                0xae183c5e6f76634b);
  expect_pinned(model.sample_random(80, 10.0), 86468,
                0xc1a6c074a0ea2734);
}

std::vector<SyntheticFunctionSpec> pin_specs(bool exponential) {
  std::vector<SyntheticFunctionSpec> specs;
  const auto fns = function_bench();
  for (std::size_t i = 0; i < fns.size(); ++i) {
    specs.push_back({.profile = fns[i],
                     .mean_iat = msecs(40 + 15 * static_cast<double>(i)),
                     .exponential = exponential,
                     .phase = msecs(static_cast<double>(i % 3) * 5)});
  }
  return specs;
}

TEST(TraceOrderPin, SyntheticExponential) {
  expect_pinned(make_synthetic_trace(pin_specs(true), secs(20), 9), 1920,
                0xdba9e49897b2759e);
}

TEST(TraceOrderPin, SyntheticConstant) {
  // Constant spacing puts many functions on the same microsecond.
  const Trace t = make_synthetic_trace(pin_specs(false), secs(20), 9);
  EXPECT_GT(tied_pairs(t), 0u);
  expect_pinned(t, 1914, 0xa238b54b06c56771);
}

TEST(TraceOrderPin, Cyclic) {
  expect_pinned(make_cyclic_trace(function_bench(), msecs(70), secs(30)), 429,
                0x0551913d897ac1d8);
}

}  // namespace
}  // namespace ilu
