// perfbench: one workload of the repository benchmark per process.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--perturb-fingerprint] [--git-sha <sha>]
//
// --trace 0 measures the end-to-end metrics; --trace 1 is a separate,
// instrumented pass that reports the per-layer metrics. The last line of
// stdout is one JSON object {correct, attempted, failed, metrics}; the exit
// code is non-zero when any output check fails. Every result is stamped with
// a host manifest line before it.

#include <cstdio>
#include <cstring>
#include <thread>

#include "bench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "cluster_sharded|keepalive_sweep|live_serve "
               "--seed N --seconds S --trace 0|1 [--smoke] "
               "[--perturb-fingerprint] [--git-sha SHA]\n",
               msg);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunContext ctx;
  std::string git_sha = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      ctx.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      ctx.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      ctx.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      ctx.traced = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--git-sha" && has_value) {
      git_sha = argv[++i];
    } else if (a == "--smoke") {
      ctx.smoke = true;
    } else if (a == "--perturb-fingerprint") {
      ctx.perturb_fingerprint = true;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (!(ctx.seconds > 0.0)) return usage("--seconds must be positive");
  ctx.nproc = std::max(1u, std::thread::hardware_concurrency());

  Outcome o;
  if (ctx.workload == "cluster_sharded") {
    o = run_cluster(ctx);
  } else if (ctx.workload == "keepalive_sweep") {
    o = run_keepalive(ctx);
  } else if (ctx.workload == "live_serve") {
    o = run_live(ctx);
  } else {
    return usage(("unknown workload '" + ctx.workload + "'").c_str());
  }
  o.check(o.threads <= ctx.nproc, "workload used more threads than nproc");
  o.check(o.attempted > 0, "workload attempted no invocations");

  std::printf("manifest: workload=%s seed=%llu trace=%d nproc=%u threads=%u "
              "build=%s compiler=\"%s\" git=%s\n",
              ctx.workload.c_str(), static_cast<unsigned long long>(ctx.seed),
              ctx.traced ? 1 : 0, ctx.nproc, o.threads, PERFBENCH_BUILD_TYPE,
              __VERSION__, git_sha.c_str());
  for (const auto& line : o.info) std::printf("%s\n", line.c_str());
  for (const auto& v : o.violations) std::printf("CHECK FAILED: %s\n", v.c_str());

  // Only the metrics the workload measured: run.py reports a per-layer
  // metric of a layer the workload bypasses as 0.
  const std::vector<Metric>& out = o.metrics;
  for (const auto& m : out) {
    std::printf("metric %-36s %18.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }

  const bool correct = o.violations.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(o.attempted),
              static_cast<unsigned long long>(o.failed));
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", out[i].name.c_str(), out[i].value,
                out[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
