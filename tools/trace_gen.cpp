// Standalone generator for ilu-arena-v1 on-disk trace arenas.
//
//   ./trace_gen --out day.arena --functions 1000000 --target-events 1e8
//
// Synthesizes an Azure-model workload straight to disk in bounded memory:
// functions are generated in chunks (packed keys, sorted in RAM, spilled to
// temp files) and k-way merged into the final arena, so a million-function,
// 10^8-invocation day — ~800 MB of keys — generates with a peak RSS of a
// few hundred MB regardless of trace size. The output replays through
// ArenaFile/OpenLoopDriver without ever materializing the event stream
// (bench/trace_replay_scale.cpp, EXPERIMENTS.md).
//
// Options:
//   --out <path>           output arena file (required)
//   --functions <n>        functions in the trace (default 1000)
//   --population <n>       modeled population (default max(functions, 50000))
//   --sample <kind>        all|rep|rare|random (default all = first n indices)
//   --days <d>             trace length in days (default 1)
//   --target-events <e>    scale rates so the expected event count is e
//   --target-rps <r>       alternative: target request rate (events/s)
//   --seed <s>             model seed (default the model's)
//   --chunk-functions <n>  functions per in-RAM generation chunk (8192)
//   --tmp-dir <dir>        directory for temp chunk files (default: with out)
//   --verify               re-open and fully verify the written arena

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <string>

#include "iluvatar.hpp"

using namespace ilu;

namespace {

long peak_rss_kb() {
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --out <file> [--functions n] [--population n] "
               "[--sample all|rep|rare|random] [--days d] "
               "[--target-events e | --target-rps r] [--seed s] "
               "[--chunk-functions n] [--tmp-dir dir] [--verify]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) try {
  std::string out_path;
  std::size_t functions = 1000;
  std::size_t population = 0;
  std::string sample = "all";
  double days = 1.0;
  double target_events = 0.0;
  double target_rps = 0.0;
  std::uint64_t seed = AzureModelConfig{}.seed;
  ArenaGenConfig gen_cfg;
  bool verify = false;

  for (int i = 1; i < argc; ++i) {
    auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires an argument\n", flag);
        usage(argv[0]);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--out") == 0) {
      out_path = need("--out");
    } else if (std::strcmp(argv[i], "--functions") == 0) {
      functions = std::strtoull(need("--functions"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--population") == 0) {
      population = std::strtoull(need("--population"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--sample") == 0) {
      sample = need("--sample");
    } else if (std::strcmp(argv[i], "--days") == 0) {
      days = std::strtod(need("--days"), nullptr);
    } else if (std::strcmp(argv[i], "--target-events") == 0) {
      target_events = std::strtod(need("--target-events"), nullptr);
    } else if (std::strcmp(argv[i], "--target-rps") == 0) {
      target_rps = std::strtod(need("--target-rps"), nullptr);
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = std::strtoull(need("--seed"), nullptr, 0);
    } else if (std::strcmp(argv[i], "--chunk-functions") == 0) {
      gen_cfg.chunk_functions = std::strtoull(need("--chunk-functions"),
                                              nullptr, 10);
    } else if (std::strcmp(argv[i], "--tmp-dir") == 0) {
      gen_cfg.tmp_dir = need("--tmp-dir");
    } else if (std::strcmp(argv[i], "--verify") == 0) {
      verify = true;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", argv[i]);
      usage(argv[0]);
    }
  }
  if (out_path.empty() || functions == 0 || days <= 0.0) usage(argv[0]);
  if (functions > Trace::kMaxFn + 1) {
    std::fprintf(stderr, "--functions %zu exceeds the packed-key limit %llu\n",
                 functions,
                 static_cast<unsigned long long>(Trace::kMaxFn + 1));
    return 2;
  }

  AzureModelConfig cfg;
  cfg.population = population != 0 ? population
                                   : std::max<std::size_t>(functions, 50000);
  cfg.days = days;
  cfg.seed = seed;
  if (functions > cfg.population) {
    std::fprintf(stderr, "--functions %zu exceeds --population %zu\n",
                 functions, cfg.population);
    return 2;
  }

  std::fprintf(stderr, "building model: population %zu, %.3g day(s)...\n",
               cfg.population, days);
  AzureTraceModel model(cfg);

  std::vector<std::size_t> indices;
  if (sample == "all") {
    indices.resize(functions);
    std::iota(indices.begin(), indices.end(), 0);
  } else if (sample == "rep") {
    indices = model.pick_representative(functions);
  } else if (sample == "rare") {
    indices = model.pick_rare(functions);
  } else if (sample == "random") {
    indices = model.pick_random(functions);
  } else {
    std::fprintf(stderr, "unknown sample kind: %s (all|rep|rare|random)\n",
                 sample.c_str());
    return 2;
  }

  if (target_rps > 0.0) target_events = target_rps * days * 86400.0;
  double rate_scale =
      target_events > 0.0
          ? rate_scale_for_target_events(model, indices, target_events)
          : 1.0;

  gen_cfg.progress = [&](std::size_t done, std::uint64_t events) {
    std::fprintf(stderr, "  generated %zu/%zu functions, %llu events\r",
                 done, indices.size(),
                 static_cast<unsigned long long>(events));
  };

  auto t0 = std::chrono::steady_clock::now();
  ArenaGenStats stats =
      generate_arena_file(model, indices, rate_scale, out_path, gen_cfg);
  auto t1 = std::chrono::steady_clock::now();
  double gen_s = std::chrono::duration<double>(t1 - t0).count();
  std::fprintf(stderr, "\n");

  std::printf("wrote %s (ilu-arena-v1)\n", out_path.c_str());
  std::printf("  functions:     %zu\n", stats.functions);
  std::printf("  events:        %llu\n",
              static_cast<unsigned long long>(stats.events));
  std::printf("  rate_scale:    %.6g\n", rate_scale);
  std::printf("  chunks:        %zu\n", stats.chunks);
  std::printf("  file size:     %.1f MB\n",
              static_cast<double>(stats.file_bytes) / 1e6);
  std::printf("  gen time:      %.2f s (%.3g events/s)\n", gen_s,
              gen_s > 0.0 ? static_cast<double>(stats.events) / gen_s : 0.0);
  std::printf("  peak RSS:      %.1f MB\n",
              static_cast<double>(peak_rss_kb()) / 1024.0);

  if (verify) {
    auto v0 = std::chrono::steady_clock::now();
    ArenaFile f(out_path);
    f.verify();
    auto v1 = std::chrono::steady_clock::now();
    std::printf("  verify:        OK (%.2f s)\n",
                std::chrono::duration<double>(v1 - v0).count());
  }
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
