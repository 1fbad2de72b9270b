// Trace inspection and replay CLI for ilu-arena-v1 trace files (written by
// tools/trace_gen).
//
//   ./trace_tool info       <arena-file>
//   ./trace_tool replay     <arena-file> [--trace-out <file>]
//                                        [--flight-out <file>]
//   ./trace_tool tab1       <dump.json>
//   ./trace_tool flightdump <dump.bin> [--out <chrome.json>]
//
// `info` prints statistics of an arena and integrity-checks it; `replay`
// runs it, straight from the mmap'd key column, through a simulated worker
// and can dump the transaction-scoped span trees as a Chrome trace and the
// flight recorder's binary event rings; `tab1` recomputes the Table 1
// per-component latency view from such a dump; `flightdump` decodes a
// binary flight dump (from `replay --flight-out` or a crash) into a
// per-ring summary and optionally Chrome trace-event JSON.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>

#include "iluvatar.hpp"

using namespace ilu;

namespace {

int cmd_info(char** argv) {
  ArenaFile f(argv[2]);
  // The strict open checks the header and function table only; check the
  // key column before reading any key by function id.
  f.verify();
  auto s = trace_stats(f.functions(), f.view(), f.duration());
  std::printf("trace %s (ilu-arena-v1)\n", argv[2]);
  std::printf("  functions:       %zu\n", s.num_functions);
  std::printf("  invocations:     %zu\n", s.num_invocations);
  std::printf("  duration:        %.2f h\n", to_sec(f.duration()) / 3600.0);
  std::printf("  request rate:    %.2f /s\n", s.reqs_per_sec);
  std::printf("  avg IAT:         %.2f ms\n", to_ms(s.avg_iat));
  std::printf("  Little's-law expected concurrency: %.2f\n",
              s.expected_concurrency);
  std::printf("  file size:       %.1f MB (keys mmap'd)\n",
              static_cast<double>(f.file_bytes()) / 1e6);
  // Top-5 functions by invocation count.
  const std::vector<std::size_t>& counts = s.invocations_by_function;
  std::vector<std::size_t> idx(counts.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::sort(idx.begin(), idx.end(),
            [&](std::size_t a, std::size_t b) { return counts[a] > counts[b]; });
  std::printf("  top functions:\n");
  for (std::size_t i = 0; i < std::min<std::size_t>(5, idx.size()); ++i) {
    const auto& p = f.functions()[idx[i]];
    std::printf("    %-24s %8zu invocations, %u MB, warm %.0f ms, init %.0f ms\n",
                p.name.c_str(), counts[idx[i]], p.mem_mb, to_ms(p.warm_time),
                to_ms(p.init_time));
  }
  std::printf("  integrity:       OK (keys sorted, fns bounded, checksums "
              "match)\n");
  return 0;
}

int cmd_replay(int argc, char** argv) {
  std::string trace_out;
  std::string flight_out;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace-out") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--trace-out requires a file argument\n");
        return 2;
      }
      trace_out = argv[++i];
    } else if (std::strcmp(argv[i], "--flight-out") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--flight-out requires a file argument\n");
        return 2;
      }
      flight_out = argv[++i];
    } else {
      std::fprintf(stderr, "unknown replay option: %s\n", argv[i]);
      return 2;
    }
  }
  // Drop whatever earlier commands in this process recorded, so the dump
  // covers exactly this replay.
  flight::Recorder::instance().clear();

  ArenaFile f(argv[2]);
  f.verify();  // the key column is outside input: check it before replay
  SimRuntime rt;
  WorkerConfig cfg;
  cfg.cores = 48.0;
  cfg.memory_mb = 32 * 1024;
  Worker w(rt, cfg);
  std::vector<std::string> names;
  for (const auto& p : f.functions()) {
    w.register_function(p);
    names.push_back(p.name);
  }
  w.start();

  OpenLoopDriver driver(rt, [&w](FunctionId fn,
                                 std::function<void(const InvokeResult&)> cb) {
    w.invoke(fn, std::move(cb));
  });
  driver.start(f.view());
  TimePoint deadline = rt.now() + f.duration() + mins(5);
  while (!driver.done() && rt.now() < deadline) rt.run_for(secs(5));
  w.shutdown();

  ExperimentReport report(names);
  report.add_all(driver.results());
  std::printf("%s", report.format().c_str());

  if (!trace_out.empty()) {
    auto spans = w.tracer().spans();
    write_chrome_trace(spans, trace_out);
    std::uint64_t dropped = w.tracer().tx().dropped_records();
    std::printf("\nwrote %zu spans to %s (Chrome trace format)%s\n",
                spans.size(), trace_out.c_str(),
                dropped ? " — record cap reached, tail truncated" : "");
  }
  if (!flight_out.empty()) {
    const auto& rec = flight::Recorder::instance();
    if (!rec.dump_to_file(flight_out)) {
      std::fprintf(stderr, "error: could not write %s\n", flight_out.c_str());
      return 1;
    }
    std::printf("wrote flight dump: %llu events on %zu ring(s) to %s\n",
                static_cast<unsigned long long>(rec.recorded()),
                rec.ring_count(), flight_out.c_str());
  }
  return 0;
}

/// Decode a binary flight dump: per-ring summary + per-event-code counts,
/// optionally converted to Chrome trace-event JSON (chrome://tracing,
/// Perfetto).
int cmd_flightdump(int argc, char** argv) {
  std::string out_path;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--out requires a file argument\n");
        return 2;
      }
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "unknown flightdump option: %s\n", argv[i]);
      return 2;
    }
  }

  auto rings = flight::read_dump(argv[2]);
  std::printf("flight dump %s: %zu ring(s)\n", argv[2], rings.size());
  std::map<std::string, std::size_t> by_code;
  for (const auto& r : rings) {
    std::uint64_t lo = r.events.empty() ? 0 : r.events.front().ts_us;
    std::uint64_t hi = r.events.empty() ? 0 : r.events.back().ts_us;
    std::printf(
        "  ring %2u: %6zu event(s) kept of %8llu recorded, ts %llu..%llu us\n",
        r.tid, r.events.size(), static_cast<unsigned long long>(r.recorded),
        static_cast<unsigned long long>(lo),
        static_cast<unsigned long long>(hi));
    for (const auto& e : r.events) {
      ++by_code[flight::ev_name(static_cast<flight::Ev>(e.code))];
    }
  }
  std::printf("  events by code:\n");
  for (const auto& [name, n] : by_code) {
    std::printf("    %-18s %8zu\n", name.c_str(), n);
  }
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << flight::chrome_trace_json(rings);
    out << "\n";
    if (!out) {
      std::fprintf(stderr, "error: could not write %s\n", out_path.c_str());
      return 1;
    }
    std::printf("wrote Chrome trace JSON to %s\n", out_path.c_str());
  }
  return 0;
}

/// Regenerate the Table 1 view (mean latency per control-plane component)
/// from a Chrome trace dump written by `replay --trace-out`,
/// bench/tab1_components, or insitu_simulation.
int cmd_tab1(char** argv) {
  JsonValue doc = json_parse_file(argv[2]);
  const JsonValue* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    std::fprintf(stderr, "%s: no traceEvents array\n", argv[2]);
    return 1;
  }
  std::map<std::string, SpanStats> by_name;
  for (const JsonValue& e : events->as_array()) {
    const JsonValue* name = e.find("name");
    const JsonValue* dur = e.find("dur");
    if (name == nullptr || dur == nullptr) continue;
    by_name[name->as_string()].add(dur->as_number() / 1000.0);  // us -> ms
  }

  struct Row {
    const char* group;
    const char* span;
  };
  const Row rows[] = {
      {"Ingestion & Queuing", spans::kInvoke},
      {"Ingestion & Queuing", spans::kSyncInvoke},
      {"Ingestion & Queuing", spans::kEnqueueInvocation},
      {"Ingestion & Queuing", spans::kAddItemToQ},
      {"Container Operations", spans::kSpawnWorker},
      {"Container Operations", spans::kDequeue},
      {"Container Operations", spans::kAcquireContainer},
      {"Container Operations", spans::kTryLockContainer},
      {"Agent Communication", spans::kPrepareInvoke},
      {"Agent Communication", spans::kCallContainer},
      {"Agent Communication", spans::kDownloadResult},
      {"Returning", spans::kReturnContainer},
      {"Returning", spans::kReturnResults},
  };
  std::printf("Table 1 from %s\n", argv[2]);
  std::printf("%-22s %-20s %12s %10s\n", "Group", "Function", "mean ms",
              "count");
  double total = 0.0;
  for (const auto& r : rows) {
    auto it = by_name.find(r.span);
    if (it == by_name.end()) continue;
    total += it->second.mean();
    std::printf("%-22s %-20s %12.3f %10zu\n", r.group, r.span,
                it->second.mean(), it->second.count());
  }
  std::printf("%-22s %-20s %12.3f\n", "TOTAL", "", total);
  // Spans in the dump that are not Table 1 rows (e.g. from other layers).
  for (const auto& [name, s] : by_name) {
    bool known = false;
    for (const auto& r : rows) known = known || name == r.span;
    if (!known) {
      std::printf("%-22s %-20s %12.3f %10zu\n", "(other)", name.c_str(),
                  s.mean(), s.count());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  if (argc >= 3 && std::strcmp(argv[1], "info") == 0) return cmd_info(argv);
  if (argc >= 3 && std::strcmp(argv[1], "replay") == 0)
    return cmd_replay(argc, argv);
  if (argc >= 3 && std::strcmp(argv[1], "tab1") == 0) return cmd_tab1(argv);
  if (argc >= 3 && std::strcmp(argv[1], "flightdump") == 0)
    return cmd_flightdump(argc, argv);
  std::fprintf(stderr,
               "usage:\n  %s info <arena-file>\n  %s replay <arena-file> "
               "[--trace-out <file>] [--flight-out <file>]\n  %s tab1 "
               "<dump.json>\n  %s flightdump <dump.bin> [--out <chrome.json>]\n",
               argv[0], argv[0], argv[0], argv[0]);
  return 2;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
