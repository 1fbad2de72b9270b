#include "trace/azure_csv.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "util/csv.hpp"

namespace ilu {

namespace {

struct DurationRow {
  double avg_ms = 0.0;
  double max_ms = 0.0;
};

std::size_t find_column(const std::vector<std::string>& header,
                        const std::string& name) {
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (header[i] == name) return i;
  }
  throw std::runtime_error("azure csv: missing column " + name);
}

double clampd(double v, double lo, double hi) {
  return std::min(std::max(v, lo), hi);
}

}  // namespace

Trace load_azure_dataset(const std::string& invocations_csv,
                         const std::string& durations_csv,
                         const std::string& memory_csv,
                         const AzureCsvOptions& opts) {
  // Pass 1: per-function durations.
  std::unordered_map<std::string, DurationRow> durations;
  {
    CsvReader r(durations_csv);
    std::vector<std::string> row;
    if (!r.next(row)) throw std::runtime_error("empty durations csv");
    std::size_t fn_col = find_column(row, "HashFunction");
    std::size_t avg_col = find_column(row, "Average");
    std::size_t max_col = find_column(row, "Maximum");
    while (r.next(row)) {
      if (row.size() <= std::max(avg_col, max_col)) continue;
      DurationRow d;
      d.avg_ms = std::stod(row[avg_col]);
      d.max_ms = std::stod(row[max_col]);
      durations[row[fn_col]] = d;
    }
  }

  // Pass 2: per-application memory.
  std::unordered_map<std::string, double> app_mem;
  {
    CsvReader r(memory_csv);
    std::vector<std::string> row;
    if (!r.next(row)) throw std::runtime_error("empty memory csv");
    std::size_t app_col = find_column(row, "HashApp");
    std::size_t mem_col = find_column(row, "AverageAllocatedMb");
    while (r.next(row)) {
      if (row.size() <= std::max(app_col, mem_col)) continue;
      app_mem[row[app_col]] = std::stod(row[mem_col]);
    }
  }

  // Pass 3a: count functions per app (for the even memory split).
  std::unordered_map<std::string, std::size_t> fns_per_app;
  {
    CsvReader r(invocations_csv);
    std::vector<std::string> row;
    if (!r.next(row)) throw std::runtime_error("empty invocations csv");
    std::size_t app_col = find_column(row, "HashApp");
    while (r.next(row)) {
      if (row.size() <= app_col) continue;
      ++fns_per_app[row[app_col]];
    }
  }

  // Pass 3b: build functions and events.
  Trace t;
  CsvReader r(invocations_csv);
  std::vector<std::string> row;
  if (!r.next(row)) throw std::runtime_error("empty invocations csv");
  std::size_t app_col = find_column(row, "HashApp");
  std::size_t fn_col = find_column(row, "HashFunction");
  // Minute columns are named "1".."1440" and follow the metadata columns.
  std::size_t first_minute_col = find_column(row, "1");
  std::size_t num_minutes = row.size() - first_minute_col;
  t.duration = mins(static_cast<double>(num_minutes));

  while (r.next(row)) {
    if (row.size() <= first_minute_col) continue;
    if (opts.max_functions > 0 && t.functions.size() >= opts.max_functions) {
      break;
    }
    // Count total invocations first: the paper drops functions invoked
    // fewer than twice in the day.
    std::uint64_t total = 0;
    for (std::size_t m = first_minute_col; m < row.size(); ++m) {
      if (!row[m].empty()) total += std::stoull(row[m]);
    }
    if (total < 2) continue;

    FunctionProfile p;
    p.name = row[fn_col];
    auto dit = durations.find(row[fn_col]);
    if (dit != durations.end()) {
      p.warm_time = msecs(dit->second.avg_ms);
      double init_ms = dit->second.max_ms - dit->second.avg_ms;
      p.init_time = std::max(opts.min_init, msecs(init_ms));
    } else {
      p.warm_time = opts.default_warm;
      p.init_time = opts.min_init;
    }
    if (p.warm_time <= Duration::zero()) p.warm_time = msecs(1);

    double mem = opts.default_app_mem_mb;
    if (auto mit = app_mem.find(row[app_col]); mit != app_mem.end()) {
      mem = mit->second;
    }
    auto share = fns_per_app[row[app_col]];
    if (share == 0) share = 1;
    p.mem_mb = static_cast<std::uint32_t>(clampd(
        mem / static_cast<double>(share),
        static_cast<double>(opts.min_fn_mem_mb),
        static_cast<double>(opts.max_fn_mem_mb)));

    auto fn_id = static_cast<FunctionId>(t.functions.size());
    t.functions.push_back(std::move(p));

    // Replay rule: 1 invocation -> start of minute; k -> equally spaced.
    for (std::size_t m = first_minute_col; m < row.size(); ++m) {
      if (row[m].empty()) continue;
      std::uint64_t k = std::stoull(row[m]);
      if (k == 0) continue;
      double minute_start_s =
          static_cast<double>(m - first_minute_col) * 60.0;
      double spacing_s = 60.0 / static_cast<double>(k);
      for (std::uint64_t j = 0; j < k; ++j) {
        t.keys.push_back(Trace::pack_checked(
            secs(minute_start_s + spacing_s * static_cast<double>(j)),
            fn_id));
      }
    }
  }

  std::sort(t.keys.begin(), t.keys.end());
  return t;
}

}  // namespace ilu
