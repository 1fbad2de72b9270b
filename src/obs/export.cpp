#include "obs/export.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "util/csv.hpp"

namespace ilu {

JsonValue chrome_trace_value(const std::vector<SpanRecord>& spans, int pid) {
  std::vector<const SpanRecord*> ordered;
  ordered.reserve(spans.size());
  for (const auto& s : spans) ordered.push_back(&s);
  std::sort(ordered.begin(), ordered.end(),
            [](const SpanRecord* a, const SpanRecord* b) {
              if (a->start != b->start) return a->start < b->start;
              return a->id < b->id;
            });

  JsonArray events;
  events.reserve(ordered.size());
  for (const SpanRecord* s : ordered) {
    JsonObject args;
    args["tx"] = JsonValue(s->tx);
    args["span"] = JsonValue(s->id);
    args["parent"] = JsonValue(s->parent);
    JsonObject ev;
    ev["name"] = JsonValue(std::string(s->name));
    ev["cat"] = JsonValue("control_plane");
    ev["ph"] = JsonValue("X");
    ev["ts"] = JsonValue(static_cast<std::int64_t>(s->start.count()));
    ev["dur"] = JsonValue(static_cast<std::int64_t>(s->dur.count()));
    ev["pid"] = JsonValue(pid);
    ev["tid"] = JsonValue(static_cast<std::int64_t>(s->thread));
    ev["args"] = JsonValue(std::move(args));
    events.emplace_back(std::move(ev));
  }
  JsonObject doc;
  doc["traceEvents"] = JsonValue(std::move(events));
  doc["displayTimeUnit"] = JsonValue("ms");
  return JsonValue(std::move(doc));
}

std::string chrome_trace_json(const std::vector<SpanRecord>& spans, int pid) {
  return chrome_trace_value(spans, pid).dump();
}

void write_chrome_trace(const std::vector<SpanRecord>& spans,
                        const std::string& path, int pid) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path);
  out << chrome_trace_json(spans, pid) << "\n";
}

JsonValue metrics_json(const MetricsSnapshot& snap) {
  JsonObject counters;
  for (const auto& [name, v] : snap.counters) counters[name] = JsonValue(v);
  JsonObject gauges;
  for (const auto& [name, v] : snap.gauges) {
    gauges[name] = JsonValue(static_cast<std::int64_t>(v));
  }
  JsonObject log_histograms;
  for (const auto& [name, h] : snap.log_histograms) {
    JsonObject hj;
    hj["count"] = JsonValue(h.count);
    hj["sum"] = JsonValue(h.sum);
    hj["mean"] = JsonValue(h.mean);
    hj["min"] = JsonValue(h.min);
    hj["max"] = JsonValue(h.max);
    hj["p50"] = JsonValue(h.p50);
    hj["p90"] = JsonValue(h.p90);
    hj["p99"] = JsonValue(h.p99);
    hj["p999"] = JsonValue(h.p999);
    hj["saturated"] = JsonValue(h.saturated);
    hj["overflow_count"] = JsonValue(h.overflow_count);
    log_histograms[name] = JsonValue(std::move(hj));
  }
  JsonObject doc;
  doc["counters"] = JsonValue(std::move(counters));
  doc["gauges"] = JsonValue(std::move(gauges));
  doc["log_histograms"] = JsonValue(std::move(log_histograms));
  return JsonValue(std::move(doc));
}

void write_metrics_json(const MetricsSnapshot& snap, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path);
  out << metrics_json(snap).dump(2) << "\n";
}

void write_metrics_csv(const MetricsSnapshot& snap, const std::string& path) {
  CsvWriter w(path);
  w.row("kind", "name", "field", "value");
  for (const auto& [name, v] : snap.counters) {
    w.row("counter", name, "value", v);
  }
  for (const auto& [name, v] : snap.gauges) {
    w.row("gauge", name, "value", v);
  }
  for (const auto& [name, h] : snap.log_histograms) {
    w.row("log_histogram", name, "count", h.count);
    w.row("log_histogram", name, "mean", h.mean);
    w.row("log_histogram", name, "min", h.min);
    w.row("log_histogram", name, "max", h.max);
    w.row("log_histogram", name, "p50", h.p50);
    w.row("log_histogram", name, "p90", h.p90);
    w.row("log_histogram", name, "p99", h.p99);
    w.row("log_histogram", name, "p999", h.p999);
    w.row("log_histogram", name, "saturated", h.saturated ? 1 : 0);
  }
}

StatusLineReporter::StatusLineReporter(Runtime& rt, Duration interval,
                                       Render render, std::ostream* out)
    : rt_(rt),
      interval_(interval),
      render_(std::move(render)),
      out_(out) {}

StatusLineReporter::~StatusLineReporter() { stop(); }

void StatusLineReporter::start() {
  if (running_ || interval_ <= Duration::zero() || !render_) return;
  running_ = true;
  timer_ = rt_.schedule(interval_, [this] { tick(); });
}

void StatusLineReporter::stop() {
  running_ = false;
  if (timer_ != Runtime::kInvalidTimer) {
    rt_.cancel(timer_);
    timer_ = Runtime::kInvalidTimer;
  }
}

void StatusLineReporter::tick() {
  timer_ = Runtime::kInvalidTimer;
  if (!running_) return;
  std::string line = render_();
  ++emitted_;
  if (out_ != nullptr) {
    (*out_) << line << "\n";
  } else {
    std::fprintf(stderr, "%s\n", line.c_str());
  }
  if (running_) timer_ = rt_.schedule(interval_, [this] { tick(); });
}

}  // namespace ilu
