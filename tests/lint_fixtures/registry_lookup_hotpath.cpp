// Fixture: registry-lookup-hotpath — MetricsRegistry name lookups inside
// lambda bodies (event callbacks) instead of wiring-time resolution.

struct Counter {
  void inc();
};
struct Gauge {
  void set(double);
};
struct Hist {
  void observe(double);
};
struct Registry {
  Counter* counter(const char* name);
  Gauge* gauge(const char* name);
  Hist* log_histogram(const char* name);
};

template <typename F>
void run(F f) {
  f();
}
template <typename F>
void each(F f) {
  f(0);
}

void wire(Registry& reg, const char* dynamic_name) {
  // OK: resolved once at wiring time, pointer captured into the callback.
  Counter* hits = reg.counter("pool.hits");
  run([hits] { hits->inc(); });

  // OK: lookup by a runtime-computed name is a different pattern (panel
  // construction), not a per-event literal lookup.
  run([&reg, dynamic_name] { reg.counter(dynamic_name)->inc(); });

  // BAD: one registry mutex acquisition per event, in four lambdas.
  run([&reg] { reg.counter("pool.hits")->inc(); });
  run([&reg] { reg.gauge("pool.mb")->set(1.0); });
  each([&reg](int) { reg.log_histogram("lat_ms")->observe(0.5); });
  run([&reg]() mutable { reg.log_histogram("wait_ms")->observe(2.0); });
}
