// Fixture: OBS-001 negative — schema names, prefix families, and dynamic
// names the rule cannot (and must not pretend to) check.
#include <string>

struct Registry {
  int counter(const std::string&) { return 0; }
  int gauge(const std::string&) { return 0; }
  int histogram(const std::string&) { return 0; }
  void epoch_sample(const char*, const char*, double, double) {}
};

void publish(Registry& m, const std::string& prefix) {
  m.counter("app.write_bytes");
  m.histogram("phase.duration_s");
  m.epoch_sample("bw.read_gbs", "dram0", 0.0, 12.5);
  m.gauge("stream_memo.hits");       // matches the stream_memo.* family
  m.gauge(prefix + ".hit_rate");     // dynamic: skipped by design
}

// A free function named `gauge` is not a registry sink.
int gauge(const char*) { return 1; }
int use_free() { return gauge("anything-goes"); }
