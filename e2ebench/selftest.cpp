// Self-test of the benchmark's helpers: the percentile rule, the span
// accounting, the oracle (including an injected mismatch), seed plumbing
// and a quick run of every workload against the BENCHMARK.json catalogue.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "bench.hpp"
#include "serve/jsonv.hpp"

namespace e2e {
namespace {

class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    std::printf("%s: %s\n", ok ? "ok" : "FAIL", what.c_str());
    std::fflush(stdout);
    if (!ok) ++failures_;
  }
  int failures() const { return failures_; }

 private:
  int failures_ = 0;
};

void test_percentiles(Checks& c) {
  std::vector<double> v;
  for (int i = 1; i <= 10; ++i) v.push_back(i);
  c.expect(percentile(v, 50.0) == 5.0, "nearest-rank p50 of 1..10 is 5");
  c.expect(percentile(v, 90.0) == 9.0, "nearest-rank p90 of 1..10 is 9");
  c.expect(percentile(v, 100.0) == 10.0, "p100 is the maximum");
  c.expect(percentile({}, 50.0) == 0.0, "percentile of nothing is 0");
  c.expect(samples_beyond(100, 90.0) == 10, "100 samples: 10 beyond p90");
  c.expect(tail_percentile(19) == 0.0, "19 samples: no percentile qualifies");
  c.expect(tail_percentile(99) == 50.0, "99 samples: p50 is the tail");
  c.expect(tail_percentile(100) == 90.0, "100 samples: p90 is the tail");
  c.expect(tail_percentile(999) == 90.0, "999 samples: p99 leaves 9");
  c.expect(tail_percentile(1000) == 99.0, "1000 samples: p99 is the tail");
  c.expect(tail_percentile(10000) == 99.9, "10000 samples: p99.9");
}

void test_spans(Checks& c) {
  SpanLog log;
  {
    SpanLog::Scope root(log, Layer::kRoot, "root");
    int run = 0;
    {
      SpanLog::Scope a(log, Layer::kDwarfs, "app");
      run = a.index();
      SpanLog::Scope b(log, Layer::kReplay, "load");
    }
    log.reassign(run, Layer::kMemsim, 0.0);
    SpanLog::Scope d(log, Layer::kObs, "render");
  }
  double sum = 0.0;
  for (const auto& [layer, s] : log.layer_self()) sum += s;
  const double wall = log.wall();
  c.expect(wall > 0.0 && std::abs(sum - wall) <= 1e-9 * wall + 1e-12,
           "layer self times plus other sum to the wall time");
  c.expect(log.count(Layer::kReplay, "lo") == 1, "span lookup by key prefix");
}

void test_oracle(Checks& c) {
  Oracle o;
  o.start_recording();
  (void)o.check("k", fnv1a("abc"));
  c.expect(o.check("k", fnv1a("abc")), "recorded digest matches");
  Oracle strict;
  c.expect(!strict.check("missing", 1), "a key without a golden fails");
  c.expect(fnv1a("abc") != fnv1a("abd"), "digest separates outputs");
  c.expect(digest_doubles({0.0}) != digest_doubles({-0.0}),
           "double digest is bitwise");
}

/// Metric names and units of `section` in BENCHMARK.json.
std::vector<std::pair<std::string, std::string>> catalogue(
    const nvms::JsonValue& doc, const char* section) {
  std::vector<std::pair<std::string, std::string>> out;
  const nvms::JsonValue* list = doc.find(section);
  if (list == nullptr) return out;
  for (const auto& m : list->elements()) {
    const nvms::JsonValue* name = m.find("name");
    const nvms::JsonValue* unit = m.find("unit");
    if (name != nullptr && unit != nullptr) {
      out.emplace_back(name->as_string(), unit->as_string());
    }
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> emitted(const RunResult& r) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& m : r.metrics.items()) out.emplace_back(m.name, m.unit);
  return out;
}

RunResult quick_run(const std::string& workload, std::uint64_t seed,
                    bool trace, Oracle& oracle, const std::string& work_dir) {
  RunOptions opt;
  opt.workload = workload;
  opt.seed = seed;
  opt.seconds = 0.0;
  opt.trace = trace;
  opt.quick = true;
  opt.work_dir = work_dir;
  return run_workload(opt, oracle);
}

bool clean(const RunResult& r) {
  return r.correct && r.failed == 0 && r.attempted > 0;
}

}  // namespace

int run_selftest(const std::string& golden_path, const std::string& work_dir,
                 const std::string& benchmark_path) {
  Checks c;
  test_percentiles(c);
  test_spans(c);
  test_oracle(c);

  std::ifstream in(benchmark_path);
  std::stringstream text;
  text << in.rdbuf();
  const auto doc = nvms::json_parse(text.str());
  c.expect(doc.value.has_value(), "BENCHMARK.json parses");
  if (!doc.value) return 1;
  const auto end_to_end = catalogue(*doc.value, "end_to_end");
  const auto per_layer = catalogue(*doc.value, "per_layer");

  Oracle oracle;
  c.expect(oracle.load(golden_path) && oracle.size() > 0,
           "golden digests load");

  // The held-out seed is used nowhere else in the repository.
  constexpr std::uint64_t kSeed = 3;
  constexpr std::uint64_t kHeldOut = 1234567;
  for (const auto& w : workload_names()) {
    c.expect(input_fingerprint(w, kSeed) == input_fingerprint(w, kSeed),
             w + ": the same seed gives the same inputs");
    c.expect(input_fingerprint(w, kSeed) != input_fingerprint(w, kHeldOut),
             w + ": a held-out seed changes the inputs");
    const RunResult a = quick_run(w, kSeed, false, oracle, work_dir);
    const RunResult b = quick_run(w, kHeldOut, false, oracle, work_dir);
    c.expect(clean(a) && clean(b),
             w + ": quick runs pass the oracle (" +
                 std::to_string(a.attempted + b.attempted) + " ops)");
    c.expect(emitted(a) == end_to_end && emitted(b) == end_to_end,
             w + ": both seeds emit every end-to-end metric");
    const RunResult t = quick_run(w, kSeed, true, oracle, work_dir);
    for (const auto& note : t.notes) std::printf("  %s\n", note.c_str());
    c.expect(clean(t), w + ": traced quick run passes oracle and accounting");
    c.expect(emitted(t) == per_layer,
             w + ": traced run emits every per-layer metric");
    bool positive_times = true;
    for (const auto& m : t.metrics.items()) {
      if ((m.unit == "s" || m.unit == "ms") && m.name != "serve.overhead_ms" &&
          m.name != "obs.capture_s" && !(m.value > 0.0)) {
        std::printf("  zero time: %s\n", m.name.c_str());
        positive_times = false;
      }
    }
    c.expect(positive_times, w + ": every per-layer time is measured");
  }

  Oracle broken;
  (void)broken.load(golden_path);
  broken.corrupt();
  const RunResult bad = quick_run("whatif-replay", kSeed, false, broken,
                                  work_dir);
  c.expect(bad.attempted > 0 && bad.failed == bad.attempted,
           "an injected golden mismatch fails every op (" +
               std::to_string(bad.failed) + "/" +
               std::to_string(bad.attempted) + ")");

  std::printf("selftest: %d failure(s)\n", c.failures());
  return c.failures() == 0 ? 0 : 1;
}

}  // namespace e2e
