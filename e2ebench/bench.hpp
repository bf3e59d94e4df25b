// e2ebench: the repository's end-to-end benchmark.
//
// One binary links the nvms library, generates a workload's inputs from a
// seed, times whole user actions (a Fig. 2 grid cell, a what-if replay, a
// served request) and checks every output against committed golden
// digests.  A separate traced run records the benchmark's own spans around
// its calls into each layer's public functions and attributes the traced
// wall time to layers.  Nothing here reaches inside the library: every
// span starts and ends in this directory's code.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

// -- clock and statistics -----------------------------------------------------

/// Host seconds since the first call (a process-local steady epoch).
double now_s();

/// Nearest-rank percentile of `values` (p in (0, 100]); 0 when empty.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

/// The highest percentile of {50, 90, 99, 99.9} that leaves at least ten
/// samples beyond it in a sample of `n`; 0 when even p50 does not.
double tail_percentile(std::size_t n);

/// Samples beyond percentile `p` in a sample of `n` (nearest rank).
std::size_t samples_beyond(std::size_t n, double p);

// -- deterministic seeding ----------------------------------------------------

std::uint64_t splitmix64(std::uint64_t x);

/// Fisher-Yates shuffle of 0..n-1 driven by splitmix64 (identical on every
/// platform, unlike std::shuffle).
std::vector<std::size_t> seeded_order(std::size_t n, std::uint64_t seed);

// -- metrics ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Ordered name -> (value, unit) list; set() overwrites in place.
class MetricSet {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& items() const { return items_; }

 private:
  std::vector<Metric> items_;
};

// -- spans ----------------------------------------------------------------------

/// Layers the traced run attributes wall time to.  Each span belongs to the
/// layer whose public function it wraps.
enum class Layer { kRoot, kDwarfs, kMemsim, kReplay, kObs, kPlacement, kCli,
                   kServe };
constexpr Layer kLayers[] = {Layer::kDwarfs,    Layer::kMemsim, Layer::kReplay,
                             Layer::kObs,       Layer::kPlacement,
                             Layer::kCli,       Layer::kServe};
const char* layer_name(Layer l);

/// In-memory span log for one thread.  Spans nest; a span's self time is
/// its duration minus the durations of its children, and a layer's self
/// time sums the self times of its spans.  reassign() moves part of one
/// span's self time to another layer (how an app run's simulator share,
/// measured by replaying its recording, leaves the dwarfs layer).
class SpanLog {
 public:
  struct Span {
    Layer layer = Layer::kRoot;
    std::string key;
    int parent = -1;
    double t0 = 0.0;
    double t1 = 0.0;
    double duration() const { return t1 - t0; }
  };

  /// Open a span under the innermost open one and return its index.
  int open(Layer layer, std::string key);
  void close(int index);
  /// Record an already finished span [t0, t1] under `parent`.
  int add(int parent, Layer layer, std::string key, double t0, double t1);
  void reassign(int index, Layer to, double seconds);

  const std::vector<Span>& spans() const { return spans_; }
  /// Summed durations of the spans of `layer` whose key starts with `key`.
  double total(Layer layer, std::string_view key = {}) const;
  std::size_t count(Layer layer, std::string_view key = {}) const;

  /// Self time per layer (kRoot's entry is the time no layer span covers).
  std::map<Layer, double> layer_self() const;
  /// Duration of the first root span.
  double wall() const;

  /// RAII guard around open/close.
  class Scope {
   public:
    Scope(SpanLog& log, Layer layer, std::string key)
        : log_(log), index_(log.open(layer, std::move(key))) {}
    ~Scope() { log_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int index() const { return index_; }

   private:
    SpanLog& log_;
    int index_;
  };

 private:
  struct Move {
    int index;
    Layer to;
    double seconds;
  };
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::vector<Move> moves_;
};

// -- golden-output oracle -------------------------------------------------------

std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t h = 0xCBF29CE484222325ull);
/// Digest of the bit patterns of `values`.
std::uint64_t digest_doubles(const std::vector<double>& values);

/// Committed golden digests, keyed by workload/input/item.  In recording
/// mode check() stores what it sees and always passes.
class Oracle {
 public:
  /// Load `path` (lines "<key> <16 hex digits>").  Returns false when the
  /// file cannot be read.
  bool load(const std::string& path);
  void start_recording() { recording_ = true; }
  bool save(const std::string& path) const;

  /// True when `digest` matches the golden for `key`; a missing key fails.
  bool check(const std::string& key, std::uint64_t digest);
  /// Flip one bit of every stored digest (the self-test's injected fault).
  void corrupt();

  std::size_t size() const { return golden_.size(); }

 private:
  std::map<std::string, std::uint64_t> golden_;
  bool recording_ = false;
};

// -- workloads ------------------------------------------------------------------

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smallest run that still covers every op once (self-test).
  bool quick = false;
  std::string golden_path = "e2ebench/golden.txt";
  /// Scratch directory for the daemon socket (inside the checkout).
  std::string work_dir = ".bench_build";
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  MetricSet metrics;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> notes;
};

const std::vector<std::string>& workload_names();

/// A printable fingerprint of the inputs the seed generates for a workload
/// (used by the seed-plumbing self-test).
std::string input_fingerprint(const std::string& workload, std::uint64_t seed);

/// Run one workload: timed (end-to-end metrics) or traced (per-layer).
RunResult run_workload(const RunOptions& opt, Oracle& oracle);

/// Regenerate into `oracle` the golden digest of every output any seed
/// can produce (each workload draws its inputs from a closed set).
void record_golden(Oracle& oracle);

/// Peak resident set of this process in MiB.
double peak_rss_mb();

/// Tests of the benchmark's own helpers plus a quick run of every workload
/// checked against the metric catalogue in `benchmark_path`.  Returns the
/// process exit code.
int run_selftest(const std::string& golden_path, const std::string& work_dir,
                 const std::string& benchmark_path);

}  // namespace e2e
