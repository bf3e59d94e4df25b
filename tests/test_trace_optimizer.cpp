// Trace-driven placement optimizer tests: budget discipline, improvement
// guarantees, comparison against the write-aware heuristic, and the
// delta-replay selector's parity with the exhaustive full-replay greedy.
#include <gtest/gtest.h>

#include "harness/registry.hpp"
#include "obs/metrics.hpp"
#include "placement/trace_optimizer.hpp"
#include "placement/write_aware.hpp"
#include "prof/data_profile.hpp"
#include "replay/recording.hpp"
#include "simcore/units.hpp"

namespace nvms {
namespace {

PhaseRecording record(const std::string& app, int threads = 36) {
  MemorySystem sys(SystemConfig::testbed(Mode::kUncachedNvm));
  TraceCapture capture(sys);
  AppConfig cfg;
  cfg.threads = threads;
  AppContext ctx(sys, cfg);
  (void)lookup_app(app).emit(ctx);
  return capture.finish();
}

auto factory() {
  return [] { return MemorySystem(SystemConfig::testbed(Mode::kUncachedNvm)); };
}

TEST(TraceOptimizer, ImprovesScalapackWithinBudget) {
  const auto rec = record("scalapack");
  const std::uint64_t budget =
      SystemConfig::testbed(Mode::kUncachedNvm).dram.capacity * 35 / 100;
  const auto r = optimize_placement(rec, budget, factory());
  EXPECT_GT(r.baseline_runtime, 0.0);
  EXPECT_GT(r.speedup(), 2.0);
  EXPECT_LE(r.dram_bytes, budget);
  EXPECT_FALSE(r.steps.empty());
  // the step runtimes are monotone decreasing
  double prev = r.baseline_runtime;
  for (const auto& [name, t] : r.steps) {
    EXPECT_LT(t, prev) << name;
    prev = t;
  }
  EXPECT_DOUBLE_EQ(prev, r.optimized_runtime);
}

TEST(TraceOptimizer, NeverWorseThanWriteAwareHeuristic) {
  for (const std::string app : {"scalapack", "ft"}) {
    const auto rec = record(app);
    const std::uint64_t budget =
        SystemConfig::testbed(Mode::kUncachedNvm).dram.capacity * 35 / 100;

    // heuristic plan from a profiling run
    MemorySystem prof_sys(SystemConfig::testbed(Mode::kUncachedNvm));
    AppConfig cfg;
    cfg.threads = 36;
    AppContext ctx(prof_sys, cfg);
    (void)lookup_app(app).emit(ctx);
    const auto heuristic =
        write_aware_plan(collect_data_profile(prof_sys), budget);
    auto sys = factory()();
    const double heuristic_runtime = rec.replay(sys, &heuristic.plan);

    const auto optimized = optimize_placement(rec, budget, factory());
    EXPECT_LE(optimized.optimized_runtime, heuristic_runtime * 1.0001)
        << app;
  }
}

TEST(TraceOptimizer, ZeroBudgetReturnsBaseline) {
  const auto rec = record("laghos", 24);
  const auto r = optimize_placement(rec, 0, factory());
  EXPECT_EQ(r.dram_bytes, 0u);
  EXPECT_TRUE(r.steps.empty());
  EXPECT_DOUBLE_EQ(r.optimized_runtime, r.baseline_runtime);
}

TEST(TraceOptimizer, ComputeBoundAppGainsLittle) {
  const auto rec = record("hacc", 24);
  const auto r = optimize_placement(
      rec, SystemConfig::testbed(Mode::kUncachedNvm).dram.capacity,
      factory());
  EXPECT_LT(r.speedup(), 1.05);  // hacc is compute-bound: nothing to win
}

TEST(TraceOptimizer, FtGainsFromPlacingTheFftArrays) {
  // FT's write-throttled arrays in DRAM should recover most of the 12x.
  const auto rec = record("ft");
  const auto r = optimize_placement(
      rec, SystemConfig::testbed(Mode::kUncachedNvm).dram.capacity * 80 / 100,
      factory());
  EXPECT_GT(r.speedup(), 4.0);
}

void expect_identical(const TraceOptimizerResult& a,
                      const TraceOptimizerResult& b, const std::string& tag) {
  EXPECT_EQ(a.baseline_runtime, b.baseline_runtime) << tag;
  EXPECT_EQ(a.optimized_runtime, b.optimized_runtime) << tag;
  EXPECT_EQ(a.dram_bytes, b.dram_bytes) << tag;
  ASSERT_EQ(a.steps.size(), b.steps.size()) << tag;
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].first, b.steps[i].first) << tag << " step " << i;
    EXPECT_EQ(a.steps[i].second, b.steps[i].second) << tag << " step " << i;
  }
  ASSERT_EQ(a.plan.size(), b.plan.size()) << tag;
  for (const auto& [name, p] : a.plan.entries())
    EXPECT_EQ(b.plan.lookup(name), p) << tag << " buffer " << name;
}

TEST(TraceOptimizer, ParityWithFullReplayAllApps) {
  // The tentpole invariant: the delta-replay CELF selector must produce
  // the same plan, promotion order and (bit-identical) runtimes as the
  // exhaustive full-replay greedy — for every registered application.
  const std::uint64_t budget =
      SystemConfig::testbed(Mode::kUncachedNvm).dram.capacity * 35 / 100;
  for (const auto& app : app_names()) {
    const auto rec = record(app);
    TraceOptimizerOptions opt;
    opt.jobs = 4;
    const auto fast = optimize_placement(rec, budget, factory(), opt);
    const auto slow = optimize_placement_full_replay(rec, budget, factory());
    expect_identical(fast, slow, app);
    // and the delta path really is incremental: no full replays beyond
    // what the selector itself never needs in uncached mode.
    EXPECT_EQ(fast.stats.full_replays, 0u) << app;
    EXPECT_GT(fast.stats.evals, 0u) << app;
  }
}

TEST(TraceOptimizer, MemoryModeFallsBackToFullReplayWithParity) {
  // kCachedNvm carries DRAM-cache state across phases, so the evaluator
  // cannot delta-replay; it must fall back to full (memoized) replays and
  // still agree with the exhaustive reference.
  const std::uint64_t budget =
      SystemConfig::testbed(Mode::kCachedNvm).dram.capacity * 35 / 100;
  const auto cached = [] {
    return MemorySystem(SystemConfig::testbed(Mode::kCachedNvm));
  };
  for (const std::string app : {"hypre", "scalapack"}) {
    const auto rec = record(app);
    TraceOptimizerOptions opt;
    opt.jobs = 2;
    const auto fast = optimize_placement(rec, budget, cached, opt);
    const auto slow = optimize_placement_full_replay(rec, budget, cached);
    expect_identical(fast, slow, app);
    EXPECT_GT(fast.stats.full_replays, 0u) << app;
    // Placement directives do not change Memory-mode routing, so no
    // promotion can show a gain.
    EXPECT_TRUE(fast.steps.empty()) << app;
    EXPECT_EQ(fast.optimized_runtime, fast.baseline_runtime) << app;
  }
}

TEST(TraceOptimizer, DeterministicAcrossWorkerCounts) {
  const auto rec = record("scalapack");
  const std::uint64_t budget =
      SystemConfig::testbed(Mode::kUncachedNvm).dram.capacity * 35 / 100;
  TraceOptimizerOptions serial;
  serial.jobs = 1;
  TraceOptimizerOptions wide;
  wide.jobs = 4;
  const auto a = optimize_placement(rec, budget, factory(), serial);
  const auto b = optimize_placement(rec, budget, factory(), wide);
  const auto c = optimize_placement(rec, budget, factory(), wide);
  expect_identical(a, b, "jobs=1 vs jobs=4");
  expect_identical(b, c, "jobs=4 repeated");
  // The work done is deterministic too, not just the result.
  EXPECT_EQ(a.stats.evals, b.stats.evals);
  EXPECT_EQ(b.stats.evals, c.stats.evals);
}

TEST(TraceOptimizer, EqualGainsBreakTiesByBufferName) {
  // Two buffers with byte-identical phases (so exactly equal promotion
  // gains), registered in anti-lexicographic order: both selectors must
  // promote the lexicographically smaller name first.
  PhaseRecording rec;
  rec.buffers.push_back({"bbb", 8 * MiB, Placement::kAuto});
  rec.buffers.push_back({"aaa", 8 * MiB, Placement::kAuto});
  for (BufferId b : {BufferId{0}, BufferId{1}}) {
    rec.phases.push_back(PhaseBuilder(b == 0 ? "pb" : "pa")
                             .threads(4)
                             .flops(1e6)
                             .stream(seq_write(b, 64 * MiB))
                             .stream(seq_read(b, 16 * MiB))
                             .build());
  }
  const std::uint64_t budget = 8 * MiB;  // room for exactly one promotion
  const auto fast = optimize_placement(rec, budget, factory());
  const auto slow = optimize_placement_full_replay(rec, budget, factory());
  ASSERT_EQ(fast.steps.size(), 1u);
  EXPECT_EQ(fast.steps[0].first, "aaa");
  ASSERT_EQ(slow.steps.size(), 1u);
  EXPECT_EQ(slow.steps[0].first, "aaa");
  expect_identical(fast, slow, "tie-break");
}

TEST(TraceOptimizer, PublishesTelemetryGauges) {
  const auto rec = record("ft", 24);
  MetricsRegistry metrics;
  TraceOptimizerOptions opt;
  opt.telemetry = &metrics;
  const auto r = optimize_placement(
      rec, SystemConfig::testbed(Mode::kUncachedNvm).dram.capacity * 35 / 100,
      factory(), opt);
  const Metric* evals = metrics.find("placement.evals");
  ASSERT_NE(evals, nullptr);
  EXPECT_EQ(evals->value, static_cast<double>(r.stats.evals));
  const Metric* hits = metrics.find("placement.phase_cache.hits");
  const Metric* misses = metrics.find("placement.phase_cache.misses");
  ASSERT_NE(hits, nullptr);
  ASSERT_NE(misses, nullptr);
  EXPECT_EQ(hits->value + misses->value,
            static_cast<double>(r.stats.phase_cache.hits +
                                r.stats.phase_cache.misses));
}

}  // namespace
}  // namespace nvms
