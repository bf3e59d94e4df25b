// Tests for the bottleneck-attribution layer (obs/analyze/) and the
// service-ready aggregation primitives (obs/sketch.hpp): quantile-sketch
// geometry, sliding windows, the attribution rule pipeline, profile
// construction/merging, run diffing, the Prometheus exporter's text
// format, and the `explain`/`diff` CLI determinism contract (byte-equal
// output across --jobs and --resolve-cache).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cli/driver.hpp"
#include "harness/sweep.hpp"
#include "obs/analyze/diff.hpp"
#include "obs/analyze/profile.hpp"
#include "obs/export.hpp"
#include "obs/sketch.hpp"
#include "obs/telemetry.hpp"
#include "prof/windows.hpp"

namespace nvms {
namespace {

// ---------- quantile sketch -------------------------------------------------

TEST(Sketch, BucketGeometryMatchesMetricHistogram) {
  // The sketch must land every value in the same bucket the registry's
  // log2 histogram uses, or from_metric() would shift quantiles.
  MetricsRegistry reg;
  const auto id = reg.histogram("h");
  QuantileSketch direct;
  const double values[] = {1e-9, 0.5, 1.0, 1.5, 2.0, 3.0, 1024.0, 1e12};
  for (const double v : values) {
    reg.observe(id, v);
    direct.add(v);
  }
  const QuantileSketch from = QuantileSketch::from_metric(reg.metrics()[0]);
  EXPECT_EQ(from.count(), direct.count());
  EXPECT_DOUBLE_EQ(from.sum(), direct.sum());
  EXPECT_DOUBLE_EQ(from.min(), direct.min());
  EXPECT_DOUBLE_EQ(from.max(), direct.max());
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    EXPECT_DOUBLE_EQ(from.quantile(q), direct.quantile(q)) << "q=" << q;
  }
  // Zero and negatives collapse into the lowest bucket, not UB.
  EXPECT_EQ(QuantileSketch::bucket_of(0.0), 0);
  EXPECT_EQ(QuantileSketch::bucket_of(-3.0), 0);
  EXPECT_EQ(QuantileSketch::bucket_of(1.0), QuantileSketch::kBucketBias);
}

TEST(Sketch, QuantilesAreOrderedAndClamped) {
  QuantileSketch s;
  for (int i = 1; i <= 1000; ++i) s.add(static_cast<double>(i));
  EXPECT_EQ(s.count(), 1000u);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 1000.0);
  const double p50 = s.p50(), p95 = s.p95(), p99 = s.p99();
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, s.max());
  EXPECT_GE(p50, s.min());
  // Log2 buckets bound the relative error by 2x.
  EXPECT_GT(p50, 250.0);
  EXPECT_LT(p50, 1000.0);
}

TEST(Sketch, EmptyAndSingleValue) {
  QuantileSketch s;
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  s.add(42.0);
  // One observation: every quantile collapses onto it (clamped).
  EXPECT_DOUBLE_EQ(s.p50(), 42.0);
  EXPECT_DOUBLE_EQ(s.p99(), 42.0);
}

TEST(Sketch, MergeEqualsUnion) {
  QuantileSketch a, b, u;
  for (int i = 0; i < 100; ++i) {
    const double v = std::exp2(static_cast<double>(i % 17) - 5.0);
    ((i % 2 == 0) ? a : b).add(v);
    u.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), u.count());
  EXPECT_DOUBLE_EQ(a.sum(), u.sum());
  for (double q : {0.1, 0.5, 0.95, 0.99}) {
    EXPECT_DOUBLE_EQ(a.quantile(q), u.quantile(q));
  }
}

// ---------- sliding windows -------------------------------------------------

TEST(Windows, SlidingAggregatorBucketsByTimeAndKey) {
  SlidingWindowAggregator agg(1.0);
  agg.observe("bw.read_gbs", "device=nvm0", 0.25, 10.0);
  agg.observe("bw.read_gbs", "device=nvm0", 0.75, 20.0);
  agg.observe("bw.read_gbs", "device=nvm0", 1.5, 30.0);
  agg.observe("bw.read_gbs", "device=dram0", 0.5, 50.0);
  ASSERT_EQ(agg.streams().size(), 2u);  // first-seen key order
  const auto& nvm = agg.streams()[0];
  EXPECT_EQ(nvm.name, "bw.read_gbs");
  EXPECT_EQ(nvm.labels, "device=nvm0");
  ASSERT_EQ(nvm.windows.size(), 2u);
  EXPECT_DOUBLE_EQ(nvm.windows[0].t0, 0.0);
  EXPECT_DOUBLE_EQ(nvm.windows[0].t1, 1.0);
  EXPECT_EQ(nvm.windows[0].sketch.count(), 2u);
  EXPECT_DOUBLE_EQ(nvm.windows[0].sketch.mean(), 15.0);
  EXPECT_DOUBLE_EQ(nvm.windows[1].t0, 1.0);
  EXPECT_EQ(nvm.windows[1].sketch.count(), 1u);
  EXPECT_EQ(agg.streams()[1].labels, "device=dram0");
}

TEST(Windows, SlidingAggregatorBoundsRetainedWindows) {
  SlidingWindowAggregator agg(1.0, /*max_windows=*/2);
  for (int w = 0; w < 5; ++w) {
    agg.observe("g", "", static_cast<double>(w) + 0.5,
                static_cast<double>(w));
  }
  ASSERT_EQ(agg.streams().size(), 1u);
  const auto& wins = agg.streams()[0].windows;
  ASSERT_EQ(wins.size(), 2u);  // only the trailing two survive
  EXPECT_DOUBLE_EQ(wins[0].t0, 3.0);
  EXPECT_DOUBLE_EQ(wins[1].t0, 4.0);
  // A late (out-of-order) sample folds into the newest window instead of
  // resurrecting an evicted one.
  agg.observe("g", "", 0.1, 99.0);
  EXPECT_EQ(agg.streams()[0].windows.back().sketch.count(), 2u);
}

TEST(Windows, WindowMetricsFoldsEverySeries) {
  MetricsRegistry reg;
  reg.epoch_sample("bw.read_gbs", "nvm0", 0.1, 5.0);
  reg.epoch_sample("bw.read_gbs", "nvm0", 1.1, 7.0);
  reg.epoch_sample("wpq.util", "nvm0", 0.2, 0.9);
  const auto agg = window_metrics(reg, 1.0);
  ASSERT_EQ(agg.streams().size(), 2u);
  EXPECT_EQ(agg.streams()[0].name, "bw.read_gbs");
  EXPECT_EQ(agg.streams()[0].windows.size(), 2u);
  EXPECT_EQ(agg.streams()[1].name, "wpq.util");
}

// ---------- attribution rules ----------------------------------------------

PhaseSignals base_signals() {
  PhaseSignals s;
  s.count = 1;
  s.total_s = 1.0;
  s.mem_share = 1.0;
  return s;
}

TEST(Attribute, PinnedWpqFavorsSaturationOverThrottling) {
  AttributionThresholds t;
  PhaseSignals s = base_signals();
  s.nvm_read_gbs = 5.0;
  s.nvm_write_gbs = 2.0;
  s.nvm_wpq_util = 1.0;  // queue pinned at capacity
  s.nvm_throttle = 0.12;
  s.bw_util = 0.2;
  const Verdict v = attribute(s, t);
  EXPECT_EQ(v.cls, Bottleneck::kWpqSaturated);
  EXPECT_GT(v.score, 0.5);
}

TEST(Attribute, BusyButUnpinnedQueueFavorsReadThrottling) {
  AttributionThresholds t;
  PhaseSignals s = base_signals();
  s.nvm_read_gbs = 8.0;
  s.nvm_write_gbs = 2.0;
  s.nvm_wpq_util = 0.96;  // above wpq_util, below wpq_sat
  s.nvm_throttle = 0.25;
  s.bw_util = 0.25;
  const Verdict v = attribute(s, t);
  EXPECT_EQ(v.cls, Bottleneck::kReadThrottled);
}

TEST(Attribute, MechanismsNeedTheirTraffic) {
  AttributionThresholds t;
  PhaseSignals s = base_signals();
  s.nvm_wpq_util = 1.0;  // stale extreme, but no NVM writes this phase
  s.nvm_throttle = 0.1;  // ...and no NVM reads either
  s.dram_read_gbs = 10.0;
  s.bw_util = 0.1;
  const Verdict v = attribute(s, t);
  EXPECT_NE(v.cls, Bottleneck::kWpqSaturated);
  EXPECT_NE(v.cls, Bottleneck::kReadThrottled);
}

TEST(Attribute, CacheConflictBandwidthAndLatency) {
  AttributionThresholds t;
  {
    PhaseSignals s = base_signals();
    s.dram_read_gbs = 20.0;
    s.cache_s = 1.0;
    s.cache_conflict = 0.4;
    s.bw_util = 0.3;
    EXPECT_EQ(attribute(s, t).cls, Bottleneck::kCacheConflict);
  }
  {
    PhaseSignals s = base_signals();
    s.dram_read_gbs = 90.0;
    s.bw_util = 0.85;
    EXPECT_EQ(attribute(s, t).cls, Bottleneck::kBandwidthBound);
  }
  {
    PhaseSignals s = base_signals();
    s.nvm_read_gbs = 5.0;
    s.bw_util = 0.15;  // far below every ceiling, yet memory-dominated
    s.mem_share = 0.95;
    EXPECT_EQ(attribute(s, t).cls, Bottleneck::kLatencyBound);
  }
}

TEST(Attribute, UnconstrainedCarriesHeadroomEvidence) {
  AttributionThresholds t;
  PhaseSignals s = base_signals();
  s.dram_read_gbs = 5.0;
  s.bw_util = 0.15;
  s.mem_share = 0.2;  // compute-dominated: nothing fires
  const Verdict v = attribute(s, t);
  EXPECT_EQ(v.cls, Bottleneck::kUnconstrained);
  EXPECT_GT(v.score, 0.0);
  ASSERT_FALSE(v.evidence.empty());
  EXPECT_EQ(v.evidence[0].signal, "headroom");
}

TEST(Attribute, EvidenceContributionsSumToHundred) {
  AttributionThresholds t;
  PhaseSignals s = base_signals();
  s.nvm_read_gbs = 8.0;
  s.nvm_write_gbs = 4.0;
  s.nvm_wpq_util = 0.9;
  s.nvm_throttle = 0.3;
  s.bw_util = 0.7;
  const Verdict v = attribute(s, t);
  ASSERT_GE(v.evidence.size(), 2u);  // several mechanisms fired
  double total = 0.0;
  double prev = 1e9;
  for (const auto& e : v.evidence) {
    total += e.contribution;
    EXPECT_LE(e.contribution, prev + 1e-9);  // sorted descending
    prev = e.contribution;
  }
  EXPECT_NEAR(total, 100.0, 1e-6);
}

TEST(Attribute, PhaseEquivalenceClassStripsIterationDecorations) {
  EXPECT_EQ(phase_equivalence_class("smooth-down"), "smooth-down");
  EXPECT_EQ(phase_equivalence_class("iter-17"), "iter");
  EXPECT_EQ(phase_equivalence_class("solve.003"), "solve");
  EXPECT_EQ(phase_equivalence_class("fft_2"), "fft");
  EXPECT_EQ(phase_equivalence_class("step#12"), "step");
  EXPECT_EQ(phase_equivalence_class("42"), "42");  // never empties a name
}

// ---------- profile construction -------------------------------------------

RunProfile profile_for(const std::string& app, Mode mode, double scale,
                       int jobs = 1,
                       ResolveCacheMode rc = ResolveCacheMode::kOff) {
  SweepSpec spec;
  spec.app = app;
  spec.modes = {mode};
  spec.threads = {36};
  spec.scales = {scale};
  spec.jobs = jobs;
  spec.telemetry = true;
  spec.resolve_cache = rc;
  const auto result = run_sweep(spec);
  EXPECT_FALSE(result.rows.empty()) << app << ": configuration skipped";
  return sweep_profile(result, app);
}

TEST(Profile, BuildCoversEveryPhaseAndSharesSumToOne) {
  const RunProfile p = profile_for("hypre", Mode::kUncachedNvm, 0.25);
  EXPECT_EQ(p.run, "hypre");
  EXPECT_EQ(p.mode, "uncached-nvm");
  EXPECT_GT(p.runtime_s, 0.0);
  ASSERT_FALSE(p.phases.empty());
  double share = 0.0;
  for (const auto& pp : p.phases) {
    EXPECT_FALSE(pp.name.empty());
    EXPECT_GT(pp.signals.count, 0u);
    share += pp.share;
  }
  EXPECT_NEAR(share, 1.0, 1e-9);
  double class_share = 0.0;
  for (const auto& c : p.classes) class_share += c.share;
  EXPECT_NEAR(class_share, 1.0, 1e-9);
  // Quantiles come from the phase-duration sketch and must be ordered.
  EXPECT_GT(p.phase_count, 0u);
  EXPECT_LE(p.phase_p50_s, p.phase_p95_s);
  EXPECT_LE(p.phase_p95_s, p.phase_p99_s);
}

TEST(Profile, CachedModeJoinsCacheSeries) {
  // Memory mode at full scale spills the DRAM cache: the cache series
  // join must surface a nonzero conflict rate for hypre (the paper's
  // poster child for direct-mapped cache conflicts).
  const RunProfile p = profile_for("hypre", Mode::kCachedNvm, 1.0);
  EXPECT_GT(p.totals.cache_s, 0.0);
  EXPECT_GT(p.totals.cache_conflict, 0.0);
  EXPECT_EQ(p.verdict.cls, Bottleneck::kCacheConflict);
}

TEST(Profile, MergeWeightsByTime) {
  const RunProfile a = profile_for("scalapack", Mode::kUncachedNvm, 0.25);
  const RunProfile b = profile_for("scalapack", Mode::kUncachedNvm, 0.5);
  const RunProfile m = merge_profiles({a, b}, "merged");
  EXPECT_EQ(m.run, "merged");
  EXPECT_EQ(m.mode, "uncached-nvm");  // both parts agree
  EXPECT_NEAR(m.runtime_s, a.runtime_s + b.runtime_s, 1e-9);
  EXPECT_EQ(m.phase_count, a.phase_count + b.phase_count);
  // Phase names align by name: the union, in first-seen order.
  EXPECT_EQ(m.phases.size(), a.phases.size());
  for (std::size_t i = 0; i < m.phases.size(); ++i) {
    EXPECT_EQ(m.phases[i].name, a.phases[i].name);
    EXPECT_NEAR(m.phases[i].signals.total_s,
                a.phases[i].signals.total_s + b.phases[i].signals.total_s,
                1e-9);
  }
  const RunProfile mixed = merge_profiles(
      {a, profile_for("scalapack", Mode::kCachedNvm, 0.25)}, "x");
  EXPECT_EQ(mixed.mode, "mixed");
}

TEST(Profile, PublishRegistersAnalyzeGauges) {
  const RunProfile p = profile_for("scalapack", Mode::kUncachedNvm, 0.25);
  MetricsRegistry reg;
  publish_run_profile(p, reg);
  std::set<std::string> names;
  for (const auto& m : reg.metrics()) names.insert(m.name);
  for (const char* n :
       {"analyze.runtime_s", "analyze.phase_count", "analyze.verdict_score",
        "analyze.phase_p50_s", "analyze.phase_p95_s", "analyze.phase_p99_s",
        "analyze.class_share"}) {
    EXPECT_TRUE(names.count(n)) << n;
  }
}

// ---------- golden verdicts (paper Sec. IV taxonomy) ------------------------

struct Golden {
  const char* app;
  Mode mode;
  Bottleneck cls;
};

// Calibrated against the testbed devices at scale 1.0 (full working sets:
// Memory mode spills the 192 MiB DRAM cache, App-Direct exposes the WPQ).
// Taxonomy per the paper's Sec. IV: FT's write-bursty transposes pin the
// WPQ; ScaLAPACK/SuperLU/BoxLib reads crawl behind write-triggered
// throttling; XSBench/Hypre random lookups are latency-bound on NVM;
// HACC/Laghos stay compute-dominated.  In Memory mode Hypre's working set
// thrashes the direct-mapped DRAM cache and BoxLib saturates lane
// bandwidth, while the rest fit and run DRAM-like.
const Golden kGoldens[] = {
    {"hacc", Mode::kUncachedNvm, Bottleneck::kUnconstrained},
    {"laghos", Mode::kUncachedNvm, Bottleneck::kUnconstrained},
    {"scalapack", Mode::kUncachedNvm, Bottleneck::kReadThrottled},
    {"xsbench", Mode::kUncachedNvm, Bottleneck::kLatencyBound},
    {"hypre", Mode::kUncachedNvm, Bottleneck::kLatencyBound},
    {"superlu", Mode::kUncachedNvm, Bottleneck::kReadThrottled},
    {"boxlib", Mode::kUncachedNvm, Bottleneck::kReadThrottled},
    {"ft", Mode::kUncachedNvm, Bottleneck::kWpqSaturated},
    {"hacc", Mode::kCachedNvm, Bottleneck::kUnconstrained},
    {"laghos", Mode::kCachedNvm, Bottleneck::kUnconstrained},
    {"scalapack", Mode::kCachedNvm, Bottleneck::kUnconstrained},
    {"xsbench", Mode::kCachedNvm, Bottleneck::kUnconstrained},
    {"hypre", Mode::kCachedNvm, Bottleneck::kCacheConflict},
    {"superlu", Mode::kCachedNvm, Bottleneck::kUnconstrained},
    {"boxlib", Mode::kCachedNvm, Bottleneck::kBandwidthBound},
    {"ft", Mode::kCachedNvm, Bottleneck::kUnconstrained},
};

TEST(Golden, EveryDwarfLandsItsPaperClassWithEvidence) {
  for (const auto& g : kGoldens) {
    const RunProfile p = profile_for(g.app, g.mode, 1.0);
    EXPECT_EQ(to_string(p.verdict.cls), std::string(to_string(g.cls)))
        << g.app << " / " << to_string(g.mode);
    ASSERT_FALSE(p.verdict.evidence.empty()) << g.app;
    // Every evidence entry names a signal and its threshold context.
    for (const auto& e : p.verdict.evidence) {
      EXPECT_FALSE(e.signal.empty());
      EXPECT_GE(e.contribution, 0.0);
    }
  }
}

// ---------- CLI determinism (explain / diff) --------------------------------

struct Argv {
  explicit Argv(std::vector<std::string> args) : strings(std::move(args)) {
    for (auto& s : strings) ptrs.push_back(s.data());
  }
  int argc() const { return static_cast<int>(ptrs.size()); }
  char** argv() { return ptrs.data(); }
  std::vector<std::string> strings;
  std::vector<char*> ptrs;
};

int run_cli(std::vector<std::string> args, std::string* out_text = nullptr,
            std::string* err_text = nullptr) {
  args.insert(args.begin(), "nvmsim");
  Argv a(std::move(args));
  std::ostringstream out;
  std::ostringstream err;
  const int rc = cli_main(a.argc(), a.argv(), out, err);
  if (out_text != nullptr) *out_text = out.str();
  if (err_text != nullptr) *err_text = err.str();
  return rc;
}

TEST(CliDeterminism, ExplainIsByteIdenticalAcrossJobsAndResolveCache) {
  std::string reference;
  bool first = true;
  for (const char* jobs : {"1", "8"}) {
    for (const char* rc : {"off", "shared"}) {
      std::string out;
      ASSERT_EQ(run_cli({"explain", "hypre", "--mode", "uncached-nvm",
                         "--scale", "0.25", "--format", "json", "--jobs",
                         jobs, "--resolve-cache", rc},
                        &out),
                0)
          << "jobs=" << jobs << " rc=" << rc;
      if (first) {
        reference = out;
        first = false;
        EXPECT_FALSE(out.empty());
      } else {
        EXPECT_EQ(out, reference) << "jobs=" << jobs << " rc=" << rc;
      }
    }
  }
}

TEST(CliDeterminism, DiffIsByteIdenticalAcrossJobsAndResolveCache) {
  std::string reference;
  bool first = true;
  for (const char* jobs : {"1", "8"}) {
    for (const char* rc : {"off", "shared"}) {
      std::string out;
      ASSERT_EQ(run_cli({"diff", "scalapack", "scalapack", "--mode-a",
                         "cached-nvm", "--mode-b", "uncached-nvm", "--scale",
                         "0.25", "--format", "json", "--jobs", jobs,
                         "--resolve-cache", rc},
                        &out),
                0);
      if (first) {
        reference = out;
        first = false;
      } else {
        EXPECT_EQ(out, reference) << "jobs=" << jobs << " rc=" << rc;
      }
    }
  }
}

TEST(CliDeterminism, HumanAndCsvRenderersAreStableAcrossJobs) {
  for (const char* fmt : {"human", "csv"}) {
    std::string a, b;
    ASSERT_EQ(run_cli({"explain", "ft", "--mode", "uncached-nvm", "--scale",
                       "0.25", "--format", fmt, "--jobs", "1"},
                      &a),
              0);
    ASSERT_EQ(run_cli({"explain", "ft", "--mode", "uncached-nvm", "--scale",
                       "0.25", "--format", fmt, "--jobs", "8"},
                      &b),
              0);
    EXPECT_EQ(a, b) << fmt;
  }
}

// ---------- diffing ---------------------------------------------------------

TEST(Diff, ModeRegressionIsAttributedToAMovedSignal) {
  const RunProfile fast = profile_for("scalapack", Mode::kCachedNvm, 0.5);
  const RunProfile slow = profile_for("scalapack", Mode::kUncachedNvm, 0.5);
  const RunDiff d = diff_profiles(fast, slow);
  EXPECT_EQ(d.a_mode, "cached-nvm");
  EXPECT_EQ(d.b_mode, "uncached-nvm");
  EXPECT_GT(d.delta_s, 0.0);      // App-Direct is slower
  EXPECT_LT(d.speedup, 1.0);      // a/b < 1
  EXPECT_FALSE(d.moved.empty());  // the regression names a signal
  EXPECT_GT(d.regressions, 0u);
  ASSERT_FALSE(d.phases.empty());
  // Phases sorted by |delta| descending.
  for (std::size_t i = 1; i < d.phases.size(); ++i) {
    EXPECT_GE(std::abs(d.phases[i - 1].delta_s),
              std::abs(d.phases[i].delta_s) - 1e-12);
  }
  for (const auto& pd : d.phases) {
    EXPECT_EQ(pd.presence, DiffPresence::kBoth);
    EXPECT_NEAR(pd.delta_s, pd.b_s - pd.a_s, 1e-12);
  }
}

TEST(Diff, SelfDiffIsANoOp) {
  const RunProfile p = profile_for("ft", Mode::kUncachedNvm, 0.25);
  const RunDiff d = diff_profiles(p, p);
  EXPECT_DOUBLE_EQ(d.delta_s, 0.0);
  EXPECT_DOUBLE_EQ(d.speedup, 1.0);
  EXPECT_EQ(d.regressions, 0u);
  EXPECT_EQ(d.improvements, 0u);
  for (const auto& pd : d.phases) EXPECT_TRUE(pd.moved.empty());
}

TEST(Diff, OneSidedPhasesAreReported) {
  const RunProfile a = profile_for("hypre", Mode::kUncachedNvm, 0.25);
  RunProfile b = a;
  // Drop one phase from B and pretend a new one appeared.
  ASSERT_GE(b.phases.size(), 2u);
  b.phases.erase(b.phases.begin());
  PhaseProfile extra = b.phases.back();
  extra.name = "brand-new-phase";
  b.phases.push_back(extra);
  const RunDiff d = diff_profiles(a, b);
  std::size_t only_a = 0, only_b = 0;
  for (const auto& pd : d.phases) {
    if (pd.presence == DiffPresence::kOnlyA) {
      ++only_a;
      EXPECT_EQ(pd.moved, "phase-removed");
      EXPECT_DOUBLE_EQ(pd.b_s, 0.0);
    }
    if (pd.presence == DiffPresence::kOnlyB) {
      ++only_b;
      EXPECT_EQ(pd.moved, "phase-added");
      EXPECT_DOUBLE_EQ(pd.a_s, 0.0);
    }
  }
  EXPECT_EQ(only_a, 1u);
  EXPECT_EQ(only_b, 1u);
}

TEST(Diff, PublishRegistersDiffGauges) {
  const RunProfile p = profile_for("ft", Mode::kUncachedNvm, 0.25);
  MetricsRegistry reg;
  publish_run_diff(diff_profiles(p, p), reg);
  std::set<std::string> names;
  for (const auto& m : reg.metrics()) names.insert(m.name);
  for (const char* n :
       {"diff.delta_s", "diff.speedup", "diff.regressions",
        "diff.improvements"}) {
    EXPECT_TRUE(names.count(n)) << n;
  }
}

// ---------- prometheus exposition ------------------------------------------

// Minimal format check for the text exposition 0.0.4 grammar: every line
// is a `# TYPE`/`# HELP` comment or `name{labels} value`, metric names
// match [a-zA-Z_:][a-zA-Z0-9_:]*, every sample's name is covered by a
// preceding TYPE line for its family, and values parse as doubles.
void check_prometheus(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::set<std::string> typed;
  std::size_t samples = 0;
  auto name_ok = [](const std::string& n) {
    if (n.empty()) return false;
    for (std::size_t i = 0; i < n.size(); ++i) {
      const char c = n[i];
      const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                         c == '_' || c == ':';
      if (!(alpha || (i > 0 && c >= '0' && c <= '9'))) return false;
    }
    return true;
  };
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream t(line.substr(7));
      std::string name, kind;
      t >> name >> kind;
      ASSERT_TRUE(name_ok(name)) << line;
      ASSERT_TRUE(kind == "counter" || kind == "gauge" ||
                  kind == "summary" || kind == "histogram")
          << line;
      typed.insert(name);
      continue;
    }
    if (line[0] == '#') continue;  // HELP or comment
    const std::size_t brace = line.find('{');
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string name =
        line.substr(0, brace == std::string::npos
                           ? line.find(' ')
                           : brace);
    ASSERT_TRUE(name_ok(name)) << line;
    if (brace != std::string::npos) {
      const std::size_t close = line.find('}', brace);
      ASSERT_NE(close, std::string::npos) << line;
    }
    // A summary's quantile/_sum/_count samples belong to the base family.
    std::string family = name;
    for (const char* suffix : {"_sum", "_count"}) {
      const std::string s(suffix);
      if (family.size() > s.size() &&
          family.compare(family.size() - s.size(), s.size(), s) == 0 &&
          typed.count(family.substr(0, family.size() - s.size()))) {
        family = family.substr(0, family.size() - s.size());
      }
    }
    EXPECT_TRUE(typed.count(family)) << "sample before TYPE: " << line;
    char* end = nullptr;
    const std::string value = line.substr(space + 1);
    std::strtod(value.c_str(), &end);
    EXPECT_TRUE(end != nullptr && *end == '\0')
        << "bad value in: " << line;
    ++samples;
  }
  EXPECT_GT(samples, 0u);
}

TEST(Prometheus, SweepExpositionParsesAndIsByteStableAcrossJobs) {
  SweepSpec spec;
  spec.app = "scalapack";
  spec.modes = {Mode::kCachedNvm, Mode::kUncachedNvm};
  spec.threads = {36};
  spec.scales = {0.25};
  spec.telemetry = true;
  spec.jobs = 1;
  const std::string serial = sweep_prometheus(run_sweep(spec));
  check_prometheus(serial);
  EXPECT_NE(serial.find("# TYPE "), std::string::npos);
  EXPECT_NE(serial.find("nvms_"), std::string::npos);
  EXPECT_NE(serial.find("part=\""), std::string::npos);
  spec.jobs = 8;
  EXPECT_EQ(sweep_prometheus(run_sweep(spec)), serial);
}

TEST(Prometheus, PublishedProfileGaugesExport) {
  const RunProfile p = profile_for("ft", Mode::kUncachedNvm, 0.25);
  Telemetry t;
  publish_run_profile(p, t.metrics());
  const std::string text = prometheus_text(t, "ft");
  check_prometheus(text);
  EXPECT_NE(text.find("nvms_analyze_runtime_s"), std::string::npos);
  EXPECT_NE(text.find("nvms_analyze_class_share"), std::string::npos);
}

TEST(Prometheus, HistogramsExportAsSummaries) {
  Telemetry t;
  const auto id = t.metrics().histogram("resolve.span_s");
  for (int i = 1; i <= 64; ++i) {
    t.metrics().observe(id, static_cast<double>(i) / 8.0);
  }
  const std::string text = prometheus_text(t, "unit");
  check_prometheus(text);
  EXPECT_NE(text.find("quantile=\"0.5\""), std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.99\""), std::string::npos);
  EXPECT_NE(text.find("nvms_resolve_span_s_sum"), std::string::npos);
  EXPECT_NE(text.find("nvms_resolve_span_s_count"), std::string::npos);
}

}  // namespace
}  // namespace nvms
