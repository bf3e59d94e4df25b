// Tests for the structured sweep runner/CSV export (serial and parallel),
// the experiment executor, and the fixed-window counter re-binning.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <vector>

#include "harness/executor.hpp"
#include "harness/registry.hpp"
#include "harness/sweep.hpp"
#include "mem/space.hpp"
#include "prof/windows.hpp"
#include "simcore/error.hpp"

namespace nvms {
namespace {

// ---------- sweep -----------------------------------------------------------

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// The one-shot run a sweep row stands for: seed = spec.seed.
AppResult one_shot(const std::string& app, const SweepRow& row,
                   std::uint64_t seed) {
  AppConfig cfg;
  cfg.threads = row.threads;
  cfg.size_scale = row.scale;
  cfg.seed = seed;
  return run_app_on(app, SystemConfig::testbed(row.mode), cfg);
}

TEST(Sweep, CartesianProductOrderAndContent) {
  SweepSpec spec;
  spec.app = "hacc";
  spec.modes = {Mode::kDramOnly, Mode::kUncachedNvm};
  spec.threads = {12, 36};
  spec.scales = {1.0};
  const auto rows = run_sweep(spec).rows;
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].mode, Mode::kDramOnly);
  EXPECT_EQ(rows[0].threads, 12);
  EXPECT_EQ(rows[1].threads, 36);
  EXPECT_EQ(rows[2].mode, Mode::kUncachedNvm);
  for (const auto& r : rows) EXPECT_GT(r.result.runtime, 0.0);
}

TEST(Sweep, OversizedConfigurationsAreSkippedNotFatal) {
  SweepSpec spec;
  spec.app = "hypre";
  spec.modes = {Mode::kDramOnly, Mode::kCachedNvm};
  spec.threads = {36};
  spec.scales = {1.0, 3.0};  // 3.0x exceeds DRAM but fits cached-NVM
  const auto result = run_sweep(spec);
  int dram_rows = 0;
  int cached_rows = 0;
  for (const auto& r : result.rows) {
    (r.mode == Mode::kDramOnly ? dram_rows : cached_rows) += 1;
  }
  EXPECT_EQ(dram_rows, 1);    // only the 1.0x fits
  EXPECT_EQ(cached_rows, 2);  // both fit behind the cache
  // the dropped configuration is reported, not silent
  ASSERT_EQ(result.skipped.size(), 1u);
  EXPECT_EQ(result.skipped[0].mode, Mode::kDramOnly);
  EXPECT_EQ(result.skipped[0].threads, 36);
  EXPECT_DOUBLE_EQ(result.skipped[0].scale, 3.0);
  EXPECT_FALSE(result.skipped[0].reason.empty());
  EXPECT_EQ(result.stats.skipped(), 1u);
}

TEST(Sweep, CsvShape) {
  SweepSpec spec;
  spec.app = "hacc";
  spec.modes = {Mode::kDramOnly};
  spec.threads = {24};
  spec.scales = {1.0};
  const auto csv = sweep_csv(run_sweep(spec));
  std::istringstream in(csv);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header,
            "mode,threads,scale,runtime_s,fom,fom_unit,higher_is_better,"
            "read_bw_gbs,write_bw_gbs,ipc,footprint_bytes");
  std::string row;
  ASSERT_TRUE(static_cast<bool>(std::getline(in, row)));
  EXPECT_NE(row.find("dram-only,24,1,"), std::string::npos);
}

TEST(Sweep, Validation) {
  SweepSpec spec;  // empty app
  EXPECT_THROW(run_sweep(spec), ConfigError);
  spec.app = "nope";
  EXPECT_THROW(run_sweep(spec), ConfigError);
  spec.app = "hacc";
  spec.threads = {0};
  EXPECT_THROW(run_sweep(spec), ConfigError);
  spec.threads = {12};
  spec.jobs = -1;
  EXPECT_THROW(run_sweep(spec), ConfigError);
}

// The determinism contract: any worker count yields byte-identical CSVs
// because rows keep grid order and no row depends on another.  Each row is
// the one-shot run of the sweep's input problem (seed = spec.seed) at its
// mode, threads and scale.
TEST(Sweep, ParallelMatchesSerialByteForByte) {
  for (const char* app : {"hacc", "xsbench"}) {
    SweepSpec spec;
    spec.app = app;
    spec.modes = {Mode::kDramOnly, Mode::kCachedNvm, Mode::kUncachedNvm};
    spec.threads = {12, 24};
    spec.scales = {1.0};
    spec.seed = 11;

    spec.jobs = 1;
    const auto serial = run_sweep(spec);
    spec.jobs = 4;
    const auto parallel = run_sweep(spec);

    ASSERT_EQ(serial.rows.size(), 6u) << app;
    ASSERT_EQ(parallel.rows.size(), 6u) << app;
    EXPECT_EQ(sweep_csv(serial), sweep_csv(parallel)) << app;
    EXPECT_EQ(parallel.stats.jobs, 4);
    for (std::size_t i = 0; i < serial.rows.size(); ++i) {
      const AppResult want = one_shot(app, serial.rows[i], spec.seed);
      for (const SweepResult* r : {&serial, &parallel}) {
        const AppResult& got = r->rows[i].result;
        EXPECT_EQ(bits(got.runtime), bits(want.runtime)) << app << " " << i;
        EXPECT_EQ(bits(got.fom), bits(want.fom)) << app << " " << i;
      }
    }
  }
}

TEST(Sweep, StatsCoverTheWholeGrid) {
  SweepSpec spec;
  spec.app = "hacc";
  spec.modes = {Mode::kDramOnly, Mode::kUncachedNvm};
  spec.threads = {12, 24};
  spec.scales = {1.0};
  spec.jobs = 2;
  const auto result = run_sweep(spec);
  ASSERT_EQ(result.stats.tasks.size(),
            result.rows.size() + result.skipped.size());
  EXPECT_GT(result.stats.batch_wall_s, 0.0);
  EXPECT_GT(result.stats.total_task_s(), 0.0);
  EXPECT_GT(result.stats.worker_utilization(), 0.0);
  EXPECT_LE(result.stats.worker_utilization(), 1.0);
  for (std::size_t i = 0; i < result.stats.tasks.size(); ++i) {
    EXPECT_EQ(result.stats.tasks[i].index, i);
    EXPECT_GE(result.stats.tasks[i].wall_s, 0.0);
    EXPECT_FALSE(result.stats.tasks[i].label.empty());
  }
  // the timing export parses as one line per task plus a header
  const std::string csv = sweep_stats_csv(result);
  std::istringstream in(csv);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "task,label,worker,queue_wait_s,wall_s,skipped");
  std::size_t data_lines = 0;
  while (std::getline(in, line)) ++data_lines;
  EXPECT_EQ(data_lines, result.stats.tasks.size());
}

// Only `nvmsim run` runs the numerics (App::host).  A sweep and
// run_app_on are traffic only, so every row and result carries checksum 0.
TEST(Sweep, RowsAndRunAppOnResultsCarryChecksumZero) {
  for (const char* app : {"hacc", "xsbench"}) {
    SweepSpec spec;
    spec.app = app;
    spec.jobs = 4;
    const SweepResult result = run_sweep(spec);
    ASSERT_EQ(result.rows.size(), 12u) << app;
    for (const SweepRow& row : result.rows) {
      EXPECT_EQ(bits(row.result.checksum), 0u)
          << app << " " << to_string(row.mode) << "/" << row.threads;
    }
  }
  std::vector<std::string> apps = app_names();
  apps.insert(apps.end(), extra_app_names().begin(), extra_app_names().end());
  for (const std::string& app : apps) {
    for (const Mode mode : kAllModes) {
      const AppResult r =
          run_app_on(app, SystemConfig::testbed(mode), AppConfig{});
      EXPECT_EQ(bits(r.checksum), 0u) << app << " " << to_string(mode);
    }
  }
}

// ---------- executor --------------------------------------------------------

TEST(Executor, SeedDerivationIsPureAndSpreads) {
  EXPECT_EQ(derive_task_seed(7, 0), derive_task_seed(7, 0));
  EXPECT_NE(derive_task_seed(7, 0), derive_task_seed(7, 1));
  EXPECT_NE(derive_task_seed(7, 0), derive_task_seed(8, 0));
}

TEST(Executor, OutcomesKeepTaskOrder) {
  std::vector<ExperimentConfig> tasks;
  for (const int threads : {12, 24, 36}) {
    ExperimentConfig t;
    t.app = "hacc";
    t.sys = SystemConfig::testbed(Mode::kDramOnly);
    t.cfg.threads = threads;
    tasks.push_back(std::move(t));
  }
  ExecutorStats stats;
  const auto serial = run_experiments(tasks, 1, &stats);
  EXPECT_EQ(stats.jobs, 1);
  const auto parallel = run_experiments(tasks, 3);
  ASSERT_EQ(serial.size(), 3u);
  ASSERT_EQ(parallel.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_FALSE(serial[i].skipped);
    EXPECT_DOUBLE_EQ(serial[i].result.runtime, parallel[i].result.runtime);
  }
}

TEST(Executor, UnknownAppFailsFastAndConfigErrorsPropagate) {
  std::vector<ExperimentConfig> tasks(1);
  tasks[0].app = "nope";
  tasks[0].sys = SystemConfig::testbed(Mode::kDramOnly);
  EXPECT_THROW(run_experiments(tasks, 2), ConfigError);

  tasks[0].app = "hacc";
  tasks[0].cfg.threads = 0;  // invalid: AppContext validation throws
  EXPECT_THROW(run_experiments(tasks, 2), ConfigError);
}

// ---------- windowed re-binning ---------------------------------------------

CounterSample mk_sample(const char* phase, double t0, double t1,
                        double insns) {
  CounterSample s;
  s.phase = phase;
  s.t0 = t0;
  s.t1 = t1;
  s.delta.instructions = insns;
  s.delta.cycles_active = 2 * insns;
  s.delta.imc_reads = insns / 10;
  return s;
}

TEST(Windows, SplitsProportionally) {
  // one phase spanning [0, 1) with 100 instructions, windows of 0.25s
  const auto out = rebin_windows({mk_sample("p", 0.0, 1.0, 100)}, 0.25);
  ASSERT_EQ(out.size(), 4u);
  for (const auto& w : out) {
    EXPECT_NEAR(w.delta.instructions, 25.0, 1e-9);
    EXPECT_NEAR(w.ipc(), 0.5, 1e-12);
  }
}

TEST(Windows, ConservesTotals) {
  std::vector<CounterSample> samples = {
      mk_sample("a", 0.0, 0.3, 30),
      mk_sample("b", 0.3, 0.95, 650),
      mk_sample("c", 0.95, 1.4, 45),
  };
  const auto out = rebin_windows(samples, 0.5);
  ASSERT_EQ(out.size(), 3u);
  double total = 0.0;
  for (const auto& w : out) total += w.delta.instructions;
  EXPECT_NEAR(total, 725.0, 1e-9);
  // window boundaries tile the span
  EXPECT_DOUBLE_EQ(out[0].t0, 0.0);
  EXPECT_DOUBLE_EQ(out[1].t0, 0.5);
  EXPECT_NEAR(out[2].t1, 1.4, 1e-12);
}

TEST(Windows, WindowLargerThanRunYieldsOneBin) {
  const auto out = rebin_windows({mk_sample("p", 0.0, 0.2, 10)}, 5.0);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NEAR(out[0].delta.instructions, 10.0, 1e-12);
}

TEST(Windows, ZeroDurationPhasesConserveCounts) {
  // Instantaneous phases still carry counter deltas (flop-proportional
  // instructions); re-binning must not drop them.
  std::vector<CounterSample> samples = {
      mk_sample("a", 0.0, 0.4, 40),
      mk_sample("sync", 0.4, 0.4, 7),   // zero duration, mid-trace
      mk_sample("b", 0.4, 1.0, 60),
      mk_sample("end", 1.0, 1.0, 5),    // zero duration at t_end
  };
  const auto out = rebin_windows(samples, 0.5);
  ASSERT_EQ(out.size(), 2u);
  double total = 0.0;
  for (const auto& w : out) total += w.delta.instructions;
  EXPECT_NEAR(total, 112.0, 1e-9);
  // window 0: all of a (40) + the sync marker (7) + b's [0.4,0.5) slice
  // (60 * 0.1/0.6 = 10); window 1: the rest of b (50) + the clamped
  // t_end marker (5).
  EXPECT_NEAR(out[0].delta.instructions, 57.0, 1e-9);
  EXPECT_NEAR(out[1].delta.instructions, 55.0, 1e-9);
}

TEST(Windows, AllZeroDurationYieldsNoWindows) {
  // A trace with no time extent has no windows to bin into.
  const auto out = rebin_windows({mk_sample("a", 0.5, 0.5, 10)}, 0.1);
  EXPECT_TRUE(out.empty());
}

TEST(Windows, NonIntegerWindowSplitSumsExactly) {
  // 1.0s of samples over 0.3s windows: 4 windows, last one 0.1s wide;
  // the proportional split must conserve the total.
  std::vector<CounterSample> samples = {
      mk_sample("a", 0.0, 0.45, 450),
      mk_sample("b", 0.45, 1.0, 550),
  };
  const auto out = rebin_windows(samples, 0.3);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_NEAR(out[3].t1 - out[3].t0, 0.1, 1e-12);
  double total = 0.0;
  for (const auto& w : out) total += w.delta.instructions;
  EXPECT_NEAR(total, 1000.0, 1e-9);
  // each full window of the uniform-rate trace carries ~300 instructions
  EXPECT_NEAR(out[0].delta.instructions, 300.0, 1e-9);
  EXPECT_NEAR(out[1].delta.instructions, 300.0, 1e-9);
  EXPECT_NEAR(out[2].delta.instructions, 300.0, 1e-9);
  EXPECT_NEAR(out[3].delta.instructions, 100.0, 1e-9);
}

TEST(Windows, EmptyAndInvalidInputs) {
  EXPECT_TRUE(rebin_windows({}, 0.1).empty());
  EXPECT_THROW(rebin_windows({mk_sample("p", 0, 1, 1)}, 0.0), ConfigError);
}

}  // namespace
}  // namespace nvms
