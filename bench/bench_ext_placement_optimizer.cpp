// Extension experiment (beyond the paper): data placement for every
// application, heuristic vs trace-driven — and a self-measured comparison
// of the two trace-driven selectors.
//
// Fig. 12 demonstrates write-aware placement on ScaLAPACK.  Here we apply
// both the paper's heuristic (rank by profiled write intensity) and the
// trace-driven optimizer to all eight applications under the same 35%
// DRAM budget on uncached NVM.  The optimizer runs twice per app: the
// exhaustive full-replay greedy (the reference) and the delta-replay CELF
// selector (placement/trace_optimizer.hpp).  The bench asserts the two
// produce bit-identical plans, promotion orders and runtimes, and reports
// the wall-clock speedup of the delta-replay path.
//
// The eight apps are prepared and optimized concurrently (fixed result
// slots, serial rendering), so the bench itself demonstrates the
// deterministic-parallelism pattern.  `--quick` runs one timing rep for
// CI smoke use; `--jobs N` bounds the app-level workers.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness/registry.hpp"
#include "placement/trace_optimizer.hpp"
#include "placement/write_aware.hpp"
#include "prof/data_profile.hpp"
#include "replay/recording.hpp"
#include "simcore/table.hpp"
#include "simcore/thread_pool.hpp"
#include "simcore/units.hpp"

using namespace nvms;

namespace {

struct BenchRow {
  std::string app;
  double baseline = 0.0;
  double heuristic_time = 0.0;
  WriteAwareResult heuristic;
  TraceOptimizerResult fast;  ///< delta-replay CELF
  TraceOptimizerResult slow;  ///< full-replay exhaustive greedy
  double fast_ms = 0.0;
  double slow_ms = 0.0;
  std::string parity_error;
};

double best_wall_ms(int reps, const std::function<void()>& fn) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    // NVMS_LINT(allow: DET-002, bench measures its own wall-clock speedup)
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    // NVMS_LINT(allow: DET-002, second stamp of the same measurement)
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

bool same_plan(const PlacementPlan& a, const PlacementPlan& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [name, p] : a.entries()) {
    if (b.lookup(name) != p) return false;
  }
  return true;
}

std::string check_parity(const TraceOptimizerResult& fast,
                         const TraceOptimizerResult& slow) {
  if (fast.baseline_runtime != slow.baseline_runtime)
    return "baseline runtime differs";
  if (fast.optimized_runtime != slow.optimized_runtime)
    return "optimized runtime differs";
  if (fast.dram_bytes != slow.dram_bytes) return "DRAM bytes differ";
  if (!same_plan(fast.plan, slow.plan)) return "plans differ";
  if (fast.steps.size() != slow.steps.size())
    return "promotion counts differ";
  for (std::size_t i = 0; i < fast.steps.size(); ++i) {
    if (fast.steps[i].first != slow.steps[i].first)
      return "promotion order differs at step " + std::to_string(i);
    if (fast.steps[i].second != slow.steps[i].second)
      return "step runtime differs at step " + std::to_string(i);
  }
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  int reps = 3;
  int jobs = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      reps = 1;
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      jobs = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--jobs N]\n", argv[0]);
      return 2;
    }
  }

  std::printf(
      "Extension: placement under a 35%% DRAM budget, uncached NVM, "
      "ht=36\n(speedup over no placement; DRAM%% = budget actually "
      "used)\n\n");

  const auto sys_cfg = SystemConfig::testbed(Mode::kUncachedNvm);
  const std::uint64_t budget = sys_cfg.dram.capacity * 35 / 100;
  const auto factory = [sys_cfg] { return MemorySystem(sys_cfg); };

  const auto& apps = app_names();
  std::vector<BenchRow> results(apps.size());
  parallel_for_index(
      apps.size(),
      [&](std::size_t i) {
        BenchRow& r = results[i];
        r.app = apps[i];
        AppConfig cfg;
        cfg.threads = 36;

        // record + profile in one run
        MemorySystem rec_sys(sys_cfg);
        TraceCapture capture(rec_sys);
        AppContext ctx(rec_sys, cfg);
        (void)lookup_app(r.app).emit(ctx);
        const auto rec = capture.finish();
        const auto profiles = collect_data_profile(rec_sys);

        r.heuristic = write_aware_plan(profiles, budget);
        auto base_sys = factory();
        r.baseline = rec.replay(base_sys);
        auto heur_sys = factory();
        r.heuristic_time = rec.replay(heur_sys, &r.heuristic.plan);

        // Self-measurement: exhaustive full-replay greedy vs delta-replay
        // CELF, both serial inside (the apps already run concurrently).
        r.slow_ms = best_wall_ms(reps, [&] {
          r.slow = optimize_placement_full_replay(rec, budget, factory);
        });
        TraceOptimizerOptions opt;
        opt.jobs = 1;
        r.fast_ms = best_wall_ms(reps, [&] {
          r.fast = optimize_placement(rec, budget, factory, opt);
        });
        r.parity_error = check_parity(r.fast, r.slow);
      },
      jobs);

  TextTable t({"app", "write-aware", "DRAM%", "trace-optimized", "DRAM%",
               "picks"});
  for (const auto& r : results) {
    std::string picks;
    for (const auto& [name, time] : r.fast.steps) {
      if (!picks.empty()) picks += ", ";
      picks += name;
      (void)time;
    }
    if (picks.empty()) picks = "(none)";

    auto pct = [&](std::uint64_t bytes) {
      return TextTable::num(100.0 * static_cast<double>(bytes) /
                                static_cast<double>(sys_cfg.dram.capacity),
                            0) +
             "%";
    };
    t.add_row({r.app, TextTable::num(r.baseline / r.heuristic_time, 2) + "x",
               pct(r.heuristic.dram_bytes),
               TextTable::num(r.baseline / r.fast.optimized_runtime, 2) + "x",
               pct(r.fast.dram_bytes), picks});
  }
  std::printf("%s\n", t.render().c_str());
  std::printf(
      "Expected: the optimizer matches or beats the heuristic everywhere\n"
      "(it also promotes buffers whose READS are the bottleneck);\n"
      "compute-bound apps (hacc, laghos) gain little either way.\n\n");

  std::printf(
      "Selector self-measurement: exhaustive full-replay greedy vs\n"
      "delta-replay CELF (identical plans asserted; best of %d rep%s):\n\n",
      reps, reps == 1 ? "" : "s");
  TextTable m({"app", "full-replay ms", "delta-replay ms", "speedup",
               "evals", "replays", "phase-cache hit%"});
  double slow_total = 0.0;
  double fast_total = 0.0;
  bool parity_ok = true;
  for (const auto& r : results) {
    slow_total += r.slow_ms;
    fast_total += r.fast_ms;
    m.add_row({r.app, TextTable::num(r.slow_ms, 2),
               TextTable::num(r.fast_ms, 2),
               TextTable::num(r.slow_ms / r.fast_ms, 1) + "x",
               std::to_string(r.fast.stats.evals),
               std::to_string(r.slow.stats.full_replays) + " -> " +
                   std::to_string(r.fast.stats.full_replays),
               TextTable::num(100.0 * r.fast.stats.phase_cache.hit_rate(),
                              1)});
    if (!r.parity_error.empty()) {
      parity_ok = false;
      std::fprintf(stderr, "PARITY FAILURE (%s): %s\n", r.app.c_str(),
                   r.parity_error.c_str());
    }
  }
  std::printf("%s\n", m.render().c_str());
  std::printf("total: %.2f ms -> %.2f ms (%.1fx)\n", slow_total, fast_total,
              slow_total / fast_total);
  if (!parity_ok) {
    std::fprintf(stderr,
                 "delta-replay selector diverged from the full-replay "
                 "reference\n");
    return 1;
  }
  std::printf("parity: delta-replay plans identical to full replay on all "
              "%zu apps\n", results.size());
  return 0;
}
