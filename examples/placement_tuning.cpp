// Placement tuning walkthrough: the full write-aware optimization loop of
// Sec. V-B, applied to any registered application.
//
//   ./placement_tuning [app] [dram_budget_percent]   (default: scalapack 35)
//
//   1. profile the app on uncached-NVM (data-centric per-buffer traffic),
//      capturing the phase trace of the same run;
//   2. plan: keep the most write-intensive structures in DRAM under the
//      budget, then let the trace-driven optimizer (delta-replay CELF)
//      search for a better plan on the recorded trace;
//   3. re-run with the plans and compare against DRAM-only / uncached-NVM,
//      plus the read-aware validation placement.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "nvms/nvms.hpp"

int main(int argc, char** argv) {
  using namespace nvms;
  const std::string app = argc > 1 ? argv[1] : "scalapack";
  const int budget_pct = argc > 2 ? std::atoi(argv[2]) : 35;
  require(budget_pct > 0 && budget_pct <= 100, "budget must be in (0,100]");

  const SystemConfig sys_cfg = SystemConfig::testbed(Mode::kUncachedNvm);
  const std::uint64_t budget =
      sys_cfg.dram.capacity * static_cast<unsigned>(budget_pct) / 100;
  AppConfig cfg;
  cfg.threads = 36;

  // -- 1. profile (and record the phase trace of the same run) ----------
  MemorySystem prof_sys(sys_cfg);
  TraceCapture capture(prof_sys);
  AppContext prof_ctx(prof_sys, cfg);
  (void)lookup_app(app).emit(prof_ctx);
  const auto rec = capture.finish();
  const auto profiles = collect_data_profile(prof_sys);

  std::printf("Data-centric profile of '%s' (uncached-NVM):\n\n",
              app.c_str());
  TextTable prof_table({"buffer", "size", "read traffic", "write traffic",
                        "write intensity"});
  for (const auto& p : profiles) {
    prof_table.add_row({p.name, format_bytes(p.bytes),
                        format_bytes(p.read_bytes),
                        format_bytes(p.write_bytes),
                        TextTable::num(p.write_intensity(), 1)});
  }
  std::printf("%s\n", prof_table.render().c_str());

  // -- 2. plan ----------------------------------------------------------
  const auto wa = write_aware_plan(profiles, budget);
  const auto ra = read_aware_plan(profiles, budget, wa.in_dram);
  std::printf("Write-aware plan (budget %s = %d%% of DRAM):\n",
              format_bytes(budget).c_str(), budget_pct);
  if (wa.in_dram.empty()) std::printf("  (nothing promoted)\n");
  for (const auto& name : wa.in_dram)
    std::printf("  -> DRAM: %s\n", name.c_str());
  std::printf("  DRAM used: %s\n\n", format_bytes(wa.dram_bytes).c_str());

  // The trace-driven optimizer evaluates candidate plans exactly on the
  // recorded trace (delta-replay; microseconds per candidate) instead of
  // ranking by a traffic heuristic — it also finds read-bound promotions.
  const auto opt = optimize_placement(
      rec, budget, [&sys_cfg] { return MemorySystem(sys_cfg); });
  std::printf("Trace-optimized plan (%llu candidate evaluations):\n",
              static_cast<unsigned long long>(opt.stats.evals));
  if (opt.steps.empty()) std::printf("  (nothing promoted)\n");
  for (const auto& [name, runtime] : opt.steps) {
    std::printf("  -> DRAM: %s (replayed runtime %s)\n", name.c_str(),
                format_time(runtime).c_str());
  }
  std::printf("  DRAM used: %s\n\n", format_bytes(opt.dram_bytes).c_str());

  // -- 3. compare -------------------------------------------------------
  auto run_planned = [&](const PlacementPlan* plan) {
    AppConfig c = cfg;
    c.placement = plan;
    return run_app(app, Mode::kUncachedNvm, c);
  };
  const auto dram = run_app(app, Mode::kDramOnly, cfg);
  const auto uncached = run_planned(nullptr);
  const auto optimized = run_planned(&wa.plan);
  const auto validation = run_planned(&ra.plan);
  const auto trace_opt = run_planned(&opt.plan);

  TextTable t({"configuration", "runtime", "vs uncached"});
  auto row = [&](const char* name, const AppResult& r) {
    t.add_row({name, format_time(r.runtime),
               TextTable::num(uncached.runtime / r.runtime, 2) + "x"});
  };
  row("dram-only", dram);
  row("uncached-nvm", uncached);
  row("write-aware placement", optimized);
  row("read-aware (validation)", validation);
  row("trace-optimized placement", trace_opt);
  std::printf("%s\n", t.render().c_str());
  return 0;
}
