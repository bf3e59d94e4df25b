// Figure 12: write-aware data placement in ScaLAPACK (Sec. V-B).
//
// A data-centric profiling run on uncached-NVM ranks the application's
// buffers by write intensity; the planner promotes the most write-intensive
// structures (the C output tiles) into DRAM under a budget of ~30% of the
// DRAM capacity.  The optimized run should reach DRAM-like performance at
// every problem size — ~2x over plain uncached-NVM — while the validation
// run (promoting the most READ-intensive structures instead) shows little
// benefit, exactly as the paper reports.
#include <cstdio>

#include "harness/registry.hpp"
#include "placement/write_aware.hpp"
#include "prof/data_profile.hpp"
#include "simcore/table.hpp"
#include "simcore/units.hpp"

using namespace nvms;

namespace {

AppResult run_with_plan(const std::string& app, const AppConfig& base,
                        const PlacementPlan* plan) {
  AppConfig cfg = base;
  cfg.placement = plan;
  return run_app(app, Mode::kUncachedNvm, cfg);
}

}  // namespace

int main() {
  std::printf("Figure 12: write-aware placement in ScaLAPACK\n\n");

  const auto sys_cfg = SystemConfig::testbed(Mode::kUncachedNvm);
  const std::uint64_t budget = sys_cfg.dram.capacity * 35 / 100;

  TextTable t({"size", "dram-only (s)", "cached (s)", "uncached (s)",
               "write-aware (s)", "read-aware (s)", "DRAM used"});
  for (double size : {0.5, 0.75, 1.0}) {
    AppConfig cfg;
    cfg.threads = 36;
    cfg.size_scale = size;

    // 1. Profiling run on plain uncached-NVM (the data-centric tool).
    MemorySystem prof_sys(sys_cfg);
    AppContext prof_ctx(prof_sys, cfg);
    (void)lookup_app("scalapack").emit(prof_ctx);
    const auto profiles = collect_data_profile(prof_sys);

    // 2. Plans: write-aware and the read-aware validation.
    const auto wa = write_aware_plan(profiles, budget);
    const auto ra = read_aware_plan(profiles, budget, wa.in_dram);

    // 3. Comparison runs.
    const auto dram = run_app("scalapack", Mode::kDramOnly, cfg);
    const auto cached = run_app("scalapack", Mode::kCachedNvm, cfg);
    const auto uncached = run_with_plan("scalapack", cfg, nullptr);
    const auto optimized = run_with_plan("scalapack", cfg, &wa.plan);
    const auto validation = run_with_plan("scalapack", cfg, &ra.plan);

    char used[32];
    std::snprintf(used, sizeof used, "%.0f%%",
                  100.0 * static_cast<double>(wa.dram_bytes) /
                      static_cast<double>(sys_cfg.dram.capacity));
    t.add_row({TextTable::num(size, 1) + "x", TextTable::num(dram.runtime, 3),
               TextTable::num(cached.runtime, 3),
               TextTable::num(uncached.runtime, 3),
               TextTable::num(optimized.runtime, 3),
               TextTable::num(validation.runtime, 3), used});

    if (size == 1.0) {
      std::printf("Write-aware plan at 1.0x (DRAM budget %s):\n",
                  format_bytes(budget).c_str());
      for (const auto& name : wa.in_dram)
        std::printf("  -> DRAM: %s\n", name.c_str());
      std::printf("\n");
    }
  }
  std::printf("%s\n", t.render().c_str());
  std::printf(
      "Expected: write-aware ~ DRAM-like (>=2x over uncached) using only\n"
      "~30%% of DRAM; read-aware placement shows little improvement.\n");
  return 0;
}
