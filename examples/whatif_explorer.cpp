// What-if explorer: record one run of an application, then replay its
// phase trace against hypothetical next-generation NVM devices — the
// design-space question the paper's conclusion points at ("insights for
// designing and exploiting NVM-based main memory on future
// supercomputers"), answered in milliseconds per point via the trace.
//
//   ./whatif_explorer [app]        (default: ft)
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "nvms/nvms.hpp"

int main(int argc, char** argv) {
  using namespace nvms;
  const std::string app = argc > 1 ? argv[1] : "ft";

  // 1. Record the phase trace once (uncached NVM, the paper's ht=36).
  AppConfig cfg;
  cfg.threads = 36;
  MemorySystem rec_sys(SystemConfig::testbed(Mode::kUncachedNvm));
  TraceCapture capture(rec_sys);
  AppContext ctx(rec_sys, cfg);
  (void)lookup_app(app).emit(ctx);
  const PhaseRecording rec = capture.finish();
  const double dram_baseline = [&] {
    MemorySystem sys(SystemConfig::testbed(Mode::kDramOnly));
    return rec.replay(sys);
  }();

  std::printf("Recorded '%s': %zu phases, %s of traffic.\n", app.c_str(),
              rec.phases.size(), format_bytes(rec.total_bytes()).c_str());
  std::printf("DRAM-only baseline for the same trace: %s\n\n",
              format_time(dram_baseline).c_str());

  // 2. Hypothetical device generations.
  struct Device {
    const char* name;
    double write_mult;       ///< on the 13 GB/s write peak
    double read_mult;        ///< on the 39 GB/s read peak
    bool flat_write_scaling; ///< WPQ contention solved?
  };
  const Device generations[] = {
      {"Optane gen-1 (calibrated)", 1.0, 1.0, false},
      {"2x write bandwidth", 2.0, 1.0, false},
      {"2x write + no WPQ contention", 2.0, 1.0, true},
      {"2x read + 2x write", 2.0, 2.0, false},
      {"DRAM-class NVM (4x/3x, flat)", 3.0, 4.0, true},
  };

  // Each hypothetical device replays the same (const) recording on its
  // own MemorySystem — evaluate all generations concurrently.
  constexpr std::size_t kGenerations = std::size(generations);
  std::vector<double> times(kGenerations);
  parallel_for_index(kGenerations, [&](std::size_t i) {
    const Device& gen = generations[i];
    SystemConfig sys_cfg = SystemConfig::testbed(Mode::kUncachedNvm);
    sys_cfg.nvm.write_bw_peak *= gen.write_mult;
    sys_cfg.nvm.read_bw_peak *= gen.read_mult;
    sys_cfg.nvm.combined_bw_peak *=
        std::max(gen.write_mult, gen.read_mult);
    if (gen.flat_write_scaling) {
      sys_cfg.nvm.write_scaling = ScalingCurve{{{1, 1.0}}};
    }
    MemorySystem sys(sys_cfg);
    times[i] = rec.replay(sys);
  });

  TextTable t({"device", "runtime", "slowdown vs DRAM"});
  for (std::size_t i = 0; i < kGenerations; ++i) {
    t.add_row({generations[i].name, format_time(times[i]),
               TextTable::num(times[i] / dram_baseline, 2) + "x"});
  }
  std::printf("%s\n", t.render().c_str());
  std::printf(
      "Reading: for write-throttled workloads, fixing the concurrency\n"
      "collapse (the WPQ contention) matters more than raw write peaks —\n"
      "the same conclusion the ablation bench reaches from full reruns.\n");
  return 0;
}
