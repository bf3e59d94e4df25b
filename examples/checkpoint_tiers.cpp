// Checkpoint-tier explorer (Sec. IV-E): run a time-stepped application
// with periodic snapshots and compare the overhead across the storage
// hierarchy — tmpfs, DAX ext4 on NVM, local RAID, Lustre.
//
//   ./checkpoint_tiers [interval_steps]      (default: 5)
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "nvms/nvms.hpp"

int main(int argc, char** argv) {
  using namespace nvms;
  const int interval = argc > 1 ? std::atoi(argv[1]) : 5;
  require(interval > 0, "interval must be positive");

  std::printf("Laghos with a snapshot every %d steps\n\n", interval);

  // App data lives in DRAM (AppDirect mode); NVM holds snapshot files.
  PlacementPlan in_dram;
  in_dram.set("mesh_state", Placement::kDram);
  in_dram.set("quadrature_data", Placement::kDram);

  auto run_tier = [&](const StorageTier* tier) {
    MemorySystem sys(SystemConfig::testbed(Mode::kUncachedNvm));
    std::unique_ptr<SnapshotWriter> writer;
    AppConfig cfg;
    cfg.threads = 36;
    cfg.placement = &in_dram;
    if (tier != nullptr) {
      writer = std::make_unique<SnapshotWriter>(sys, *tier);
      cfg.step_hook = [&writer, interval](MemorySystem&, int step,
                                          BufferId state,
                                          std::uint64_t bytes) {
        if ((step + 1) % interval == 0) (void)writer->write(state, bytes, 36);
      };
    }
    AppContext ctx(sys, cfg);
    (void)lookup_app("laghos").emit(ctx);
    return std::pair{sys.now(), writer ? writer->total_time() : 0.0};
  };

  const auto [base_time, unused] = run_tier(nullptr);
  (void)unused;
  TextTable t({"tier", "persistent", "runtime", "snapshot time", "overhead"});
  t.add_row({"(none)", "-", format_time(base_time), "-", "0%"});
  for (const auto& tier : StorageTier::all()) {
    const auto [total, snap] = run_tier(&tier);
    char pct[16];
    std::snprintf(pct, sizeof pct, "%.1f%%", 100.0 * snap / total);
    t.add_row({tier.name, tier.persistent ? "yes" : "no", format_time(total),
               format_time(snap), pct});
  }
  std::printf("%s\n", t.render().c_str());
  std::printf(
      "The DAX tier turns checkpoints nearly free (a few %% overhead)\n"
      "while remaining persistent — the paper's Sec. IV-E takeaway.\n");
  return 0;
}
