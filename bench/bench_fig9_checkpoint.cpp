// Figure 9: leveraging memory persistence for Laghos snapshots.
//
//  (a) Snapshot overhead on four storage tiers (tmpfs on DRAM, DAX ext4 on
//      the Optane, ext4 on local RAID, Lustre): the Optane tier should add
//      only 2-5% overhead — about 4x less than the other persistent tiers.
//  (b) NVM/DRAM traffic interaction: periodic write-only NVM bursts
//      (~2 GB/s) that do not interfere with the DRAM traffic.
//
// Setup mirrors the paper's AppDirect configuration: the application data
// lives in DRAM; the NVM holds only the persistent snapshot files.
#include <cstdio>
#include <memory>

#include "harness/registry.hpp"
#include "harness/ascii_plot.hpp"
#include "harness/report.hpp"
#include "mem/placement_plan.hpp"
#include "simcore/table.hpp"
#include "simcore/units.hpp"
#include "storage/tiers.hpp"

using namespace nvms;

namespace {

struct CkptRun {
  double runtime = 0.0;
  double overhead = 0.0;  ///< snapshot share of the instrumented runtime
  RunTraces traces;
};

CkptRun run_with_snapshots(const StorageTier* tier, int interval) {
  const SystemConfig sys_cfg = SystemConfig::testbed(Mode::kUncachedNvm);
  MemorySystem sys(sys_cfg);

  PlacementPlan in_dram;
  in_dram.set("mesh_state", Placement::kDram);
  in_dram.set("quadrature_data", Placement::kDram);

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

  CkptRun out;
  out.runtime = sys.now();
  out.overhead = writer ? writer->total_time() / out.runtime : 0.0;
  out.traces = sys.traces();
  return out;
}

}  // namespace

int main() {
  std::printf("Figure 9a: Laghos snapshot overhead per storage tier "
              "(every 5 steps)\n\n");
  const auto base = run_with_snapshots(nullptr, 5);
  TextTable t({"tier", "persistent", "runtime (s)", "overhead"});
  t.add_row({"(no snapshots)", "-", TextTable::num(base.runtime, 3), "0%"});
  for (const auto& tier : StorageTier::all()) {
    const auto run = run_with_snapshots(&tier, 5);
    char pct[16];
    std::snprintf(pct, sizeof pct, "%.1f%%", 100.0 * run.overhead);
    t.add_row({tier.name, tier.persistent ? "yes" : "no",
               TextTable::num(run.runtime, 3), pct});
  }
  std::printf("%s\n", t.render().c_str());
  std::printf(
      "Expected: tmpfs lowest (non-persistent bound); dax-ext4-nvm within\n"
      "2-5%%, ~4x less overhead than RAID/Lustre.\n\n");

  std::printf("Figure 9b: NVM vs DRAM traffic during snapshots "
              "(dax-ext4-nvm)\n\n");
  const auto dax =
      run_with_snapshots(&StorageTier::by_kind(TierKind::kDaxNvm), 5);
  std::printf("%s\n",
              ascii_plot({{"DRAM read", &dax.traces.dram_read, '*'},
                          {"NVM write (snapshots)", &dax.traces.nvm_write,
                           'o'}},
                         96, 14)
                  .c_str());
  std::printf(
      "Expected: periodic write-only NVM bursts; the DRAM traffic pattern\n"
      "is unchanged between bursts (no interference).\n");
  return 0;
}
