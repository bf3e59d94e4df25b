// The two halves of every registered app are independent: the host step
// (App::host) is a pure function of (seed, iterations, size_scale) that no
// thread count, placement plan or step hook reaches, and the traffic
// emitter (App::emit) submits phases that no numeric result reaches.  So
// every output but `nvmsim run`'s checksum comes from the traffic alone,
// and sweeps and run_app_on skip the numerics (harness/registry.hpp).
// AllApps.OutputsPinnedBitForBit pins each app's host(cfg).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "harness/registry.hpp"
#include "mem/placement_plan.hpp"
#include "mem/space.hpp"
#include "replay/recording.hpp"

namespace nvms {
namespace {

std::vector<std::string> registered_apps() {
  std::vector<std::string> names = app_names();
  const auto& extra = extra_app_names();
  names.insert(names.end(), extra.begin(), extra.end());
  return names;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// The emitter's phases at `cfg` on the uncached-NVM testbed.
PhaseRecording emitted(const std::string& app, const AppConfig& cfg) {
  MemorySystem sys(SystemConfig::testbed(Mode::kUncachedNvm));
  TraceCapture capture(sys);
  AppContext ctx(sys, cfg);
  (void)lookup_app(app).emit(ctx);
  return capture.finish();
}

class HostAndTraffic : public ::testing::TestWithParam<std::string> {};

TEST_P(HostAndTraffic, HostStepIgnoresThreadsPlacementAndHook) {
  const App& app = lookup_app(GetParam());
  AppConfig cfg;
  const double host = app.host(cfg);
  for (const int threads : {12, 48}) {
    cfg.threads = threads;
    EXPECT_EQ(bits(app.host(cfg)), bits(host)) << "threads=" << threads;
  }

  // Promote the app's first buffer to DRAM, and checkpoint the state
  // buffer at every step of apps that have a hook point.
  const PhaseRecording traffic = emitted(GetParam(), cfg);
  ASSERT_FALSE(traffic.buffers.empty());
  PlacementPlan plan;
  plan.set(traffic.buffers.front().name, Placement::kDram);
  cfg.placement = &plan;
  EXPECT_EQ(bits(app.host(cfg)), bits(host)) << "placement plan";
  cfg.step_hook = [](MemorySystem& sys, int, BufferId state,
                     std::uint64_t bytes) {
    (void)sys.submit(PhaseBuilder("checkpoint")
                         .threads(4)
                         .stream(seq_write(state, bytes))
                         .build());
  };
  EXPECT_EQ(bits(app.host(cfg)), bits(host)) << "step hook";
}

// The seed is a numerics input only: every phase byte, buffer name and
// size is the same whatever it draws.
TEST_P(HostAndTraffic, TrafficIsIndependentOfTheSeed) {
  AppConfig a;
  a.seed = 7;
  AppConfig b;
  b.seed = 8;
  const std::string text = emitted(GetParam(), a).save();
  EXPECT_FALSE(text.empty());
  EXPECT_EQ(text, emitted(GetParam(), b).save());
}

INSTANTIATE_TEST_SUITE_P(EveryApp, HostAndTraffic,
                         ::testing::ValuesIn(registered_apps()));

}  // namespace
}  // namespace nvms
