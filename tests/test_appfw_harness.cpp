// Tests for the application framework (AppContext, RunRecorder,
// finalize_result), the registry, and the report rendering helpers.
#include <gtest/gtest.h>

#include "appfw/result.hpp"
#include "harness/registry.hpp"
#include "harness/ascii_plot.hpp"
#include "harness/report.hpp"
#include "simcore/units.hpp"

namespace nvms {
namespace {

SystemConfig tiny() {
  SystemConfig cfg = SystemConfig::testbed(Mode::kUncachedNvm);
  return cfg;
}

TEST(AppConfig, Validation) {
  AppConfig cfg;
  cfg.threads = 0;
  MemorySystem sys(tiny());
  EXPECT_THROW(AppContext(sys, cfg), ConfigError);
  cfg.threads = 4;
  cfg.size_scale = -1.0;
  EXPECT_THROW(AppContext(sys, cfg), ConfigError);
  cfg.size_scale = 1.0;
  cfg.iterations = -2;
  EXPECT_THROW(AppContext(sys, cfg), ConfigError);
}

TEST(AppContext, AllocHonoursPlacementPlan) {
  MemorySystem sys(tiny());
  PlacementPlan plan;
  plan.set("hot", Placement::kDram);
  AppConfig cfg;
  cfg.placement = &plan;
  AppContext ctx(sys, cfg);
  auto hot = ctx.alloc<double>("hot", 128);
  auto other = ctx.alloc<double>("other", 128);
  EXPECT_EQ(hot.placement(), Placement::kDram);
  EXPECT_EQ(other.placement(), Placement::kAuto);
}

TEST(AppContext, VirtualFootprintAlloc) {
  MemorySystem sys(tiny());
  AppConfig cfg;
  AppContext ctx(sys, cfg);
  auto buf = ctx.alloc<double>("big", 1 << 20);
  EXPECT_EQ(buf.bytes(), (1u << 20) * sizeof(double));  // simulated bytes
  EXPECT_THROW(ctx.alloc<double>("bad", 0), ConfigError);
}

TEST(RunRecorder, CollectsPerPhaseSamples) {
  MemorySystem sys(tiny());
  AppConfig cfg;
  AppContext ctx(sys, cfg);
  auto buf = ctx.alloc<double>("x", 1 << 16);
  ctx.run(PhaseBuilder("first")
              .threads(8)
              .flops(1e8)
              .stream(seq_read(buf.id(), 16 * MiB))
              .build());
  ctx.run(PhaseBuilder("second")
              .threads(8)
              .stream(seq_write(buf.id(), 4 * MiB))
              .build());
  const auto& samples = ctx.recorder().samples();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].phase, "first");
  EXPECT_GT(samples[0].delta.instructions, 1e8);
  EXPECT_GT(samples[0].ipc(), 0.0);
  EXPECT_GT(samples[1].delta.imc_writes, 0.0);
  EXPECT_DOUBLE_EQ(samples[1].delta.imc_reads, 0.0);
  // samples tile the virtual timeline
  EXPECT_DOUBLE_EQ(samples[0].t0, 0.0);
  EXPECT_DOUBLE_EQ(samples[0].t1, samples[1].t0);
  EXPECT_NEAR(ctx.recorder().recorded_time(), sys.now(), 1e-12);
  const auto total = ctx.recorder().total();
  EXPECT_DOUBLE_EQ(total.instructions, samples[0].delta.instructions +
                                           samples[1].delta.instructions);
}

TEST(FinalizeResult, CopiesRunState) {
  MemorySystem sys(tiny());
  AppConfig cfg;
  AppContext ctx(sys, cfg);
  auto buf = ctx.alloc<double>("x", 1 << 16);
  ctx.run(PhaseBuilder("p").threads(4).stream(seq_read(buf.id(), MiB)).build());
  const auto r = finalize_result(ctx, "demo");
  EXPECT_EQ(r.app, "demo");
  EXPECT_EQ(r.mode, "uncached-nvm");
  EXPECT_DOUBLE_EQ(r.runtime, sys.now());
  EXPECT_EQ(r.samples.size(), 1u);
  EXPECT_EQ(r.footprint, buf.bytes());
}

TEST(Registry, AllEightAppsPresent) {
  const auto& names = app_names();
  ASSERT_EQ(names.size(), 8u);
  // Table III presentation order (ascending slowdown).
  EXPECT_EQ(names.front(), "hacc");
  EXPECT_EQ(names.back(), "ft");
  for (const auto& n : names) {
    const App& app = lookup_app(n);
    EXPECT_EQ(app.name(), n);
    EXPECT_FALSE(app.dwarf().empty());
    EXPECT_FALSE(app.input_problem().empty());
  }
}

TEST(Registry, UnknownAppThrows) {
  EXPECT_THROW(lookup_app("linpack"), ConfigError);
  EXPECT_THROW(run_app("nope", Mode::kDramOnly, AppConfig{}), ConfigError);
}

TEST(Report, TraceTableShape) {
  MemorySystem sys(tiny());
  const auto id = sys.register_buffer("b", MiB);
  (void)sys.submit(
      PhaseBuilder("p").threads(8).stream(seq_read(id, 256 * MiB)).build());
  const auto table = render_trace_table(sys.traces(), 6);
  // header + separator + 6 rows
  EXPECT_EQ(std::count(table.begin(), table.end(), '\n'), 8);
  const auto csv = render_trace_csv(sys.traces(), 6);
  EXPECT_NE(csv.find("t_s,dram_read_gbs"), std::string::npos);
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 7);
}

TEST(Report, PhaseShareFormatting) {
  MemorySystem sys(tiny());
  const auto id = sys.register_buffer("b", MiB);
  (void)sys.submit(
      PhaseBuilder("alpha").threads(8).stream(seq_read(id, MiB)).build());
  (void)sys.submit(
      PhaseBuilder("beta").threads(8).stream(seq_read(id, MiB)).build());
  EXPECT_EQ(phase_share(sys.traces(), "alpha"), "50%");
}

TEST(StepHook, InvokedEveryTimestep) {
  MemorySystem sys(tiny());
  AppConfig cfg;
  cfg.iterations = 6;
  int calls = 0;
  cfg.step_hook = [&calls](MemorySystem&, int, BufferId, std::uint64_t) {
    ++calls;
  };
  AppContext ctx(sys, cfg);
  (void)lookup_app("laghos").emit(ctx);
  EXPECT_EQ(calls, 6);
}

TEST(AsciiPlot, RendersCurveAndLegend) {
  TimeSeries ts;
  ts.add_segment(0.0, 0.5, gbps(10));
  ts.add_segment(0.5, 1.0, gbps(40));
  const auto plot = ascii_plot({{"read", &ts, '*'}}, 40, 8);
  EXPECT_NE(plot.find("[*] read"), std::string::npos);
  EXPECT_NE(plot.find("40.0 |"), std::string::npos);
  // 8 canvas rows + axis + legend
  EXPECT_EQ(std::count(plot.begin(), plot.end(), '\n'), 10);
  EXPECT_NE(plot.find('*'), std::string::npos);
}

TEST(AsciiPlot, Validation) {
  EXPECT_THROW(ascii_plot({}), ConfigError);
  TimeSeries ts;
  ts.add_segment(0.0, 1.0, 1.0);
  EXPECT_THROW(ascii_plot({{"x", &ts, '*'}}, 4, 2), ConfigError);
}

}  // namespace
}  // namespace nvms
