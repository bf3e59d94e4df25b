// Delta-replay evaluator tests: every evaluation must be bit-identical to
// a full replay of the same plan on a fresh system — across placement
// flips, arbitrary plans, commits, NUMA configurations and the Memory-mode
// fallback.  CapacityError behaviour must also match what a replay would
// raise at buffer-registration time.
#include <gtest/gtest.h>

#include <algorithm>

#include "harness/registry.hpp"
#include "obs/metrics.hpp"
#include "placement/replay_evaluator.hpp"
#include "replay/recording.hpp"
#include "simcore/units.hpp"

namespace nvms {
namespace {

PhaseRecording record(const std::string& app, int threads = 36) {
  MemorySystem sys(SystemConfig::testbed(Mode::kUncachedNvm));
  TraceCapture capture(sys);
  AppConfig cfg;
  cfg.threads = threads;
  AppContext ctx(sys, cfg);
  (void)lookup_app(app).emit(ctx);
  return capture.finish();
}

std::function<MemorySystem()> factory(const SystemConfig& cfg) {
  return [cfg] { return MemorySystem(cfg); };
}

double reference_replay(const PhaseRecording& rec, const SystemConfig& cfg,
                        const PlacementPlan& plan) {
  MemorySystem sys(cfg);
  return rec.replay(sys, &plan);
}

TEST(ReplayEvaluator, BaselineMatchesFullReplay) {
  const auto rec = record("superlu");
  const auto cfg = SystemConfig::testbed(Mode::kUncachedNvm);
  ReplayEvaluator ev(rec, factory(cfg));
  EXPECT_TRUE(ev.incremental());
  MemorySystem sys(cfg);
  EXPECT_EQ(ev.baseline(), rec.replay(sys));
  EXPECT_EQ(ev.current_runtime(), ev.baseline());
}

TEST(ReplayEvaluator, FlipIsBitIdenticalToFullReplayForEveryBuffer) {
  const auto rec = record("scalapack");
  const auto cfg = SystemConfig::testbed(Mode::kUncachedNvm);
  const ReplayEvaluator ev(rec, factory(cfg));
  for (std::size_t i = 0; i < rec.buffers.size(); ++i) {
    PlacementPlan plan;
    plan.set(rec.buffers[i].name, Placement::kDram);
    double want = 0.0;
    bool want_throw = false;
    try {
      want = reference_replay(rec, cfg, plan);
    } catch (const CapacityError&) {
      want_throw = true;
    }
    if (want_throw) {
      EXPECT_THROW((void)ev.evaluate_flip(i, Placement::kDram), CapacityError)
          << rec.buffers[i].name;
    } else {
      EXPECT_EQ(ev.evaluate_flip(i, Placement::kDram), want)
          << rec.buffers[i].name;
    }
  }
}

TEST(ReplayEvaluator, ArbitraryPlanMatchesFullReplay) {
  const auto rec = record("ft");
  const auto cfg = SystemConfig::testbed(Mode::kUncachedNvm);
  const ReplayEvaluator ev(rec, factory(cfg));
  // promote the first buffers that fit half the DRAM, pin one to NVM
  PlacementPlan plan;
  std::uint64_t used = 0;
  for (const auto& b : rec.buffers) {
    if (used + b.bytes <= cfg.dram.capacity / 2) {
      plan.set(b.name, Placement::kDram);
      used += b.bytes;
    } else {
      plan.set(b.name, Placement::kNvm);
    }
  }
  EXPECT_EQ(ev.evaluate(plan), reference_replay(rec, cfg, plan));
  // kAuto entries keep the recorded placement, matching replay semantics
  PlacementPlan noop;
  for (const auto& b : rec.buffers) noop.set(b.name, Placement::kAuto);
  EXPECT_EQ(ev.evaluate(noop), ev.baseline());
}

TEST(ReplayEvaluator, CommitTracksTheReplayedRuntime) {
  const auto rec = record("hypre");
  const auto cfg = SystemConfig::testbed(Mode::kUncachedNvm);
  ReplayEvaluator ev(rec, factory(cfg));
  // commit the two smallest buffers to DRAM, one at a time
  std::vector<std::size_t> order(rec.buffers.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return rec.buffers[a].bytes < rec.buffers[b].bytes;
  });
  std::size_t committed = 0;
  std::uint64_t used = 0;
  for (const std::size_t i : order) {
    if (committed == 2) break;
    if (used + rec.buffers[i].bytes > cfg.dram.capacity) continue;
    const double predicted = ev.evaluate_flip(i, Placement::kDram);
    ev.commit_flip(i, Placement::kDram);
    EXPECT_EQ(ev.current_runtime(), predicted);
    EXPECT_EQ(ev.plan().lookup(rec.buffers[i].name), Placement::kDram);
    used += rec.buffers[i].bytes;
    ++committed;
  }
  ASSERT_EQ(committed, 2u);
  // the committed state is exactly a full replay of the committed plan
  EXPECT_EQ(ev.current_runtime(), reference_replay(rec, cfg, ev.plan()));
  // a flip back to kAuto reverts to the recorded placement
  PlacementPlan reverted = ev.plan();
  for (const auto& [name, p] : ev.plan().entries()) {
    (void)p;
    reverted.set(name, Placement::kAuto);
  }
  EXPECT_EQ(ev.evaluate(reverted), ev.baseline());
}

TEST(ReplayEvaluator, OverCapacityFlipThrowsLikeAReplayWould) {
  PhaseRecording rec;
  rec.buffers.push_back({"big", 8 * MiB, Placement::kAuto});
  rec.phases.push_back(PhaseBuilder("p")
                           .threads(2)
                           .flops(1e6)
                           .stream(seq_write(0, 32 * MiB))
                           .build());
  SystemConfig cfg = SystemConfig::testbed(Mode::kUncachedNvm);
  cfg.dram.capacity = 4 * MiB;
  const ReplayEvaluator ev(rec, factory(cfg));
  EXPECT_THROW((void)ev.evaluate_flip(0, Placement::kDram), CapacityError);
  PlacementPlan plan;
  plan.set("big", Placement::kDram);
  EXPECT_THROW((void)ev.evaluate(plan), CapacityError);
  EXPECT_THROW((void)reference_replay(rec, cfg, plan), CapacityError);
}

TEST(ReplayEvaluator, TwoSocketConfigurationsStayBitIdentical) {
  const auto rec = record("boxlib", 24);
  for (const NumaPolicy policy :
       {NumaPolicy::kLocalSocket, NumaPolicy::kRemoteSocket,
        NumaPolicy::kInterleave}) {
    SystemConfig cfg = SystemConfig::testbed(Mode::kUncachedNvm);
    cfg.sockets = 2;
    cfg.numa_policy = policy;
    const ReplayEvaluator ev(rec, factory(cfg));
    EXPECT_TRUE(ev.incremental());
    for (std::size_t i = 0; i < rec.buffers.size(); ++i) {
      PlacementPlan plan;
      plan.set(rec.buffers[i].name, Placement::kDram);
      EXPECT_EQ(ev.evaluate_flip(i, Placement::kDram),
                reference_replay(rec, cfg, plan))
          << to_string(policy) << " " << rec.buffers[i].name;
    }
  }
}

TEST(ReplayEvaluator, MemoryModeFallsBackToMemoizedFullReplays) {
  const auto rec = record("xsbench", 24);
  const auto cfg = SystemConfig::testbed(Mode::kCachedNvm);
  const ReplayEvaluator ev(rec, factory(cfg));
  EXPECT_FALSE(ev.incremental());
  for (std::size_t i = 0; i < std::min<std::size_t>(rec.buffers.size(), 3);
       ++i) {
    PlacementPlan plan;
    plan.set(rec.buffers[i].name, Placement::kDram);
    EXPECT_EQ(ev.evaluate_flip(i, Placement::kDram),
              reference_replay(rec, cfg, plan))
        << rec.buffers[i].name;
  }
  const auto s = ev.stats();
  EXPECT_GT(s.full_replays, 0u);
  EXPECT_EQ(s.evals, s.full_replays - 1);  // +1 for the baseline replay
}

TEST(ReplayEvaluator, DramOnlyModeIgnoresPlacement) {
  const auto rec = record("hacc", 12);
  const auto cfg = SystemConfig::testbed(Mode::kDramOnly);
  const ReplayEvaluator ev(rec, factory(cfg));
  for (std::size_t i = 0; i < rec.buffers.size(); ++i) {
    EXPECT_EQ(ev.evaluate_flip(i, Placement::kDram), ev.baseline());
  }
}

TEST(ReplayEvaluator, PublishesGauges) {
  const auto rec = record("ft", 24);
  const auto cfg = SystemConfig::testbed(Mode::kUncachedNvm);
  const ReplayEvaluator ev(rec, factory(cfg));
  (void)ev.evaluate_flip(0, Placement::kDram);
  MetricsRegistry m;
  ev.publish(m);
  ASSERT_NE(m.find("placement.evals"), nullptr);
  EXPECT_EQ(m.find("placement.evals")->value, 1.0);
  ASSERT_NE(m.find("placement.phase_cache.hits"), nullptr);
  ASSERT_NE(m.find("placement.phase_cache.misses"), nullptr);
}

}  // namespace
}  // namespace nvms
