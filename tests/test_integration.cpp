// Integration tests: the paper's headline findings as assertions over the
// whole stack (apps + memory simulator + harness).
//
// These encode the *shape* requirements of the reproduction: tier
// membership (Table III), cached-NVM efficiency (Fig. 2), write throttling
// phase flips (Fig. 5), concurrency divergence (Figs. 6-7), large-problem
// behaviour (Fig. 3), and write-aware placement (Fig. 12).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "cli/driver.hpp"
#include "cli/options.hpp"
#include "harness/registry.hpp"
#include "mem/space.hpp"
#include "placement/write_aware.hpp"
#include "prof/data_profile.hpp"
#include "serve/jsonv.hpp"
#include "simcore/units.hpp"

namespace nvms {
namespace {

AppConfig base_cfg(int threads = 36) {
  AppConfig cfg;
  cfg.threads = threads;
  return cfg;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// The checksum `nvmsim run <app> --mode <mode> --json` prints, as bits —
/// the one output that runs and prints the numerics (App::host).
std::uint64_t printed_checksum(const std::string& app, Mode mode) {
  const Options opt = Options::from_map(
      {{"mode", to_string(mode)}, {"json", "true"}}, {app});
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(run_command("run", opt, out, err), 0) << app << ": " << err.str();
  const JsonParseResult doc = json_parse(out.str());
  EXPECT_TRUE(doc.value.has_value()) << app << ": " << doc.error;
  const JsonValue* checksum =
      doc.value ? doc.value->find("checksum") : nullptr;
  EXPECT_NE(checksum, nullptr) << app;
  return checksum != nullptr ? bits(checksum->as_number()) : 0;
}

double slowdown(const std::string& app, int threads = 36) {
  const auto dram = run_app(app, Mode::kDramOnly, base_cfg(threads));
  const auto nvm = run_app(app, Mode::kUncachedNvm, base_cfg(threads));
  return nvm.runtime / dram.runtime;
}

// ---------- generic invariants over all eight applications ----------------

class AllApps : public ::testing::TestWithParam<std::string> {};

TEST_P(AllApps, RunsOnEveryMemoryMode) {
  for (Mode mode : kAllModes) {
    const auto r = run_app(GetParam(), mode, base_cfg());
    EXPECT_GT(r.runtime, 0.0) << to_string(mode);
    EXPECT_GT(r.fom, 0.0) << to_string(mode);
    EXPECT_FALSE(r.fom_unit.empty());
    EXPECT_GT(r.footprint, 0u);
    EXPECT_FALSE(r.samples.empty());
    EXPECT_GT(r.counters.instructions, 0.0);
    EXPECT_GT(r.counters.ipc(), 0.0);
  }
}

TEST_P(AllApps, ChecksumIndependentOfMemoryMode) {
  // The numerics must not depend on the simulated memory organization:
  // `nvmsim run` prints the same checksum in every mode.
  const std::uint64_t dram = printed_checksum(GetParam(), Mode::kDramOnly);
  EXPECT_EQ(printed_checksum(GetParam(), Mode::kCachedNvm), dram);
  EXPECT_EQ(printed_checksum(GetParam(), Mode::kUncachedNvm), dram);
}

TEST_P(AllApps, DeterministicAcrossRuns) {
  const auto a = run_app(GetParam(), Mode::kUncachedNvm, base_cfg());
  const auto b = run_app(GetParam(), Mode::kUncachedNvm, base_cfg());
  EXPECT_DOUBLE_EQ(a.runtime, b.runtime);
  const App& app = lookup_app(GetParam());
  EXPECT_EQ(bits(app.host(base_cfg())), bits(app.host(base_cfg())));
}

TEST_P(AllApps, FootprintWithinPaperRange) {
  // "Input problems have a memory footprint fit in DRAM capacity (50-85%)"
  // — we allow a slightly wider band (HACC is naturally lean).
  const auto r = run_app(GetParam(), Mode::kDramOnly, base_cfg());
  const double frac =
      static_cast<double>(r.footprint) /
      static_cast<double>(SystemConfig::testbed(Mode::kDramOnly).dram.capacity);
  EXPECT_GE(frac, 0.40) << r.app;
  EXPECT_LE(frac, 0.95) << r.app;
}

TEST_P(AllApps, DramIsNeverSlowerThanUncachedNvm) {
  const auto dram = run_app(GetParam(), Mode::kDramOnly, base_cfg());
  const auto nvm = run_app(GetParam(), Mode::kUncachedNvm, base_cfg());
  EXPECT_LE(dram.runtime, nvm.runtime * 1.001);
}

TEST_P(AllApps, CachedNvmWithin35PercentOfDram) {
  // Fig. 2: cached-NVM is within 10% for most apps, worst case 28% (Hypre).
  const auto dram = run_app(GetParam(), Mode::kDramOnly, base_cfg());
  const auto cached = run_app(GetParam(), Mode::kCachedNvm, base_cfg());
  EXPECT_LE(cached.runtime / dram.runtime, 1.35) << GetParam();
}

TEST_P(AllApps, ScalingDownTheProblemShrinksFootprint) {
  AppConfig small = base_cfg();
  small.size_scale = 0.5;
  const auto r_small = run_app(GetParam(), Mode::kUncachedNvm, small);
  const auto r_full = run_app(GetParam(), Mode::kUncachedNvm, base_cfg());
  EXPECT_LT(r_small.footprint, r_full.footprint);
}

// Every app's host checksum (App::host), and its runtime and FoM in each
// memory mode, at base_cfg(), bit for bit.  The host kernels promise a
// fixed floating-point operation order (DESIGN §5), so a kernel rewrite
// that reorders or changes a single operation fails here even when the
// result still looks plausible.
struct PinnedOutputs {
  double checksum;
  double runtime;
  double fom;
};

const std::map<std::string, PinnedOutputs>& pinned_outputs() {
  // Key: "<app>/<mode>".
  static const std::map<std::string, PinnedOutputs> pins = {
      {"hacc/dram-only",
       {0x1.72147e8e6f14ap+20, 0x1.ed38c2a116ec7p+2, 0x1.ed38c2a116ec7p+2}},
      {"hacc/cached-nvm",
       {0x1.72147e8e6f14ap+20, 0x1.ed38c2a116ec7p+2, 0x1.ed38c2a116ec7p+2}},
      {"hacc/uncached-nvm",
       {0x1.72147e8e6f14ap+20, 0x1.ed38c2a116ec7p+2, 0x1.ed38c2a116ec7p+2}},
      {"laghos/dram-only",
       {-0x1.7ebb79a2fb726p-5, 0x1.1ac80f44bd6a4p+0, 0x1.1ac80f44bd6a4p+0}},
      {"laghos/cached-nvm",
       {-0x1.7ebb79a2fb726p-5, 0x1.1b66331193c86p+0, 0x1.1b66331193c86p+0}},
      {"laghos/uncached-nvm",
       {-0x1.7ebb79a2fb726p-5, 0x1.5edd872ad02c4p+0, 0x1.5edd872ad02c4p+0}},
      {"scalapack/dram-only",
       {0x1.be9a7c1f5e774p+9, 0x1.c8f504ab6f99ep-6, 0x1.c8f504ab6f99ep-6}},
      {"scalapack/cached-nvm",
       {0x1.be9a7c1f5e774p+9, 0x1.cf3d1029cb013p-6, 0x1.cf3d1029cb013p-6}},
      {"scalapack/uncached-nvm",
       {0x1.be9a7c1f5e774p+9, 0x1.3988c8fef5b1p-4, 0x1.3988c8fef5b1p-4}},
      {"xsbench/dram-only",
       {0x1.1a17341896ce2p+23, 0x1.9ee1a0067b868p-1, 0x1.401f243p+25}},
      {"xsbench/cached-nvm",
       {0x1.1a17341896ce2p+23, 0x1.c2f53eaf67454p-1, 0x1.26830cc7d0f18p+25}},
      {"xsbench/uncached-nvm",
       {0x1.1a17341896ce2p+23, 0x1.cb3b9139fc057p+1, 0x1.21348ac787878p+23}},
      {"hypre/dram-only",
       {0x1.62ed39930898bp-1, 0x1.01b10d67abe74p-3, 0x1.01b10d67abe74p-3}},
      {"hypre/cached-nvm",
       {0x1.62ed39930898bp-1, 0x1.59d13bc9c80d4p-3, 0x1.59d13bc9c80d4p-3}},
      {"hypre/uncached-nvm",
       {0x1.62ed39930898bp-1, 0x1.1a9be4ff2f6d3p-1, 0x1.1a9be4ff2f6d3p-1}},
      {"superlu/dram-only",
       {0x1.b9903d8a1920fp+2, 0x1.f75d16546f426p-6, 0x1.df36c7c8dbb89p+18}},
      {"superlu/cached-nvm",
       {0x1.b9903d8a1920fp+2, 0x1.00f774a9d4a1p-5, 0x1.d55bc0341ac62p+18}},
      {"superlu/uncached-nvm",
       {0x1.b9903d8a1920fp+2, 0x1.333ec0684ad64p-3, 0x1.888d1bdc24128p+16}},
      {"boxlib/dram-only",
       {0x1.b544bd68389fcp+8, 0x1.d5e61b31ef6bcp-6, 0x1.d5e61b31ef6bcp-6}},
      {"boxlib/cached-nvm",
       {0x1.b544bd68389fcp+8, 0x1.0307be6137d94p-5, 0x1.0307be6137d94p-5}},
      {"boxlib/uncached-nvm",
       {0x1.b544bd68389fcp+8, 0x1.0ac0021f8690ap-2, 0x1.0ac0021f8690ap-2}},
      {"ft/dram-only",
       {-0x1.9ced47b14da7cp+7, 0x1.e3efbf465f3a4p-4, 0x1.9f39e00223567p+16}},
      {"ft/cached-nvm",
       {-0x1.9ced47b14da7cp+7, 0x1.ff0e4775a2ad1p-4, 0x1.893128d0e172cp+16}},
      {"ft/uncached-nvm",
       {-0x1.9ced47b14da7cp+7, 0x1.747752266821bp+0, 0x1.0dbf2cc081cd8p+13}},
  };
  return pins;
}

std::string hex(double v) {
  std::ostringstream os;
  os << std::hexfloat << v;
  return os.str();
}

TEST_P(AllApps, OutputsPinnedBitForBit) {
  const double checksum = lookup_app(GetParam()).host(base_cfg());
  for (Mode mode : kAllModes) {
    const std::string key = GetParam() + "/" + to_string(mode);
    const auto r = run_app(GetParam(), mode, base_cfg());
    const auto it = pinned_outputs().find(key);
    if (it == pinned_outputs().end()) {
      ADD_FAILURE() << "no pin for " << key << "; observed {"
                    << hex(checksum) << ", " << hex(r.runtime) << ", "
                    << hex(r.fom) << "}";
      continue;
    }
    const PinnedOutputs& pin = it->second;
    EXPECT_EQ(bits(checksum), bits(pin.checksum))
        << key << " checksum " << hex(checksum) << " != "
        << hex(pin.checksum);
    EXPECT_EQ(bits(r.runtime), bits(pin.runtime))
        << key << " runtime " << hex(r.runtime) << " != " << hex(pin.runtime);
    EXPECT_EQ(bits(r.fom), bits(pin.fom))
        << key << " fom " << hex(r.fom) << " != " << hex(pin.fom);
  }
}

INSTANTIATE_TEST_SUITE_P(EveryDwarf, AllApps,
                         ::testing::ValuesIn(app_names()));

// Only `nvmsim run` runs the numerics; every library run is traffic only.
// Its printed checksum bit-equals the host step of every registered app.
TEST(RunJson, ChecksumIsTheHostStepOfEveryApp) {
  std::vector<std::string> apps = app_names();
  apps.insert(apps.end(), extra_app_names().begin(), extra_app_names().end());
  ASSERT_EQ(apps.size(), 10u);
  for (const std::string& app : apps) {
    EXPECT_EQ(printed_checksum(app, Mode::kUncachedNvm),
              bits(lookup_app(app).host(AppConfig{})))
        << app;
  }
}

// ---------- Table III: three tiers of sensitivity --------------------------

TEST(TableIII, InsensitiveTier) {
  EXPECT_LT(slowdown("hacc"), 1.15);
  EXPECT_LT(slowdown("laghos"), 1.6);
}

TEST(TableIII, ScaledTier) {
  for (const std::string app : {"scalapack", "xsbench", "hypre", "superlu"}) {
    const double s = slowdown(app);
    EXPECT_GE(s, 2.0) << app;
    EXPECT_LE(s, 6.5) << app;
  }
}

TEST(TableIII, BottleneckedTier) {
  EXPECT_GT(slowdown("boxlib"), 7.0);
  EXPECT_GT(slowdown("ft"), 10.0);
}

TEST(TableIII, WriteRatios) {
  // XSBench ~0%, Hypre <=10%, FT the highest (~39%).
  std::map<std::string, double> ratio;
  for (const std::string app : {"xsbench", "hypre", "ft", "hacc"}) {
    const auto r = run_app(app, Mode::kUncachedNvm, base_cfg());
    const double rd = r.traces.avg_read_bw();
    const double wr = r.traces.avg_write_bw();
    ratio[app] = wr / (rd + wr);
  }
  EXPECT_LT(ratio["xsbench"], 0.01);
  EXPECT_LT(ratio["hypre"], 0.10);
  EXPECT_GT(ratio["ft"], 0.30);
  EXPECT_GT(ratio["hacc"], 0.20);
}

// ---------- Fig. 5: write throttling flips SuperLU's phases ---------------

TEST(WriteThrottling, SuperLuPhaseFlip) {
  const auto dram = run_app("superlu", Mode::kDramOnly, base_cfg());
  const auto nvm = run_app("superlu", Mode::kUncachedNvm, base_cfg());
  const double share_dram = dram.traces.phase_time_fraction("factor");
  const double share_nvm = nvm.traces.phase_time_fraction("factor");
  EXPECT_NEAR(share_dram, 0.20, 0.10);
  EXPECT_GT(share_nvm, 0.60);
}

TEST(WriteThrottling, LaghosKeepsItsComposition) {
  const auto dram = run_app("laghos", Mode::kDramOnly, base_cfg());
  const auto nvm = run_app("laghos", Mode::kUncachedNvm, base_cfg());
  EXPECT_NEAR(dram.traces.phase_time_fraction("assembly"),
              nvm.traces.phase_time_fraction("assembly"), 0.08);
}

// ---------- Fig. 6/7: concurrency contention -------------------------------

TEST(Concurrency, FtGapBetweenDramAndNvm) {
  auto perf_ratio = [](Mode mode) {
    const auto lo = run_app("ft", mode, base_cfg(12));
    const auto hi = run_app("ft", mode, base_cfg(36));
    return hi.fom / lo.fom;
  };
  const double dram_ratio = perf_ratio(Mode::kDramOnly);
  const double nvm_ratio = perf_ratio(Mode::kUncachedNvm);
  EXPECT_LT(dram_ratio, 1.0);            // FT scales poorly even on DRAM
  EXPECT_LT(nvm_ratio, dram_ratio - 0.1);  // the NVM contention gap
}

TEST(Concurrency, HaccAndXsbenchImprove) {
  for (const std::string app : {"hacc", "xsbench"}) {
    const auto lo = run_app(app, Mode::kUncachedNvm, base_cfg(12));
    const auto hi = run_app(app, Mode::kUncachedNvm, base_cfg(36));
    const double ratio = hi.higher_is_better ? hi.fom / lo.fom
                                             : lo.runtime / hi.runtime;
    EXPECT_GT(ratio, 1.3) << app;
  }
}

TEST(Concurrency, FtWritesDivergeDown) {
  const auto lo = run_app("ft", Mode::kUncachedNvm, base_cfg(12));
  const auto hi = run_app("ft", Mode::kUncachedNvm, base_cfg(36));
  EXPECT_GT(lo.traces.nvm_write.peak(), hi.traces.nvm_write.peak());
}

// ---------- Fig. 3: cached-NVM enables large problems ----------------------

TEST(LargeProblems, DramOnlyRejectsOversizedProblem) {
  AppConfig cfg = base_cfg();
  cfg.size_scale = 3.0;
  EXPECT_THROW(run_app("hypre", Mode::kDramOnly, cfg), CapacityError);
}

TEST(LargeProblems, CachedBeatsUncachedBeyondDram) {
  AppConfig cfg = base_cfg();
  cfg.size_scale = 4.0;  // BoxLib at ~2.8x DRAM capacity
  const auto un = run_app("boxlib", Mode::kUncachedNvm, cfg);
  const auto ca = run_app("boxlib", Mode::kCachedNvm, cfg);
  EXPECT_GT(un.runtime / ca.runtime, 1.8);
}

TEST(LargeProblems, SuperLuSustainsFactorRate) {
  // Fig. 3a: factor Mflop/s stays in a narrow band from kim2 (0.06x DRAM)
  // to nlpkkt120 (5.1x DRAM).
  double lo = 1e300;
  double hi = 0.0;
  for (double scale : {6.0 / 50.0, 1.0, 490.0 / 50.0}) {
    AppConfig cfg = base_cfg();
    cfg.size_scale = scale;
    const auto r = run_app("superlu", Mode::kCachedNvm, cfg);
    lo = std::min(lo, r.fom);
    hi = std::max(hi, r.fom);
  }
  EXPECT_LT(hi / lo, 1.5);
}

// ---------- Fig. 12: write-aware placement ---------------------------------

TEST(WriteAware, ScalapackReachesDramLikePerformance) {
  const auto sys_cfg = SystemConfig::testbed(Mode::kUncachedNvm);
  AppConfig cfg = base_cfg();

  MemorySystem prof_sys(sys_cfg);
  AppContext prof_ctx(prof_sys, cfg);
  (void)lookup_app("scalapack").emit(prof_ctx);
  const auto wa =
      write_aware_plan(collect_data_profile(prof_sys),
                       sys_cfg.dram.capacity * 35 / 100);
  EXPECT_FALSE(wa.in_dram.empty());
  // The output matrix C must be among the promoted structures.
  bool has_c = false;
  for (const auto& n : wa.in_dram) has_c |= (n == "mat_c");
  EXPECT_TRUE(has_c);

  const auto dram = run_app("scalapack", Mode::kDramOnly, cfg);
  const auto uncached = run_app("scalapack", Mode::kUncachedNvm, cfg);
  AppConfig opt = cfg;
  opt.placement = &wa.plan;
  const auto optimized = run_app("scalapack", Mode::kUncachedNvm, opt);

  // >= 2x over plain uncached, within 20% of DRAM, <= 40% DRAM used.
  EXPECT_GT(uncached.runtime / optimized.runtime, 2.0);
  EXPECT_LT(optimized.runtime / dram.runtime, 1.2);
  EXPECT_LE(wa.dram_bytes, sys_cfg.dram.capacity * 40 / 100);
}

}  // namespace
}  // namespace nvms
