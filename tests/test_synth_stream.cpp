// Tests for the STREAM-like synthetic probe application.
#include <gtest/gtest.h>

#include "dwarfs/synth/stream.hpp"
#include "harness/registry.hpp"
#include "simcore/units.hpp"

namespace nvms {
namespace {

AppConfig cfg36() {
  AppConfig cfg;
  cfg.threads = 36;
  return cfg;
}

TEST(Stream, RegisteredAsExtraNotPaperApp) {
  const auto& paper = app_names();
  EXPECT_EQ(std::count(paper.begin(), paper.end(), "stream"), 0);
  const auto& extras = extra_app_names();
  EXPECT_EQ(std::count(extras.begin(), extras.end(), "stream"), 1);
  EXPECT_EQ(lookup_app("stream").name(), "stream");
}

TEST(Stream, TriadBandwidthNearDevicePeaks) {
  // On DRAM the triad (2 reads + 1 write per element) is bound by the
  // combined channel budget; on uncached NVM by the write path.
  const auto dram = run_app("stream", Mode::kDramOnly, cfg36());
  EXPECT_GT(dram.fom, 80.0);   // GB/s
  EXPECT_LT(dram.fom, 120.0);  // cannot beat the combined budget

  const auto nvm = run_app("stream", Mode::kUncachedNvm, cfg36());
  // write-bound: 3 streams move at ~3x the NVM write capacity at 36 thr
  EXPECT_GT(nvm.fom, 4.0);
  EXPECT_LT(nvm.fom, 12.0);
  EXPECT_GT(dram.fom / nvm.fom, 8.0);  // the asymmetry shows
}

TEST(Stream, WriteRatioIsOneThird) {
  const auto r = run_app("stream", Mode::kDramOnly, cfg36());
  const double rd = r.traces.avg_read_bw();
  const double wr = r.traces.avg_write_bw();
  // copy/scale: 1R+1W; add/triad: 2R+1W -> overall 6R : 4W
  EXPECT_NEAR(wr / (rd + wr), 0.4, 0.03);
}

TEST(Stream, NumericsVerified) {
  // After the kernels, values follow from the recurrence; the host step's
  // checksum must be identical across runs (determinism), finite and
  // positive.
  const App& stream = lookup_app("stream");
  const double a = stream.host(cfg36());
  EXPECT_DOUBLE_EQ(a, stream.host(cfg36()));
  EXPECT_TRUE(std::isfinite(a));
  EXPECT_GT(a, 0.0);
}

TEST(Stream, ConcurrencySweepOnNvmShowsWriteCliff) {
  // Triad is write-bound on NVM: more threads beyond the WPQ sweet spot
  // must *reduce* the FoM.
  AppConfig lo = cfg36();
  lo.threads = 4;
  AppConfig hi = cfg36();
  hi.threads = 48;
  const auto r_lo = run_app("stream", Mode::kUncachedNvm, lo);
  const auto r_hi = run_app("stream", Mode::kUncachedNvm, hi);
  EXPECT_GT(r_lo.fom, 1.5 * r_hi.fom);
}

TEST(Stream, IterationOverride) {
  AppConfig cfg = cfg36();
  cfg.iterations = 3;
  const auto r = run_app("stream", Mode::kDramOnly, cfg);
  // 3 reps x 4 kernels = 12 phases
  EXPECT_EQ(r.samples.size(), 12u);
}

// ---------- GUPS ------------------------------------------------------------

TEST(Gups, XorStreamRoundTripsToZeroChecksum) {
  EXPECT_DOUBLE_EQ(lookup_app("gups").host(cfg36()), 0.0);
}

TEST(Gups, NvmFarSlowerThanDram) {
  const auto dram = run_app("gups", Mode::kDramOnly, cfg36());
  const auto nvm = run_app("gups", Mode::kUncachedNvm, cfg36());
  // random sub-granularity RMW: the worst case for the Optane model
  EXPECT_GT(dram.fom / nvm.fom, 5.0);
}

TEST(Gups, WriteRatioIsHalf) {
  const auto r = run_app("gups", Mode::kUncachedNvm, cfg36());
  const double rd = r.traces.avg_read_bw();
  const double wr = r.traces.avg_write_bw();
  EXPECT_NEAR(wr / (rd + wr), 0.5, 0.02);
}

TEST(Gups, RegisteredAsExtra) {
  const auto& extras = extra_app_names();
  EXPECT_EQ(std::count(extras.begin(), extras.end(), "gups"), 1);
}

}  // namespace
}  // namespace nvms
