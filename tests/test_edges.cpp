// Edge-case coverage across modules: buffer reset, format extremes, pmem
// log overflow, cache reset semantics across runs, and stream-free phases.
#include <gtest/gtest.h>

#include "mem/buffer.hpp"
#include "pmem/log.hpp"
#include "pmem/region.hpp"
#include "simcore/table.hpp"
#include "simcore/units.hpp"

namespace nvms {
namespace {

SystemConfig tiny(Mode m = Mode::kUncachedNvm) {
  return SystemConfig::testbed(m);
}

TEST(BufferEdge, ResetReleasesAndInvalidates) {
  MemorySystem sys(tiny());
  Buffer<double> buf(sys, "v", 16);
  EXPECT_TRUE(buf.valid());
  buf.reset();
  EXPECT_FALSE(buf.valid());
  EXPECT_EQ(sys.footprint(), 0u);
  buf.reset();  // idempotent
  EXPECT_FALSE(buf.valid());
}

TEST(BufferEdge, DefaultConstructedIsInert) {
  Buffer<float> buf;
  EXPECT_FALSE(buf.valid());
  EXPECT_EQ(buf.bytes(), 0u);
}

TEST(FormatEdge, Extremes) {
  EXPECT_EQ(format_bytes(0), "0 B");
  EXPECT_EQ(format_bytes(5 * TiB), "5.00 TiB");
  EXPECT_EQ(format_time(0.0), "0.0 ns");
  EXPECT_EQ(TextTable::num(1.0 / 3.0, 5), "0.33333");
  EXPECT_EQ(TextTable::num(-2.5, 0), "-2");  // printf rounding to even
}

TEST(PmemEdge, LogRegionOverflowThrows) {
  MemorySystem sys(tiny());
  PmemRegion data(sys, "d", 64 * KiB);
  PmemRegion log(sys, "l", 256);  // tiny log: header + ~1 record
  UndoLogTx tx(data, log);
  tx.begin();
  const std::vector<std::byte> payload(128, std::byte{1});
  tx.write(0, {payload.data(), payload.size()});
  EXPECT_THROW(tx.write(256, {payload.data(), payload.size()}), ConfigError);
}

TEST(PmemEdge, RecoverOnCleanLogIsNoop) {
  MemorySystem sys(tiny());
  PmemRegion data(sys, "d", 4096);
  PmemRegion log(sys, "l", 4096);
  EXPECT_FALSE(UndoLogTx::recover(data, log));
  EXPECT_FALSE(RedoLogTx::recover(data, log));
}

TEST(CacheEdge, ResetStatsKeepsOrDropsCacheContents) {
  MemorySystem sys(tiny(Mode::kCachedNvm));
  const auto id = sys.register_buffer("b", 4 * MiB);
  auto warm_read = [&] {
    sys.reset_stats(false);
    (void)sys.submit(
        PhaseBuilder("p").threads(8).stream(seq_read(id, 4 * MiB)).build());
    return sys.traces().nvm_read.time_average();
  };
  (void)warm_read();                 // cold pass fills the cache
  const double warm = warm_read();   // hits: negligible NVM reads
  EXPECT_LT(warm, mbps(1));
  sys.reset_stats(true);             // drop contents
  const double cold = warm_read();
  EXPECT_GT(cold, mbps(100));
}

TEST(PhaseEdge, StreamFreePhaseIsComputeOnly) {
  MemorySystem sys(tiny());
  const auto res =
      sys.submit(PhaseBuilder("think").threads(4).flops(1e9).build());
  EXPECT_GT(res.time, 0.0);
  EXPECT_DOUBLE_EQ(res.time, res.compute_time);
  EXPECT_DOUBLE_EQ(sys.traces().nvm_read.time_average(), 0.0);
}

TEST(PhaseEdge, ZeroByteStreamAccepted) {
  MemorySystem sys(tiny());
  const auto id = sys.register_buffer("b", MiB);
  const auto res = sys.submit(
      PhaseBuilder("p").threads(4).stream(seq_read(id, 0)).build());
  EXPECT_DOUBLE_EQ(res.time, 0.0);
}

TEST(TableEdge, SingleColumnRender) {
  TextTable t({"only"});
  t.add_row({"row"});
  const auto out = t.render();
  EXPECT_NE(out.find("only\n"), std::string::npos);
  EXPECT_NE(out.find("row\n"), std::string::npos);
}

}  // namespace
}  // namespace nvms
