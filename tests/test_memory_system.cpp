// MemorySystem integration tests: buffer registry, capacity policing, mode
// routing, counter accumulation, traces, and the typed Buffer<T> wrapper.
#include <gtest/gtest.h>

#include "mem/buffer.hpp"
#include "mem/space.hpp"
#include "memsim/memory_system.hpp"
#include "simcore/error.hpp"
#include "simcore/units.hpp"

namespace nvms {
namespace {

SystemConfig tiny(Mode mode) {
  SystemConfig cfg;
  cfg.mode = mode;
  cfg.dram = ddr4_socket_params(16 * MiB);
  cfg.nvm = optane_socket_params(128 * MiB);
  return cfg;
}

Phase stream_phase(BufferId buf, std::uint64_t read_bytes,
                   std::uint64_t write_bytes, int threads = 24) {
  PhaseBuilder b("p");
  b.threads(threads);
  if (read_bytes) b.stream(seq_read(buf, read_bytes));
  if (write_bytes) b.stream(seq_write(buf, write_bytes));
  return b.build();
}

TEST(MemorySystem, RegisterAndRelease) {
  MemorySystem sys(tiny(Mode::kDramOnly));
  const auto id = sys.register_buffer("a", 1 * MiB);
  EXPECT_EQ(sys.footprint(), 1 * MiB);
  EXPECT_EQ(sys.buffer(id).name, "a");
  EXPECT_TRUE(sys.buffer(id).live);
  sys.release_buffer(id);
  EXPECT_EQ(sys.footprint(), 0u);
  EXPECT_THROW(sys.release_buffer(id), ConfigError);
}

TEST(MemorySystem, BasesAreDisjointAndAligned) {
  MemorySystem sys(tiny(Mode::kDramOnly));
  const auto a = sys.register_buffer("a", 5000);
  const auto b = sys.register_buffer("b", 5000);
  EXPECT_EQ(sys.buffer(a).base % (4 * KiB), 0u);
  EXPECT_EQ(sys.buffer(b).base % (4 * KiB), 0u);
  EXPECT_GE(sys.buffer(b).base, sys.buffer(a).base + 5000);
}

TEST(MemorySystem, DramOnlyCapacityEnforced) {
  MemorySystem sys(tiny(Mode::kDramOnly));
  (void)sys.register_buffer("a", 10 * MiB);
  EXPECT_THROW(sys.register_buffer("b", 10 * MiB), CapacityError);
}

TEST(MemorySystem, CachedModeAllowsBeyondDramCapacity) {
  MemorySystem sys(tiny(Mode::kCachedNvm));
  (void)sys.register_buffer("a", 64 * MiB);  // 4x DRAM, fits in NVM
  EXPECT_THROW(sys.register_buffer("b", 128 * MiB), CapacityError);
}

TEST(MemorySystem, UncachedPlacementCapacity) {
  MemorySystem sys(tiny(Mode::kUncachedNvm));
  const auto a = sys.register_buffer("a", 12 * MiB, Placement::kNvm);
  // 12 MiB alone fits the 16 MiB DRAM...
  EXPECT_NO_THROW(sys.set_placement(a, Placement::kDram));
  EXPECT_EQ(sys.dram_resident(), 12 * MiB);
  // ...but a second 8 MiB DRAM-placed buffer overflows it.
  EXPECT_THROW(sys.register_buffer("b", 8 * MiB, Placement::kDram),
               CapacityError);
  sys.set_placement(a, Placement::kNvm);
  EXPECT_EQ(sys.dram_resident(), 0u);
  const auto b = sys.register_buffer("b", 8 * MiB, Placement::kDram);
  EXPECT_EQ(sys.dram_resident(), 8 * MiB);
  (void)b;
}

TEST(MemorySystem, ZeroSizeBufferRejected) {
  MemorySystem sys(tiny(Mode::kDramOnly));
  EXPECT_THROW(sys.register_buffer("z", 0), ConfigError);
}

TEST(MemorySystem, SubmitAdvancesClockAndRecordsTraces) {
  MemorySystem sys(tiny(Mode::kDramOnly));
  const auto id = sys.register_buffer("a", 8 * MiB);
  EXPECT_DOUBLE_EQ(sys.now(), 0.0);
  (void)sys.submit(stream_phase(id, 1 * GiB, 0));
  EXPECT_GT(sys.now(), 0.0);
  EXPECT_FALSE(sys.traces().dram_read.empty());
  EXPECT_EQ(sys.traces().phases.size(), 1u);
  EXPECT_GT(sys.traces().dram_read.time_average(), 0.0);
  EXPECT_DOUBLE_EQ(sys.traces().nvm_read.time_average(), 0.0);
}

TEST(MemorySystem, UncachedRoutesToNvm) {
  MemorySystem sys(tiny(Mode::kUncachedNvm));
  const auto id = sys.register_buffer("a", 8 * MiB);
  (void)sys.submit(stream_phase(id, 1 * GiB, 0));
  EXPECT_GT(sys.traces().nvm_read.time_average(), 0.0);
  EXPECT_DOUBLE_EQ(sys.traces().dram_read.time_average(), 0.0);
}

TEST(MemorySystem, UncachedHonoursDramPlacement) {
  MemorySystem sys(tiny(Mode::kUncachedNvm));
  const auto id = sys.register_buffer("hot", 8 * MiB, Placement::kDram);
  (void)sys.submit(stream_phase(id, 1 * GiB, 0));
  EXPECT_GT(sys.traces().dram_read.time_average(), 0.0);
  EXPECT_DOUBLE_EQ(sys.traces().nvm_read.time_average(), 0.0);
}

TEST(MemorySystem, CachedModeSplitsTraffic) {
  MemorySystem sys(tiny(Mode::kCachedNvm));
  // Buffer 4x the DRAAM capacity: streaming reads must spill to NVM.
  const auto id = sys.register_buffer("big", 64 * MiB);
  (void)sys.submit(stream_phase(id, 256 * MiB, 0));
  EXPECT_GT(sys.traces().nvm_read.time_average(), 0.0);
  EXPECT_GT(sys.traces().dram_write.time_average(), 0.0);  // fills
}

TEST(MemorySystem, CachedModeHitsInDramForSmallWorkingSet) {
  MemorySystem sys(tiny(Mode::kCachedNvm));
  const auto id = sys.register_buffer("small", 4 * MiB);
  (void)sys.submit(stream_phase(id, 4 * MiB, 0));  // warm the cache
  sys.reset_stats(false);                          // keep cache contents
  (void)sys.submit(stream_phase(id, 64 * MiB, 0));
  const double nvm_bytes = sys.traces().nvm_read.time_average();
  const double dram_bytes = sys.traces().dram_read.time_average();
  EXPECT_GT(dram_bytes, 50.0 * std::max(nvm_bytes, 1.0));
}

TEST(MemorySystem, DramOnlyFasterThanUncachedNvm) {
  double t_dram = 0.0;
  double t_nvm = 0.0;
  for (Mode m : {Mode::kDramOnly, Mode::kUncachedNvm}) {
    MemorySystem sys(tiny(m));
    const auto id = sys.register_buffer("a", 8 * MiB);
    (void)sys.submit(stream_phase(id, 2 * GiB, 512 * MiB));
    (m == Mode::kDramOnly ? t_dram : t_nvm) = sys.now();
  }
  EXPECT_GT(t_nvm, 2.0 * t_dram);
}

TEST(MemorySystem, CountersAccumulate) {
  MemorySystem sys(tiny(Mode::kDramOnly));
  const auto id = sys.register_buffer("a", 8 * MiB);
  Phase p = stream_phase(id, 64 * MiB, 64 * MiB);
  p.flops = 1e8;
  (void)sys.submit(p);
  const auto& c = sys.counters();
  EXPECT_GT(c.instructions, 1e8);
  EXPECT_GT(c.cycles_active, 0.0);
  EXPECT_NEAR(c.imc_reads, static_cast<double>(64 * MiB) / 64.0, 1.0);
  EXPECT_NEAR(c.imc_writes, static_cast<double>(64 * MiB) / 64.0, 1.0);
  EXPECT_GT(c.ipc(), 0.0);
  sys.reset_stats();
  EXPECT_DOUBLE_EQ(sys.counters().instructions, 0.0);
  EXPECT_DOUBLE_EQ(sys.now(), 0.0);
}

TEST(MemorySystem, PerBufferTrafficProfiles) {
  MemorySystem sys(tiny(Mode::kDramOnly));
  const auto a = sys.register_buffer("a", 4 * MiB);
  const auto b = sys.register_buffer("b", 4 * MiB);
  Phase p = PhaseBuilder("mix")
                .threads(8)
                .stream(seq_read(a, 10 * MiB))
                .stream(seq_write(b, 5 * MiB))
                .build();
  (void)sys.submit(p);
  EXPECT_EQ(sys.traffic(a).read_bytes, 10 * MiB);
  EXPECT_EQ(sys.traffic(a).write_bytes, 0u);
  EXPECT_EQ(sys.traffic(b).write_bytes, 5 * MiB);
}

TEST(MemorySystem, StreamToReleasedBufferRejected) {
  MemorySystem sys(tiny(Mode::kDramOnly));
  const auto id = sys.register_buffer("a", 1 * MiB);
  sys.release_buffer(id);
  EXPECT_THROW(sys.submit(stream_phase(id, 1 * MiB, 0)), ConfigError);
}

TEST(MemorySystem, PhaseTimeFractions) {
  MemorySystem sys(tiny(Mode::kDramOnly));
  const auto id = sys.register_buffer("a", 1 * MiB);
  Phase p1 = stream_phase(id, 256 * MiB, 0);
  p1.name = "stage1:x";
  Phase p2 = stream_phase(id, 256 * MiB, 0);
  p2.name = "stage2:y";
  (void)sys.submit(p1);
  (void)sys.submit(p2);
  EXPECT_NEAR(sys.traces().phase_time_fraction("stage1"), 0.5, 0.05);
}

TEST(TypedBuffer, RaiiAndAccess) {
  MemorySystem sys(tiny(Mode::kDramOnly));
  {
    Buffer<double> buf(sys, "vec", 1024);
    EXPECT_EQ(buf.bytes(), 8192u);
    EXPECT_EQ(sys.footprint(), 8192u);
  }
  EXPECT_EQ(sys.footprint(), 0u);
}

TEST(TypedBuffer, MoveSemantics) {
  MemorySystem sys(tiny(Mode::kDramOnly));
  Buffer<int> a(sys, "a", 16);
  const auto id = a.id();
  Buffer<int> b(std::move(a));
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(b.id(), id);
  Buffer<int> c;
  c = std::move(b);
  EXPECT_TRUE(c.valid());
  EXPECT_EQ(sys.footprint(), 16 * sizeof(int));
}

TEST(TypedBuffer, PlacementControl) {
  MemorySystem sys(tiny(Mode::kUncachedNvm));
  Buffer<float> buf(sys, "hot", 1024);
  EXPECT_EQ(buf.placement(), Placement::kAuto);
  buf.place(Placement::kDram);
  EXPECT_EQ(buf.placement(), Placement::kDram);
  EXPECT_EQ(sys.dram_resident(), buf.bytes());
}

TEST(ModeNames, RoundTrip) {
  EXPECT_EQ(parse_mode("dram-only"), Mode::kDramOnly);
  EXPECT_EQ(parse_mode(to_string(Mode::kCachedNvm)), Mode::kCachedNvm);
  EXPECT_EQ(parse_mode("uncached"), Mode::kUncachedNvm);
  EXPECT_FALSE(parse_mode("bogus").has_value());
}

TEST(SystemConfig, TestbedPreservesRatios) {
  const auto cfg = SystemConfig::testbed(Mode::kCachedNvm);
  EXPECT_DOUBLE_EQ(
      static_cast<double>(cfg.nvm.capacity) /
          static_cast<double>(cfg.dram.capacity),
      8.0);
}

}  // namespace
}  // namespace nvms
