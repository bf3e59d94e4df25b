// Kernel-parity suite for the SoA epoch kernels (PR: SoA epoch kernel).
//
// The SoA resolve_lanes fixed point and the strength-reduced DramCache
// walk are layout/arithmetic reworks of the scalar reference kernels —
// not model changes — so every observable they produce must match the
// reference *bitwise*: same outcomes, same RNG trajectory, same resolved
// times, for every dwarf, socket mix, sampling geometry and resolve-cache
// mode.  The reference kernels stay in the binary behind
// set_reference_kernels(); these tests run both sides in one process and
// compare exactly (EXPECT_EQ on doubles, not near-comparisons).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "appfw/app.hpp"
#include "harness/kernel_bench.hpp"
#include "harness/registry.hpp"
#include "mem/space.hpp"
#include "memsim/dram_cache.hpp"
#include "memsim/memory_system.hpp"
#include "memsim/resolve.hpp"
#include "memsim/resolve_cache.hpp"
#include "simcore/rng.hpp"
#include "simcore/thread_pool.hpp"
#include "simcore/units.hpp"
#include "trace/pattern.hpp"

namespace nvms {
namespace {

/// Flips to the scalar reference kernels for one scope; always restores
/// the SoA kernels, even when an assertion fails out of the test body.
class ReferenceKernelsGuard {
 public:
  ReferenceKernelsGuard() { set_reference_kernels(true); }
  ~ReferenceKernelsGuard() { set_reference_kernels(false); }
};

TEST(FastModKernel, MatchesHardwareModuloExactly) {
  // The walk kernel's reciprocal modulo must be exact for every operand,
  // not just typical ones: divisor 1 (the q = n-1 special case), powers
  // of two, adjacent odd/even divisors, and divisors near 2^64 where the
  // magic constant degenerates to 1.
  const std::uint64_t divisors[] = {
      1,        2,          3,          5,          7,
      1023,     1024,       1025,       46080,      123456789,
      1u << 31, 0xFFFFFFFFull, 0x100000001ull, ~0ull - 1, ~0ull};
  Rng rng(0xF00D);
  for (const std::uint64_t d : divisors) {
    FastMod fm;
    fm.init(d);
    const std::uint64_t probes[] = {0,      1,      d - 1, d,
                                    d + 1,  2 * d,  ~0ull, ~0ull - 1,
                                    d * 3 + 1};
    for (const std::uint64_t n : probes) {
      EXPECT_EQ(fm.mod(n), n % d) << "n=" << n << " d=" << d;
    }
    for (int i = 0; i < 10000; ++i) {
      const std::uint64_t n = rng();
      ASSERT_EQ(fm.mod(n), n % d) << "n=" << n << " d=" << d;
    }
  }
}

/// One mixed access sequence covering both walk families and their edge
/// cases: sequential/random, read/write, reuse blocking, sub-line sizes,
/// unaligned bases, and buffers smaller than one sampling stride.
std::vector<CacheAccessRequest> walk_program() {
  std::vector<CacheAccessRequest> prog;
  const auto add = [&](StreamDesc s, std::uint64_t base, std::uint64_t size) {
    prog.push_back({s, base, size});
  };
  const BufferId b{};
  add(seq_read(b, 64 * MiB), 0, 48 * MiB);
  add(rand_read(b, 32 * MiB), 0, 48 * MiB);
  add(seq_write(b, 16 * MiB), 48 * MiB, 32 * MiB);
  add(rand_write(b, 8 * MiB), 48 * MiB, 32 * MiB);
  // High-reuse blocked stream: exercises the per-block entry modulo and
  // the skip-walk's wrap handling across many reuse passes.
  StreamDesc blocked = seq_read(b, 96 * MiB);
  blocked.reuse = 6;
  blocked.reuse_block = 2 * MiB;
  add(blocked, 80 * MiB, 24 * MiB);
  // Unaligned base and a buffer smaller than the sampling stride: the
  // degenerate snap clause must fire identically on both kernels.
  add(seq_read(b, 2 * MiB), 104 * MiB + 4096, 8 * KiB);
  add(rand_read(b, 1 * MiB), 104 * MiB + 12288, 4 * KiB);
  add(seq_write(b, 512 * KiB), 0, 4096);
  // Re-walk warm ranges so hit/evict paths run, not just cold fills.
  add(seq_write(b, 64 * MiB), 0, 48 * MiB);
  add(rand_read(b, 32 * MiB), 0, 48 * MiB);
  return prog;
}

void expect_outcomes_identical(const CacheOutcome& ref,
                               const CacheOutcome& soa, std::size_t step) {
  EXPECT_EQ(ref.dram_read, soa.dram_read) << "step " << step;
  EXPECT_EQ(ref.dram_write, soa.dram_write) << "step " << step;
  EXPECT_EQ(ref.nvm_read, soa.nvm_read) << "step " << step;
  EXPECT_EQ(ref.nvm_read_scattered, soa.nvm_read_scattered) << "step " << step;
  EXPECT_EQ(ref.nvm_write, soa.nvm_write) << "step " << step;
  EXPECT_EQ(ref.hits, soa.hits) << "step " << step;
  EXPECT_EQ(ref.misses, soa.misses) << "step " << step;
}

TEST(WalkKernelParity, SampledAndUnsampledGeometries) {
  // max_sets 1<<12 forces set sampling (sample_mod > 1, the skip-walk
  // path); 1<<20 keeps every set simulated (sample_mod == 1).  Both
  // geometries must agree with the scalar reference access by access,
  // including the final occupancy (i.e. the tag-array trajectory).
  for (const std::uint64_t max_sets : {1ull << 12, 1ull << 20}) {
    CacheParams cp;
    cp.line = 4 * KiB;
    cp.capacity = 96 * MiB;
    cp.max_sets = max_sets;
    const auto prog = walk_program();

    DramCache ref_cache(cp);
    std::vector<CacheOutcome> ref_out(prog.size());
    {
      ReferenceKernelsGuard guard;
      for (std::size_t i = 0; i < prog.size(); ++i) {
        ref_out[i] = ref_cache.access(prog[i].stream, prog[i].base,
                                      prog[i].size);
      }
    }

    DramCache soa_cache(cp);
    std::vector<CacheOutcome> soa_out(prog.size());
    soa_cache.walk_batch(prog.data(), prog.size(), soa_out.data());

    for (std::size_t i = 0; i < prog.size(); ++i) {
      expect_outcomes_identical(ref_out[i], soa_out[i], i);
    }
    EXPECT_EQ(ref_cache.occupancy(), soa_cache.occupancy())
        << "max_sets=" << max_sets;
  }
}

TEST(WalkKernelWidthDeterminism, AnyLaneCountMatchesSerialBitwise) {
  // The sharded walk partitions each access by cache set (seq/strided)
  // or by stratified draw block (random); per-block RNG streams are
  // derived, not shared, so the trajectory is a pure function of the
  // access — never of the lane count.  Widths beyond the host's cores
  // are legal (oversubscribed threads), which is what makes this
  // testable on a 1-core CI host.
  for (const std::uint64_t max_sets : {1ull << 12, 1ull << 20}) {
    CacheParams cp;
    cp.line = 4 * KiB;
    cp.capacity = 96 * MiB;
    cp.max_sets = max_sets;
    const auto prog = walk_program();

    DramCache serial_cache(cp);
    std::vector<CacheOutcome> serial_out(prog.size());
    serial_cache.walk_batch(prog.data(), prog.size(), serial_out.data());

    for (const int width : {2, 5}) {
      IntraContext intra;
      intra.configure(width);
      DramCache cache(cp);
      cache.set_intra(&intra);
      std::vector<CacheOutcome> out(prog.size());
      cache.walk_batch(prog.data(), prog.size(), out.data());
      for (std::size_t i = 0; i < prog.size(); ++i) {
        expect_outcomes_identical(serial_out[i], out[i], i);
      }
      EXPECT_EQ(cache.occupancy(), serial_cache.occupancy())
          << "max_sets=" << max_sets << " width=" << width;
    }
  }
}

TEST(ResolveKernelParity, BothSocketsAllPatterns) {
  // The SoA fixed point must reproduce the scalar resolver exactly on
  // demand mixes spanning both socket device models, every pattern/dir
  // combination, UPI coupling, and thread counts on both sides of the
  // concurrency knee.
  const auto dram = ddr4_socket_params(96 * GiB);
  const auto nvm = optane_socket_params(768 * GiB);
  const CpuParams cpu;
  for (const int threads : {1, 12, 36, 72}) {
    for (const double gb : {0.5, 8.0, 54.0}) {
      Phase p;
      p.name = "parity";
      p.threads = threads;
      p.flops = 5e8 * threads;
      std::vector<LaneDemand> lanes(2);
      lanes[0].dev = &dram;
      lanes[0].label = "dram0";
      lanes[0].dem.add(Pattern::kSequential, Dir::kRead, gb * GiB);
      lanes[0].dem.add(Pattern::kRandom, Dir::kWrite, gb * GiB / 4, 64);
      lanes[1].dev = &nvm;
      lanes[1].label = "nvm0";
      lanes[1].dem.add(Pattern::kStrided, Dir::kRead, gb * GiB / 2);
      lanes[1].dem.add(Pattern::kSequential, Dir::kWrite, gb * GiB / 3);
      lanes[1].dem.add(Pattern::kRandom, Dir::kRead, gb * GiB / 8, 256);

      MultiResolution ref;
      {
        ReferenceKernelsGuard guard;
        ref = resolve_lanes(p, lanes, cpu, 2.0 * GiB, 60.0 * GiB, nullptr,
                            0.0);
      }
      const MultiResolution soa =
          resolve_lanes(p, lanes, cpu, 2.0 * GiB, 60.0 * GiB, nullptr, 0.0);

      EXPECT_EQ(ref.time, soa.time) << threads << " thr, " << gb << " GiB";
      EXPECT_EQ(ref.compute_time, soa.compute_time);
      ASSERT_EQ(ref.lanes.size(), soa.lanes.size());
      for (std::size_t i = 0; i < ref.lanes.size(); ++i) {
        EXPECT_EQ(ref.lanes[i].read_time, soa.lanes[i].read_time);
        EXPECT_EQ(ref.lanes[i].write_time, soa.lanes[i].write_time);
        EXPECT_EQ(ref.lanes[i].read_bw, soa.lanes[i].read_bw);
        EXPECT_EQ(ref.lanes[i].write_bw, soa.lanes[i].write_bw);
        EXPECT_EQ(ref.lanes[i].wpq_util, soa.lanes[i].wpq_util);
        EXPECT_EQ(ref.lanes[i].throttle, soa.lanes[i].throttle);
      }
    }
  }
}

TEST(ResolveKernelWidthDeterminism, WideLaneSetMatchesSerialBitwise) {
  // Enough active lanes to cross kResolveIntraLanes, so the fixed point
  // actually shards its iterations.  Every converged observable must be
  // bit-identical to the serial solve at every width: the per-block
  // fold slots are disjoint and the final max-fold runs in slot order.
  const auto dram = ddr4_socket_params(96 * GiB);
  const auto nvm = optane_socket_params(768 * GiB);
  const CpuParams cpu;
  const std::size_t n_lanes = kResolveIntraLanes + 16;
  std::vector<LaneDemand> lanes(n_lanes);
  for (std::size_t i = 0; i < n_lanes; ++i) {
    lanes[i].dev = (i % 2 == 0) ? &dram : &nvm;
    lanes[i].label = (i % 2 == 0) ? "dramN" : "nvmN";
    const double gb = 0.25 + 0.125 * static_cast<double>(i % 13);
    lanes[i].dem.add(Pattern::kSequential, Dir::kRead, gb * GiB);
    lanes[i].dem.add(Pattern::kRandom, Dir::kWrite, gb * GiB / 3, 64);
    if (i % 3 == 0) {
      lanes[i].dem.add(Pattern::kStrided, Dir::kRead, gb * GiB / 2);
    }
  }
  Phase p;
  p.name = "width";
  p.threads = 36;
  p.flops = 2e10;

  ResolveScratch serial_scratch;
  const MultiResolution serial = resolve_lanes(
      p, lanes, cpu, 2.0 * GiB, 60.0 * GiB, nullptr, 0.0, &serial_scratch);

  for (const int width : {2, 3, 8}) {
    IntraContext intra;
    intra.configure(width);
    ResolveScratch scratch;
    scratch.intra = &intra;
    const MultiResolution wide = resolve_lanes(p, lanes, cpu, 2.0 * GiB,
                                               60.0 * GiB, nullptr, 0.0,
                                               &scratch);
    EXPECT_EQ(serial.time, wide.time) << "width " << width;
    EXPECT_EQ(serial.compute_time, wide.compute_time) << "width " << width;
    ASSERT_EQ(serial.lanes.size(), wide.lanes.size());
    for (std::size_t i = 0; i < serial.lanes.size(); ++i) {
      EXPECT_EQ(serial.lanes[i].read_time, wide.lanes[i].read_time);
      EXPECT_EQ(serial.lanes[i].write_time, wide.lanes[i].write_time);
      EXPECT_EQ(serial.lanes[i].wpq_util, wide.lanes[i].wpq_util);
      EXPECT_EQ(serial.lanes[i].throttle, wide.lanes[i].throttle);
    }
  }
}

TEST(WholeAppParity, AllDwarfsAllModes) {
  // End-to-end: every registered app in every memory mode must simulate
  // to bit-identical results under either kernel family.  This is the
  // whole-pipeline closure of the per-kernel parity tests above.
  init_registry();
  AppConfig cfg;
  cfg.threads = 36;
  for (const auto& name : app_names()) {
    for (const Mode mode : kAllModes) {
      AppResult ref;
      {
        ReferenceKernelsGuard guard;
        ref = run_app(name, mode, cfg);
      }
      const AppResult soa = run_app(name, mode, cfg);
      EXPECT_EQ(ref.fom, soa.fom) << name;
      EXPECT_EQ(ref.runtime, soa.runtime) << name;
    }
  }
}

TEST(ReplayFoldParity, AllResolveCacheModes) {
  // The corpus replay used by the perf snapshots, across every
  // resolve-cache mode: the fold of all resolved phase times must be
  // identical between kernel families (this equality is also what
  // anchors BENCH_epoch.json's speedup claim to identical work).
  const auto corpora = fig2_corpora(/*quick=*/true);
  for (const ResolveCacheMode mode :
       {ResolveCacheMode::kOff, ResolveCacheMode::kShared}) {
    ReplayResult ref;
    {
      ReferenceKernelsGuard guard;
      ref = replay_corpora(corpora, 1, mode);
    }
    const ReplayResult soa = replay_corpora(corpora, 1, mode);
    EXPECT_EQ(ref.time_fold, soa.time_fold)
        << "mode " << static_cast<int>(mode);
    EXPECT_EQ(ref.epochs, soa.epochs);
  }
}

TEST(StreamMemoBurst, LongMissBurstAfterLongHitRunStaysBitIdentical) {
  // Regression for the batched catch-up: a long memoized prefix (every
  // walk skipped) followed by a long burst of never-memoized accesses.
  // The first miss triggers one catch-up over the whole pending backlog,
  // and the subsequent misses walk live; the trajectory must match a
  // memo-less system exactly throughout.
  const SystemConfig cfg = SystemConfig::testbed(Mode::kCachedNvm);
  const auto prefix = [](MemorySystem& sys, BufferId a, BufferId b) {
    for (int i = 0; i < 40; ++i) {
      (void)sys.submit(PhaseBuilder("prefix")
                           .threads(24)
                           .stream(seq_read(a, 24 * MiB))
                           .stream(rand_read(b, 8 * MiB))
                           .stream(seq_write(b, 4 * MiB))
                           .build());
    }
  };
  const auto burst = [](MemorySystem& sys, BufferId a, BufferId b, int salt) {
    for (int i = 0; i < 30; ++i) {
      // Sizes keyed off the loop index: no two accesses repeat, so each
      // is a memo miss walking real (caught-up) state.
      (void)sys.submit(PhaseBuilder("burst")
                           .threads(24)
                           .stream(rand_read(a, (salt + i + 1) * MiB))
                           .stream(seq_write(b, (i % 7 + 1) * MiB))
                           .build());
    }
  };
  const auto run = [&](MemorySystem& sys) {
    const auto a = sys.register_buffer("a", 32 * MiB);
    const auto b = sys.register_buffer("b", 16 * MiB);
    prefix(sys, a, b);
    burst(sys, a, b, 3);
  };

  ResolveCache cache(1);
  MemorySystem seed(cfg);
  seed.set_resolve_cache(&cache);
  {  // Seed only the prefix, so the burst is a pure miss run.
    const auto a = seed.register_buffer("a", 32 * MiB);
    const auto b = seed.register_buffer("b", 16 * MiB);
    prefix(seed, a, b);
  }

  MemorySystem plain(cfg);
  run(plain);
  MemorySystem memoized(cfg);
  memoized.set_resolve_cache(&cache);
  run(memoized);

  EXPECT_GT(cache.stream_stats().hits, 0u);
  EXPECT_EQ(memoized.now(), plain.now());
  EXPECT_EQ(memoized.counters().cycles_active, plain.counters().cycles_active);
  EXPECT_EQ(memoized.counters().imc_reads, plain.counters().imc_reads);
  EXPECT_EQ(memoized.counters().imc_writes, plain.counters().imc_writes);
}

}  // namespace
}  // namespace nvms
