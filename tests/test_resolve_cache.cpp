// Resolve-cache tests: resolve-key normalization, the DRAM-cache stream
// memo's hit/miss/evict accounting and byte-identical replay (identical,
// divergent and reset trajectories), the attach rule, the thread-clamp
// boundary, and end-to-end sweep determinism (cache-off serial vs
// shared-cache parallel).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "harness/sweep.hpp"
#include "memsim/memory_system.hpp"
#include "memsim/resolve.hpp"
#include "memsim/resolve_cache.hpp"
#include "simcore/units.hpp"

namespace nvms {
namespace {

Phase make_phase(const std::string& name, int threads = 24) {
  Phase p;
  p.name = name;
  p.threads = threads;
  p.flops = 1e9;
  p.mlp = 8.0;
  return p;
}

std::vector<LaneDemand> make_lanes(const DeviceParams& dram,
                                   const DeviceParams& nvm,
                                   std::uint64_t read_bytes = 256 * MiB,
                                   std::uint64_t write_bytes = 64 * MiB) {
  std::vector<LaneDemand> lanes(2);
  lanes[0].dev = &dram;
  lanes[0].label = "dram0";
  lanes[0].dem.add(PatClass::kSeq, Dir::kRead, read_bytes);
  lanes[1].dev = &nvm;
  lanes[1].label = "nvm0";
  lanes[1].dem.add(PatClass::kSeq, Dir::kWrite, write_bytes);
  return lanes;
}

TEST(ResolveCacheMode, Parsing) {
  EXPECT_EQ(parse_resolve_cache_mode("off"), ResolveCacheMode::kOff);
  EXPECT_EQ(parse_resolve_cache_mode("shared"), ResolveCacheMode::kShared);
  EXPECT_FALSE(parse_resolve_cache_mode("run").has_value());
  EXPECT_FALSE(parse_resolve_cache_mode("ON").has_value());
  EXPECT_FALSE(parse_resolve_cache_mode("").has_value());
  EXPECT_STREQ(to_string(ResolveCacheMode::kShared), "shared");
}

TEST(ResolveKey, PhaseNameDoesNotAffectKey) {
  const DeviceParams dram = ddr4_socket_params(192 * MiB);
  const DeviceParams nvm = optane_socket_params(1536 * MiB);
  const auto lanes = make_lanes(dram, nvm);
  CpuParams cpu;
  const auto a = make_resolve_key(make_phase("iter-1"), lanes, cpu, 0, 0);
  const auto b = make_resolve_key(make_phase("iter-2"), lanes, cpu, 0, 0);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
}

TEST(ResolveKey, ThreadsClampLikeTheResolver) {
  // Oversubscribed phases resolve identically to max_threads (the
  // resolver clamps), so they must share one cache entry.
  const DeviceParams dram = ddr4_socket_params(192 * MiB);
  const DeviceParams nvm = optane_socket_params(1536 * MiB);
  const auto lanes = make_lanes(dram, nvm);
  CpuParams cpu;
  const int max = cpu.max_threads();
  const auto at_max =
      make_resolve_key(make_phase("p", max), lanes, cpu, 0, 0);
  const auto over =
      make_resolve_key(make_phase("p", 2 * max), lanes, cpu, 0, 0);
  const auto under =
      make_resolve_key(make_phase("p", max - 1), lanes, cpu, 0, 0);
  EXPECT_EQ(at_max, over);
  EXPECT_FALSE(at_max == under);
}

TEST(ResolveKey, DemandAndDeviceChangesChangeTheKey) {
  const DeviceParams dram = ddr4_socket_params(192 * MiB);
  const DeviceParams nvm = optane_socket_params(1536 * MiB);
  CpuParams cpu;
  const Phase p = make_phase("p");
  const auto base =
      make_resolve_key(p, make_lanes(dram, nvm), cpu, 0, 0);
  // One byte of demand difference -> different key.
  const auto more_demand = make_resolve_key(
      p, make_lanes(dram, nvm, 256 * MiB + 1), cpu, 0, 0);
  EXPECT_FALSE(base == more_demand);
  // A resolution-relevant device change -> different key.
  DeviceParams slower_nvm = nvm;
  slower_nvm.write_bw_peak *= 0.5;
  const auto slower =
      make_resolve_key(p, make_lanes(dram, slower_nvm), cpu, 0, 0);
  EXPECT_FALSE(base == slower);
  // The UPI constraint participates too.
  const auto upi =
      make_resolve_key(p, make_lanes(dram, nvm), cpu, 1 * GiB, 31.2e9);
  EXPECT_FALSE(base == upi);
}

TEST(ResolveCache, ThreadClampBoundaryIsConsistent) {
  // Timing and counters both clamp concurrency to cpu.max_threads(): a
  // phase at the boundary and one oversubscribed past it must behave
  // identically end to end (they also share one resolve key, see
  // ResolveKey.ThreadsClampLikeTheResolver).
  SystemConfig cfg = SystemConfig::testbed(Mode::kUncachedNvm);
  const int max = cfg.cpu.max_threads();
  double now[2];
  double cycles[2];
  int i = 0;
  for (const int threads : {max, 2 * max}) {
    MemorySystem sys(cfg);
    const auto id = sys.register_buffer("b", 8 * MiB);
    (void)sys.submit(PhaseBuilder("p")
                         .threads(threads)
                         .flops(1e9)
                         .stream(seq_read(id, 1 * GiB))
                         .build());
    now[i] = sys.now();
    cycles[i] = sys.counters().cycles_active;
    ++i;
  }
  EXPECT_DOUBLE_EQ(now[0], now[1]);
  EXPECT_DOUBLE_EQ(cycles[0], cycles[1]);
}

TEST(ResolveCache, SweepExportsAreByteIdenticalAcrossModesAndJobs) {
  // End-to-end determinism: the reference sweep (cache off, serial) must
  // produce byte-identical CSV, Chrome-trace and metrics exports to a
  // shared-cache parallel sweep.
  SweepSpec ref;
  ref.app = "stream";
  ref.modes = {Mode::kDramOnly, Mode::kCachedNvm, Mode::kUncachedNvm};
  ref.threads = {12, 24};
  ref.jobs = 1;
  ref.telemetry = true;
  ref.resolve_cache = ResolveCacheMode::kOff;
  const auto base = run_sweep(ref);

  SweepSpec shared_spec = ref;
  shared_spec.jobs = 4;
  shared_spec.resolve_cache = ResolveCacheMode::kShared;
  const auto shared_res = run_sweep(shared_spec);

  EXPECT_EQ(sweep_csv(shared_res), sweep_csv(base));
  EXPECT_EQ(sweep_chrome_trace(shared_res), sweep_chrome_trace(base));
  EXPECT_EQ(sweep_metrics_csv(shared_res), sweep_metrics_csv(base));
  // The Memory-mode cells of the shared sweep repeat one sampler
  // trajectory across the thread dimension: the stream memo must see it.
  EXPECT_GT(shared_res.cache_stats.hits, 0u);
  EXPECT_EQ(base.cache_stats.hits + base.cache_stats.misses, 0u);
}

TEST(ResolveCache, SweepAttachesACacheOnlyWhereItCanHit) {
  // A lone cell can never hit its own stream-memo inserts, so a
  // single-cell grid attaches no grid-local cache: its Memory-mode walks
  // never consult a memo.  A caller-owned cache outlives the grid (a later
  // identical run replays the trajectory) and is attached at any size.
  SweepSpec one;
  one.app = "stream";
  one.modes = {Mode::kCachedNvm};
  one.threads = {12};
  one.scales = {0.25};
  one.jobs = 1;
  one.resolve_cache = ResolveCacheMode::kShared;
  const auto lone = run_sweep(one);
  ASSERT_EQ(lone.rows.size(), 1u);
  EXPECT_EQ(lone.cache_stats.hits + lone.cache_stats.misses, 0u);

  ResolveCache external(1);
  one.external_cache = &external;
  const auto cold = run_sweep(one);
  const auto warm = run_sweep(one);
  EXPECT_EQ(sweep_csv(cold), sweep_csv(lone));
  EXPECT_EQ(sweep_csv(warm), sweep_csv(lone));
  EXPECT_GT(external.stats().hits, 0u);
  EXPECT_EQ(warm.cache_stats.hits, external.stats().hits);
}

/// Submit the same Memory-mode phase program (sequential, strided and
/// random streams, so tags and the RNG all participate) to `sys`.
void run_cached_program(MemorySystem& sys) {
  const auto a = sys.register_buffer("a", 8 * MiB);
  const auto b = sys.register_buffer("b", 24 * MiB);
  for (int i = 0; i < 3; ++i) {
    (void)sys.submit(PhaseBuilder("iter")
                         .threads(24)
                         .flops(1e8)
                         .stream(seq_read(a, 32 * MiB))
                         .stream(rand_read(b, 16 * MiB))
                         .stream(seq_write(b, 8 * MiB))
                         .build());
  }
}

TEST(ResolveCache, EvictionKeepsTheCacheBounded) {
  // One Memory-mode run through a 4-entry memo: every access of a lone
  // trajectory misses, and the ring keeps only the newest four.
  ResolveCache cache(/*shards=*/1, /*max_entries=*/4);
  MemorySystem sys(SystemConfig::testbed(Mode::kCachedNvm));
  sys.set_resolve_cache(&cache);
  run_cached_program(sys);
  const auto s = cache.stats();
  EXPECT_GT(s.misses, 4u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.entries, 4u);
  EXPECT_EQ(s.evictions, s.misses - 4u);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.0);
}

TEST(ResolveCache, PublishExportsGauges) {
  // The second system replays the first one's trajectory: half of all
  // lookups hit, and publish() exports that as stream_memo.* gauges.
  ResolveCache cache(1);
  for (int run = 0; run < 2; ++run) {
    MemorySystem sys(SystemConfig::testbed(Mode::kCachedNvm));
    sys.set_resolve_cache(&cache);
    run_cached_program(sys);
  }
  const auto s = cache.stats();

  MetricsRegistry m;
  cache.publish(m);
  double hits = -1.0, hit_rate = -1.0;
  for (const auto& metric : m.metrics()) {
    if (metric.name == "stream_memo.hits") hits = metric.value;
    if (metric.name == "stream_memo.hit_rate") hit_rate = metric.value;
  }
  EXPECT_GT(s.hits, 0u);
  EXPECT_DOUBLE_EQ(hits, static_cast<double>(s.hits));
  EXPECT_DOUBLE_EQ(hit_rate, 0.5);
}

TEST(StreamMemo, IdenticalTrajectoriesSkipTheWalkByteIdentically) {
  // Two Memory-mode systems sharing one cache replay the same stream
  // trajectory: the second run must hit the stream memo for every access
  // and still agree exactly with a memo-less reference.
  const SystemConfig cfg = SystemConfig::testbed(Mode::kCachedNvm);
  MemorySystem plain(cfg);
  run_cached_program(plain);

  ResolveCache cache(2);
  MemorySystem first(cfg);
  first.set_resolve_cache(&cache);
  run_cached_program(first);
  const auto after_first = cache.stream_stats();
  EXPECT_EQ(after_first.hits, 0u);
  EXPECT_GT(after_first.misses, 0u);

  MemorySystem second(cfg);
  second.set_resolve_cache(&cache);
  run_cached_program(second);
  const auto after_second = cache.stream_stats();
  EXPECT_EQ(after_second.hits, after_first.misses);  // every access hit

  for (MemorySystem* sys : {&first, &second}) {
    EXPECT_DOUBLE_EQ(sys->now(), plain.now());
    EXPECT_DOUBLE_EQ(sys->counters().cycles_active,
                     plain.counters().cycles_active);
    EXPECT_DOUBLE_EQ(sys->counters().imc_reads, plain.counters().imc_reads);
    EXPECT_DOUBLE_EQ(sys->counters().imc_writes,
                     plain.counters().imc_writes);
  }
}

TEST(StreamMemo, DivergentTrajectoryCatchesUpExactly) {
  // A trajectory that starts like a memoized one (hits, walks skipped)
  // and then diverges must rebuild the tag/RNG state it skipped: its
  // post-divergence outcomes have to match a memo-less run byte for byte.
  const SystemConfig cfg = SystemConfig::testbed(Mode::kCachedNvm);
  const auto diverged = [](MemorySystem& sys) {
    const auto a = sys.register_buffer("a", 8 * MiB);
    (void)sys.submit(PhaseBuilder("shared-prefix")
                         .threads(24)
                         .stream(rand_read(a, 16 * MiB))
                         .stream(seq_write(a, 8 * MiB))
                         .build());
    // Divergence point: different byte count than the memoized run.
    (void)sys.submit(PhaseBuilder("divergent")
                         .threads(24)
                         .stream(rand_read(a, 12 * MiB))
                         .build());
  };

  ResolveCache cache(1);
  MemorySystem seedrun(cfg);
  seedrun.set_resolve_cache(&cache);
  run_cached_program(seedrun);  // populates the memo with another program

  MemorySystem prefix_donor(cfg);
  prefix_donor.set_resolve_cache(&cache);
  {
    const auto a = prefix_donor.register_buffer("a", 8 * MiB);
    (void)prefix_donor.submit(PhaseBuilder("shared-prefix")
                                  .threads(24)
                                  .stream(rand_read(a, 16 * MiB))
                                  .stream(seq_write(a, 8 * MiB))
                                  .build());
  }

  MemorySystem plain(cfg);
  diverged(plain);
  MemorySystem memoized(cfg);
  memoized.set_resolve_cache(&cache);
  diverged(memoized);  // prefix hits, then the divergence forces catch-up

  EXPECT_GT(cache.stream_stats().hits, 0u);
  EXPECT_DOUBLE_EQ(memoized.now(), plain.now());
  EXPECT_DOUBLE_EQ(memoized.counters().imc_reads,
                   plain.counters().imc_reads);
  EXPECT_DOUBLE_EQ(memoized.counters().imc_writes,
                   plain.counters().imc_writes);
}

TEST(StreamMemo, ResetStaysConsistent) {
  // reset_stats(drop_cache=true) mid-run: the RNG keeps its state across
  // the reset, so memoized and memo-less systems must stay in lockstep
  // through it (the memo folds a reset marker and catches up first).
  const SystemConfig cfg = SystemConfig::testbed(Mode::kCachedNvm);
  const auto program = [](MemorySystem& sys) {
    const auto a = sys.register_buffer("a", 8 * MiB);
    (void)sys.submit(PhaseBuilder("before")
                         .threads(24)
                         .stream(rand_read(a, 16 * MiB))
                         .build());
    sys.reset_stats(/*drop_cache=*/true);
    (void)sys.submit(PhaseBuilder("after")
                         .threads(24)
                         .stream(rand_read(a, 16 * MiB))
                         .build());
  };
  MemorySystem plain(cfg);
  program(plain);

  ResolveCache cache(1);
  MemorySystem first(cfg);
  first.set_resolve_cache(&cache);
  program(first);
  MemorySystem second(cfg);  // replays first's trajectory out of the memo
  second.set_resolve_cache(&cache);
  program(second);

  for (MemorySystem* sys : {&first, &second}) {
    EXPECT_DOUBLE_EQ(sys->now(), plain.now());
    EXPECT_DOUBLE_EQ(sys->counters().imc_reads, plain.counters().imc_reads);
  }
  EXPECT_GT(cache.stream_stats().hits, 0u);
}

TEST(ResolveCache, ShardedMemoStatsStayConsistentUnderConcurrentSweeps) {
  // Regression: the gauge-publication path (stats()/publish()) used to
  // read global relaxed atomics while the maps were mutated under shard
  // mutexes, so a publish racing a sweep could observe an entry whose
  // miss was not counted yet.  Counters now live inside their shard and
  // are read under the same lock, making every snapshot per-shard
  // consistent: `entries + evictions <= misses` must hold at all times
  // (every entry stems from a counted miss).  Run under TSan in CI.
  ResolveCache memo(/*shards=*/4, /*max_entries=*/64);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> violations{0};

  std::thread observer([&] {
    MetricsRegistry gauges;
    while (!stop.load(std::memory_order_acquire)) {
      const ResolveCacheStats s = memo.stats();
      if (s.entries + s.evictions > s.misses) {
        violations.fetch_add(1, std::memory_order_relaxed);
      }
      if (s.hit_rate() < 0.0 || s.hit_rate() > 1.0) {
        violations.fetch_add(1, std::memory_order_relaxed);
      }
      memo.publish(gauges);
    }
  });

  constexpr int kWriters = 4;
  constexpr int kOpsPerWriter = 4000;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&memo, w] {
      for (int i = 0; i < kOpsPerWriter; ++i) {
        ResolveKey key;
        key.add_word(static_cast<std::uint64_t>(w) << 32);
        key.add_word(static_cast<std::uint64_t>(i));
        CachedStreamOutcome value;
        if (!memo.lookup(key, &value)) {
          // lookup-miss then insert: the real flow
          value.occupancy = static_cast<double>(i);
          memo.insert(key, value);
        }
        // Re-read a recent key so hits accrue too.
        (void)memo.lookup(key, &value);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  observer.join();

  EXPECT_EQ(violations.load(), 0u);
  // After quiescence the totals are exact: every op was one lookup-miss
  // (or hit after an eviction refill) plus one lookup-hit.
  const ResolveCacheStats s = memo.stats();
  EXPECT_EQ(s.hits + s.misses,
            static_cast<std::uint64_t>(2 * kWriters * kOpsPerWriter));
  EXPECT_LE(s.entries + s.evictions, s.misses);
}

}  // namespace
}  // namespace nvms
