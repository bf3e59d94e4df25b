// Figure 2: overview of the performance sensitivity of the eight
// applications to cached and uncached NVM, relative to DRAM.
//
// The paper plots the performance (FoM where app-defined, else runtime)
// on DRAM-only, cached-NVM and uncached-NVM.  We print performance
// normalized to DRAM (1.0 = DRAM): for runtime apps this is
// t_dram / t_mode, for FoM apps fom_mode / fom_dram — higher is better in
// both conventions, matching the paper's reading.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "harness/kernel_bench.hpp"
#include "harness/registry.hpp"
#include "harness/sweep.hpp"
#include "mem/space.hpp"
#include "memsim/resolve.hpp"
#include "simcore/table.hpp"
#include "simcore/thread_pool.hpp"

namespace {

// --scaling: intra-run lane scaling of the sharded epoch kernel.  Replays
// the Fig. 2 corpora at widths 1..8, reports epochs/s and parallel
// efficiency per width, and byte-compares the resolution folds (any
// divergence is a determinism bug, not a perf question).  Exits nonzero
// when the folds diverge, or when parallel efficiency at width 4 drops
// below 0.6 on a host with >= 4 cores (on smaller hosts extra lanes are
// oversubscribed threads, so only determinism is asserted).
int run_scaling() {
  using namespace nvms;
  // NVMS_LINT(allow: DET-002, bench self-measures lane scaling; folds byte-compared separately)
  std::printf("Intra-run lane scaling over the Fig. 2 corpora\n\n");
  init_registry();
  const auto corpora = fig2_corpora();
  constexpr int kRepeat = 3;
  constexpr int kAttempts = 3;
  const auto fastest = [&corpora](int width) {
    ReplayResult best = replay_corpora(corpora, kRepeat,
                                       ResolveCacheMode::kOff, width);
    for (int a = 1; a < kAttempts; ++a) {
      const ReplayResult r = replay_corpora(corpora, kRepeat,
                                            ResolveCacheMode::kOff, width);
      if (r.seconds < best.seconds) best = r;
    }
    return best;
  };

  const int host = ThreadPool::default_jobs();
  const int widths[] = {1, 2, 4, 8};
  ReplayResult base;
  bool folds_ok = true;
  TextTable t({"lanes", "seconds", "epochs/s", "speedup", "efficiency"});
  double eff4 = 1.0;
  for (const int w : widths) {
    const ReplayResult r = fastest(w);
    if (w == 1) base = r;
    folds_ok = folds_ok && r.time_fold == base.time_fold;
    const double speedup = r.seconds > 0.0 ? base.seconds / r.seconds : 0.0;
    const double eff = speedup / w;
    if (w == 4) eff4 = eff;
    t.add_row({std::to_string(w), TextTable::num(r.seconds, 3),
               TextTable::num(r.epochs_per_s(), 0),
               TextTable::num(speedup, 2) + "x", TextTable::num(eff, 2)});
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("host cores: %d, resolution folds across widths: %s\n", host,
              folds_ok ? "identical" : "DIVERGED (bug!)");
  if (!folds_ok) return 1;
  if (host >= 4 && eff4 < 0.6) {
    std::printf("FAIL: efficiency %.2f at 4 lanes is below the 0.6 floor\n",
                eff4);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nvms;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scaling") == 0) return run_scaling();
  }
  std::printf(
      "Figure 2: performance relative to DRAM (1.00 = DRAM baseline;\n"
      "higher is better).  Input problems sized 50-85%% of DRAM capacity.\n\n");

  init_registry();
  const auto& names = app_names();

  // One task per (app, mode) cell; results land in fixed slots, so the
  // rendered table is identical for any worker count.
  constexpr std::size_t kModes = 3;
  std::vector<AppResult> results(names.size() * kModes);
  parallel_for_index(results.size(), [&](std::size_t i) {
    AppConfig cfg;
    cfg.threads = 36;
    results[i] =
        run_app(names[i / kModes], kAllModes[i % kModes], cfg);
  });

  TextTable t({"Application", "FoM", "dram-only", "cached-nvm",
               "uncached-nvm"});
  for (std::size_t a = 0; a < names.size(); ++a) {
    const AppResult& dram = results[a * kModes + 0];
    const AppResult& cached = results[a * kModes + 1];
    const AppResult& uncached = results[a * kModes + 2];
    auto rel = [&](const AppResult& r) {
      return r.higher_is_better ? r.fom / dram.fom : dram.runtime / r.runtime;
    };
    t.add_row({names[a], dram.fom_unit, TextTable::num(rel(dram), 2),
               TextTable::num(rel(cached), 2),
               TextTable::num(rel(uncached), 2)});
  }
  std::printf("%s\n", t.render().c_str());
  std::printf(
      "Expected shape (paper): cached-NVM within ~10%% of DRAM except\n"
      "ScaLAPACK/Hypre/BoxLib (up to 28%% loss in Hypre); uncached-NVM\n"
      "shows the three sensitivity tiers of Table III.\n");

  // Harness self-measurement: the xsbench grid with DRAM-cache stream
  // memoization (--resolve-cache=shared in the CLI).  The rows must be
  // byte-identical; only the wall clock may move.
  {
    // NVMS_LINT(allow: DET-002, bench self-measures resolve-cache speedup; rows byte-compared separately)
    using Clock = std::chrono::steady_clock;
    SweepSpec spec;
    spec.app = "xsbench";
    spec.threads = {12, 24, 36, 48};
    const auto t0 = Clock::now();
    const auto plain = run_sweep(spec);
    const auto t1 = Clock::now();
    spec.resolve_cache = ResolveCacheMode::kShared;
    const auto cached = run_sweep(spec);
    const auto t2 = Clock::now();
    const double off_s = std::chrono::duration<double>(t1 - t0).count();
    const double on_s = std::chrono::duration<double>(t2 - t1).count();
    std::printf(
        "\nresolve-cache off/on over the xsbench grid: %.3f s -> %.3f s "
        "(%.1f%% saved), stream-memo hit rate %.1f%%, rows %s\n",
        off_s, on_s, 100.0 * (1.0 - on_s / off_s),
        100.0 * cached.cache_stats.hit_rate(),
        sweep_csv(plain) == sweep_csv(cached) ? "byte-identical"
                                              : "DIVERGED (bug!)");
  }

  // Epoch-kernel self-measurement: replay the harvested Fig. 2 corpora
  // (every app x mode, exactly the phases the table above consumed)
  // through the pre-SoA scalar kernels and the SoA kernels in one binary.
  // The time_fold must match exactly — the SoA rework is a layout/
  // strength-reduction change, not a model change — so the speedup is
  // measured on provably identical work.
  {
    // NVMS_LINT(allow: DET-002, bench self-measures the epoch-kernel speedup; resolution folds byte-compared)
    const auto corpora = fig2_corpora();
    constexpr int kRepeat = 3;
    // Best of 3 attempts per side: scheduler noise only ever slows a
    // replay, and the SoA side is short enough (~0.15 s) that a single
    // hiccup would distort the ratio (same policy as bench-snapshot).
    constexpr int kAttempts = 3;
    const auto fastest = [&corpora]() {
      ReplayResult best = replay_corpora(corpora, kRepeat);
      for (int a = 1; a < kAttempts; ++a) {
        const ReplayResult r = replay_corpora(corpora, kRepeat);
        if (r.seconds < best.seconds) best = r;
      }
      return best;
    };
    set_reference_kernels(true);
    const ReplayResult ref = fastest();
    set_reference_kernels(false);
    const ReplayResult soa = fastest();
    std::printf(
        "\nepoch kernel (scalar reference -> SoA) over the Fig. 2 corpora: "
        "%.3f s -> %.3f s (%.2fx), %.0f -> %.0f epochs/s, "
        "%.2f -> %.2f sim-GB/s, resolution fold %s\n",
        ref.seconds, soa.seconds, ref.seconds / soa.seconds,
        ref.epochs_per_s(), soa.epochs_per_s(), ref.stream_gbs(),
        soa.stream_gbs(),
        ref.time_fold == soa.time_fold ? "identical" : "DIVERGED (bug!)");
  }
  return 0;
}
