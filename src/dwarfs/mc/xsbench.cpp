#include "dwarfs/mc/xsbench.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "appfw/result.hpp"
#include "simcore/rng.hpp"

namespace nvms {

XsBenchParams XsBenchParams::from(const AppConfig& cfg) {
  XsBenchParams p;
  p.grid_footprint = static_cast<std::uint64_t>(
      static_cast<double>(p.grid_footprint) * cfg.size_scale);
  p.total_lookups = static_cast<std::uint64_t>(
      static_cast<double>(p.total_lookups) * cfg.size_scale);
  if (cfg.iterations > 0) p.batches = cfg.iterations;
  require(p.batches > 0, "xsbench: batches must be positive");
  return p;
}

namespace {

/// Five reaction channels, as in XSBench (total, elastic, absorption,
/// fission, nu-fission).
constexpr int kChannels = 5;
constexpr int kNuclides = 12;

/// Unionized energy grid plus per-nuclide cross-section tables and the
/// material -> nuclide composition of the reactor model.
struct HostGrid {
  std::vector<double> energy;            ///< sorted unionized energies
  std::vector<double> xs;                ///< [nuclide][point][channel]
  std::vector<std::vector<int>> materials;  ///< nuclide lists
  std::vector<double> material_probs;       ///< sampling distribution

  double xs_at(int nuclide, std::size_t point, int channel) const {
    return xs[(static_cast<std::size_t>(nuclide) * energy.size() + point) *
                  kChannels +
              static_cast<std::size_t>(channel)];
  }
};

HostGrid build_grid(std::size_t n, Rng& rng) {
  HostGrid g;
  g.energy.resize(n);
  double e = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    e += rng.uniform(1e-6, 1e-3);
    g.energy[i] = e;
  }
  g.xs.resize(static_cast<std::size_t>(kNuclides) * n * kChannels);
  for (double& v : g.xs) v = rng.uniform(0.1, 10.0);
  // XSBench's 12 materials: fuel carries the most nuclides, the rest a
  // handful each; fuel dominates the sampling distribution.
  g.materials.resize(12);
  for (std::size_t m = 0; m < g.materials.size(); ++m) {
    const int count = m == 0 ? kNuclides : 2 + static_cast<int>(rng.below(4));
    for (int k = 0; k < count; ++k) {
      g.materials[m].push_back(static_cast<int>(rng.below(kNuclides)));
    }
    g.material_probs.push_back(m == 0 ? 0.45 : 0.05);
  }
  return g;
}

int sample_material(const HostGrid& g, Rng& rng) {
  double u = rng.uniform() * 1.0;
  for (std::size_t m = 0; m < g.materials.size(); ++m) {
    u -= g.material_probs[m];
    if (u <= 0.0) return static_cast<int>(m);
  }
  return 0;
}

/// One macroscopic lookup: one unionized binary search, then an
/// interpolation of all five channels for every nuclide in the sampled
/// material; returns the summed macro xs (the verification hash term).
double lookup(const HostGrid& g, double e, int material) {
  const auto it = std::lower_bound(g.energy.begin(), g.energy.end(), e);
  std::size_t hi = static_cast<std::size_t>(it - g.energy.begin());
  hi = std::clamp<std::size_t>(hi, 1, g.energy.size() - 1);
  const std::size_t lo = hi - 1;
  const double f =
      (e - g.energy[lo]) / (g.energy[hi] - g.energy[lo] + 1e-300);
  double macro = 0.0;
  for (const int nuc : g.materials[static_cast<std::size_t>(material)]) {
    for (int c = 0; c < kChannels; ++c) {
      const double a = g.xs_at(nuc, lo, c);
      const double b = g.xs_at(nuc, hi, c);
      macro += a + f * (b - a);
    }
  }
  return macro;
}

}  // namespace

double XsBenchApp::host(const AppConfig& cfg) const {
  const auto p = XsBenchParams::from(cfg);
  Rng rng(cfg.seed);
  const HostGrid g = build_grid(p.real_points, rng);
  const double e_max = g.energy.back();
  // Every batch runs the same number of real lookups for the verification
  // hash: sample a material, then the unionized search + per-nuclide
  // interpolation.
  const std::uint64_t lookups =
      static_cast<std::uint64_t>(p.batches) *
      std::max<std::uint64_t>(1, p.real_lookups / p.batches);
  double vhash = 0.0;
  for (std::uint64_t i = 0; i < lookups; ++i) {
    const double e = rng.uniform(0.0, e_max);
    const int material = sample_material(g, rng);
    vhash += lookup(g, e, material);
  }
  return vhash;
}

AppResult XsBenchApp::emit(AppContext& ctx) const {
  const auto p = XsBenchParams::from(ctx.cfg());

  // Unionized grid (energies + per-isotope indices) and cross-section data.
  // The grid is ~1/4 of the footprint, the xs tables the rest.
  const std::uint64_t grid_bytes = p.grid_footprint / 4;
  const std::uint64_t xs_bytes = p.grid_footprint - grid_bytes;
  auto grid = ctx.alloc<double>("unionized_grid", grid_bytes / sizeof(double));
  auto xs = ctx.alloc<double>("nuclide_xs",
                              std::max<std::uint64_t>(
                                  xs_bytes / sizeof(double),
                                  p.real_points * kChannels));

  const std::uint64_t lookups_per_batch = p.total_lookups / p.batches;
  for (int b = 0; b < p.batches; ++b) {
    // Exact traffic of the full batch: every lookup walks the search path
    // in the unionized grid (~1/3 of the touched bytes) and reads the xs
    // rows of the sampled material's isotopes (~2/3).
    const std::uint64_t batch_bytes = lookups_per_batch * p.bytes_per_lookup;
    ctx.run(PhaseBuilder("lookup")
                .threads(ctx.cfg().threads)
                .flops(static_cast<double>(lookups_per_batch) *
                       p.flops_per_lookup)
                .mlp(p.mlp)
                // Binary-search hops touch single cache lines; the xs rows
                // of the sampled isotopes are ~1.5 KB contiguous reads.
                .stream(rand_read(grid.id(), batch_bytes / 5).with_granule(64))
                .stream(rand_read(xs.id(), batch_bytes - batch_bytes / 5)
                            .with_granule(1536))
                .build());
  }

  AppResult r = finalize_result(ctx, name());
  r.fom = static_cast<double>(p.total_lookups) / r.runtime;
  r.fom_unit = "lookups/s";
  r.higher_is_better = true;
  return r;
}

}  // namespace nvms
