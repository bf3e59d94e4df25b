#include "dwarfs/ugrid/boxlib.hpp"

#include <algorithm>
#include <cmath>

#include "appfw/result.hpp"

namespace nvms {

BoxLibParams BoxLibParams::from(const AppConfig& cfg) {
  BoxLibParams p;
  p.virtual_cells_l0 = static_cast<std::uint64_t>(
      static_cast<double>(p.virtual_cells_l0) * cfg.size_scale);
  if (cfg.iterations > 0) p.steps = cfg.iterations;
  return p;
}

double WaveState::total_mass() const {
  double m = 0.0;
  for (double v : c) m += v;
  return m;
}

WaveState make_wave(std::size_t n, double radius) {
  WaveState s;
  s.n = n;
  s.c.assign(n * n, 0.0);
  const double cx = static_cast<double>(n) / 2.0;
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i) {
      const double dx = static_cast<double>(i) - cx;
      const double dy = static_cast<double>(j) - cx;
      const double r = std::sqrt(dx * dx + dy * dy);
      s.c[j * n + i] = r < radius ? 1.0 : 0.0;
    }
  return s;
}

void wave_step(WaveState& s, double v, double dt, double react_rate) {
  const std::size_t n = s.n;
  const double cx = static_cast<double>(n) / 2.0;
  std::vector<double> next(s.c.size());
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      const double dx = static_cast<double>(i) - cx;
      const double dy = static_cast<double>(j) - cx;
      const double r = std::max(std::sqrt(dx * dx + dy * dy), 1e-9);
      // radial outward velocity components
      const double vx = v * dx / r;
      const double vy = v * dy / r;
      // first-order upwind gradients
      const std::size_t im = i > 0 ? i - 1 : i;
      const std::size_t ip = i + 1 < n ? i + 1 : i;
      const std::size_t jm = j > 0 ? j - 1 : j;
      const std::size_t jp = j + 1 < n ? j + 1 : j;
      const double cij = s.c[j * n + i];
      const double gx = vx >= 0 ? cij - s.c[j * n + im]
                                : s.c[j * n + ip] - cij;
      const double gy = vy >= 0 ? cij - s.c[jm * n + i]
                                : s.c[jp * n + i] - cij;
      double cn = cij - dt * (std::abs(vx) * gx + std::abs(vy) * gy);
      cn += dt * react_rate * cn * (1.0 - cn);  // logistic reaction
      next[j * n + i] = std::clamp(cn, 0.0, 1.0);
    }
  }
  s.c.swap(next);
}

double wave_front_radius(const WaveState& s) {
  const std::size_t n = s.n;
  const double cx = static_cast<double>(n) / 2.0;
  double sum_r = 0.0;
  std::size_t count = 0;
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i + 1 < n; ++i) {
      const double a = s.c[j * n + i];
      const double b = s.c[j * n + i + 1];
      if ((a - 0.5) * (b - 0.5) <= 0.0 && a != b) {
        const double dx = static_cast<double>(i) - cx;
        const double dy = static_cast<double>(j) - cx;
        sum_r += std::sqrt(dx * dx + dy * dy);
        ++count;
      }
    }
  return count > 0 ? sum_r / static_cast<double>(count) : 0.0;
}

double BoxLibApp::host(const AppConfig& cfg) const {
  const auto p = BoxLibParams::from(cfg);
  // Circular wave on level 0 resolution.
  WaveState wave = make_wave(p.real_dim, static_cast<double>(p.real_dim) / 10);
  const double r0 = wave_front_radius(wave);
  for (int step = 0; step < p.steps; ++step) wave_step(wave, 0.4, 0.5, 0.35);
  // The front must have moved outward; fold position + mass into checksum.
  return wave_front_radius(wave) - r0 + wave.total_mass();
}

AppResult BoxLibApp::emit(AppContext& ctx) const {
  const auto p = BoxLibParams::from(ctx.cfg());
  const std::uint64_t l0_cells = p.virtual_cells_l0;
  const std::uint64_t l1_cells = static_cast<std::uint64_t>(
      static_cast<double>(l0_cells) * p.refined_fraction *
      p.refine_ratio * p.refine_ratio);
  const std::uint64_t cell_bytes = p.ncomp * sizeof(double);
  const std::uint64_t l0_bytes = l0_cells * cell_bytes;
  const std::uint64_t l1_bytes = l1_cells * cell_bytes;

  auto level0 = ctx.alloc<double>("amr_level0", l0_cells * p.ncomp);
  auto level1 = ctx.alloc<double>(
      "amr_level1",
      std::max<std::uint64_t>(l1_cells * p.ncomp, p.real_dim * p.real_dim));

  const int threads = ctx.cfg().threads;
  auto frac = [](std::uint64_t b, double f) {
    return static_cast<std::uint64_t>(static_cast<double>(b) * f);
  };

  for (int step = 0; step < p.steps; ++step) {
    // Level-0 advection + reaction: stencil reads, new-state writes.
    ctx.run(PhaseBuilder("advect:l0")
                .threads(threads)
                .flops(30.0 * static_cast<double>(l0_cells))
                .stream(strided_read(level0.id(), frac(l0_bytes, 1.8)).with_reuse(3))
                .stream(seq_write(level0.id(), frac(l0_bytes, 0.33)).with_reuse(3))
                .build());

    // Fillpatch: interpolate level-0 ghost data into level-1 boxes.
    ctx.run(PhaseBuilder("fillpatch")
                .threads(threads)
                .flops(4.0 * static_cast<double>(l1_cells) * 0.2)
                .mlp(p.gather_mlp)
                .stream(strided_read(level0.id(), frac(l0_bytes, 0.3)))
                .stream(rand_write(level1.id(), frac(l1_bytes, 0.03))
                            .with_granule(64))
                .build());

    // Level-1 advection + reaction on the refined boxes.
    ctx.run(PhaseBuilder("advect:l1")
                .threads(threads)
                .flops(30.0 * static_cast<double>(l1_cells))
                .stream(strided_read(level1.id(), frac(l1_bytes, 1.8)).with_reuse(3))
                .stream(seq_write(level1.id(), frac(l1_bytes, 0.33)).with_reuse(3))
                .build());

    // Reflux + regrid: move boxes with the front, copy state into the new
    // layout (write-heavy, partially random).
    if ((step + 1) % p.regrid_interval == 0) {
      ctx.run(PhaseBuilder("regrid")
                  .threads(threads)
                  .flops(2.0 * static_cast<double>(l1_cells))
                  .mlp(p.gather_mlp)
                  .stream(strided_read(level1.id(), frac(l1_bytes, 1.0)).with_reuse(3))
                  .stream(seq_write(level1.id(), frac(l1_bytes, 0.5)).with_reuse(3))
                  .stream(rand_write(level0.id(), frac(l0_bytes, 0.05))
                              .with_granule(64))
                  .build());
    }
  }

  AppResult r = finalize_result(ctx, name());
  r.fom = r.runtime;
  r.fom_unit = "s";
  r.higher_is_better = false;
  return r;
}

}  // namespace nvms
