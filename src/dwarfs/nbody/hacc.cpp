#include "dwarfs/nbody/hacc.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <vector>

#include "appfw/result.hpp"
#include "simcore/rng.hpp"

namespace nvms {

HaccParams HaccParams::from(const AppConfig& cfg) {
  HaccParams p;
  p.virtual_particles = static_cast<std::uint64_t>(
      static_cast<double>(p.virtual_particles) * cfg.size_scale);
  if (cfg.iterations > 0) p.steps = cfg.iterations;
  return p;
}

namespace {

/// Plummer-softened pairwise kernel used by the real host integrator.
constexpr double kSoftening2 = 1e-4;

}  // namespace

ParticleSet make_particles(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  ParticleSet s;
  s.pos.resize(3 * n);
  s.vel.resize(3 * n);
  s.acc.assign(3 * n, 0.0);
  for (std::size_t i = 0; i < 3 * n; ++i) {
    s.pos[i] = rng.uniform(0.0, 1.0);
    s.vel[i] = rng.uniform(-0.01, 0.01);
  }
  return s;
}

namespace {

/// std::round wrapped for use as a template argument.
double libm_round(double d) { return std::round(d); }

/// True when every coordinate is finite and all of them lie within a span
/// below `limit`, so no separation the force loop forms reaches `limit`.
bool spread_below(const std::vector<double>& pos, double limit) {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  bool finite = true;
  for (const double v : pos) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
    finite = finite && std::isfinite(v);
  }
  return finite && hi - lo < limit;
}

/// Particles binned into cells by a stable counting sort: cell c owns the
/// slots [start[c], start[c + 1]), holding its particles in increasing
/// index order, with slot-ordered copies of their positions.
struct CellBins {
  int grid = 1;
  std::vector<std::size_t> start;
  std::vector<std::size_t> order;  ///< slot -> particle index
  std::array<std::vector<double>, 3> pos;
  std::size_t max_count = 0;       ///< largest cell occupancy
};

CellBins bin_particles(const ParticleSet& s, int grid) {
  const std::size_t n = s.count();
  const double cell_edge = 1.0 / grid;
  const auto cell_of = [&](std::size_t i) {
    int c[3];
    for (int k = 0; k < 3; ++k) {
      const double x = s.pos[3 * i + k] - std::floor(s.pos[3 * i + k]);
      c[k] = std::min(grid - 1, static_cast<int>(x / cell_edge));
    }
    return static_cast<std::size_t>((c[2] * grid + c[1]) * grid + c[0]);
  };
  CellBins bins;
  bins.grid = grid;
  bins.start.assign(static_cast<std::size_t>(grid) * grid * grid + 1, 0);
  for (std::size_t i = 0; i < n; ++i) ++bins.start[cell_of(i) + 1];
  for (std::size_t c = 1; c < bins.start.size(); ++c) {
    bins.max_count = std::max(bins.max_count, bins.start[c]);
    bins.start[c] += bins.start[c - 1];
  }
  std::vector<std::size_t> next(bins.start.begin(), bins.start.end() - 1);
  bins.order.resize(n);
  for (std::size_t i = 0; i < n; ++i) bins.order[next[cell_of(i)]++] = i;
  for (int k = 0; k < 3; ++k) {
    auto& p = bins.pos[static_cast<std::size_t>(k)];
    p.resize(n);
    for (std::size_t slot = 0; slot < n; ++slot) {
      p[slot] = s.pos[3 * bins.order[slot] + static_cast<std::size_t>(k)];
    }
  }
  return bins;
}

/// Minimum-image separations d = p[t] - pa of the m particles at
/// (x, y, z)[t] from pa, and their softened squared distances r2[t].
/// Branch-free, so the compiler vectorizes it.
template <double (*Round)(double)>
void separations(const double* __restrict x, const double* __restrict y,
                 const double* __restrict z, const double pa[3],
                 std::size_t m, double* __restrict dx,
                 double* __restrict dy, double* __restrict dz,
                 double* __restrict r2) {
  const double xa = pa[0], ya = pa[1], za = pa[2];
  for (std::size_t t = 0; t < m; ++t) {
    double d0 = x[t] - xa;
    d0 -= Round(d0);  // periodic box
    double d1 = y[t] - ya;
    d1 -= Round(d1);
    double d2 = z[t] - za;
    d2 -= Round(d2);
    dx[t] = d0;
    dy[t] = d1;
    dz[t] = d2;
    r2[t] = ((kSoftening2 + d0 * d0) + d1 * d1) + d2 * d2;
  }
}

/// The pair loop of cell_list_forces() over binned particles.
///
/// The order is fixed: home cells in index order; for each, its distinct
/// neighbour cells nc >= home at offsets (dz, dy, dx) in -1..1 order; for
/// each neighbour, home slots a; for each a, neighbour slots b (b > a
/// within the home cell).  Every in-range pair adds to both particles'
/// accelerations in `acc` (three per particle, in particle order) in
/// exactly that order.  For each (home, neighbour, a) a branch-free pass
/// computes all separations, a second compacts the in-range ones, and
/// only those pay for the square root.  `Round` must equal std::round on
/// every separation formed.
template <double (*Round)(double)>
void pair_forces(const CellBins& bins, double reach2, double* acc) {
  const int grid = bins.grid;
  // Distinct cells at offsets -1, 0, +1 along one axis, in offset order.
  // On grids narrower than 3 the offsets wrap onto the same cell, which a
  // pair must still meet only once.
  std::vector<std::vector<int>> near(static_cast<std::size_t>(grid));
  for (int c = 0; c < grid; ++c) {
    auto& cells = near[static_cast<std::size_t>(c)];
    for (int d = -1; d <= 1; ++d) {
      const int v = (c + d + grid) % grid;
      if (std::find(cells.begin(), cells.end(), v) == cells.end()) {
        cells.push_back(v);
      }
    }
  }
  const double* x = bins.pos[0].data();
  const double* y = bins.pos[1].data();
  const double* z = bins.pos[2].data();
  const std::size_t cap = bins.max_count;
  std::vector<double> lanes(4 * cap);
  double* dx = lanes.data();
  double* dy = dx + cap;
  double* dz = dy + cap;
  double* r2 = dz + cap;
  std::vector<std::size_t> hit(cap);

  for (int cz = 0; cz < grid; ++cz) {
    for (int cy = 0; cy < grid; ++cy) {
      for (int cx = 0; cx < grid; ++cx) {
        const auto hc = static_cast<std::size_t>((cz * grid + cy) * grid + cx);
        const std::size_t h1 = bins.start[hc + 1];
        for (const int nz : near[static_cast<std::size_t>(cz)]) {
          for (const int ny : near[static_cast<std::size_t>(cy)]) {
            for (const int nx : near[static_cast<std::size_t>(cx)]) {
              const auto nc =
                  static_cast<std::size_t>((nz * grid + ny) * grid + nx);
              if (nc < hc) continue;  // each cell pair once
              const std::size_t o1 = bins.start[nc + 1];
              for (std::size_t a = bins.start[hc]; a < h1; ++a) {
                const std::size_t b0 = nc == hc ? a + 1 : bins.start[nc];
                const std::size_t m = o1 - b0;
                const double pa[3] = {x[a], y[a], z[a]};
                separations<Round>(x + b0, y + b0, z + b0, pa, m, dx, dy, dz,
                                   r2);
                std::size_t hits = 0;
                for (std::size_t t = 0; t < m; ++t) {
                  hit[hits] = t;
                  hits += static_cast<std::size_t>(!(r2[t] > reach2));
                }
                double* fa = acc + 3 * bins.order[a];
                double fa0 = fa[0], fa1 = fa[1], fa2 = fa[2];
                for (std::size_t q = 0; q < hits; ++q) {
                  const std::size_t t = hit[q];
                  double* fb = acc + 3 * bins.order[b0 + t];
                  const double inv_r = 1.0 / std::sqrt(r2[t]);
                  const double w = inv_r * inv_r * inv_r;
                  const double f0 = w * dx[t];
                  const double f1 = w * dy[t];
                  const double f2 = w * dz[t];
                  fa0 += f0;
                  fb[0] -= f0;
                  fa1 += f1;
                  fb[1] -= f1;
                  fa2 += f2;
                  fb[2] -= f2;
                }
                fa[0] = fa0;
                fa[1] = fa1;
                fa[2] = fa2;
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace

/// Short-range force via a real 3D cell list over the unit box: particles
/// are binned into cells of edge >= the cutoff, and pairs interact only
/// within the 27-cell neighbourhood — HACC's short-range structure.
void cell_list_forces(ParticleSet& s, double cutoff) {
  std::fill(s.acc.begin(), s.acc.end(), 0.0);
  const int grid = std::max(1, static_cast<int>(1.0 / cutoff));
  const double reach2 = cutoff * cutoff + kSoftening2;
  const CellBins bins = bin_particles(s, grid);
  if (spread_below(s.pos, kRoundNearZeroLimit)) {
    pair_forces<round_near_zero>(bins, reach2, s.acc.data());
  } else {
    pair_forces<libm_round>(bins, reach2, s.acc.data());
  }
}

void leapfrog_step(ParticleSet& s, double dt) {
  const std::size_t n3 = s.pos.size();
  for (std::size_t i = 0; i < n3; ++i) {
    s.vel[i] += dt * s.acc[i];
    s.pos[i] += dt * s.vel[i];
  }
}

double kinetic_energy(const ParticleSet& s) {
  double ke = 0.0;
  for (double v : s.vel) ke += 0.5 * v * v;
  return ke;
}

std::array<double, 3> total_momentum(const ParticleSet& s) {
  std::array<double, 3> p = {0.0, 0.0, 0.0};
  for (std::size_t i = 0; i < s.count(); ++i) {
    for (int k = 0; k < 3; ++k) p[static_cast<std::size_t>(k)] += s.vel[3 * i + k];
  }
  return p;
}

double HaccApp::host(const AppConfig& cfg) const {
  const auto p = HaccParams::from(cfg);
  ParticleSet s = make_particles(p.real_particles, cfg.seed);
  for (int step = 0; step < p.steps; ++step) {
    cell_list_forces(s, 0.1);
    leapfrog_step(s, 1e-3);
  }
  return kinetic_energy(s);
}

AppResult HaccApp::emit(AppContext& ctx) const {
  const auto p = HaccParams::from(ctx.cfg());
  const std::uint64_t nv = p.virtual_particles;

  auto pos = ctx.alloc<double>("particles_pos", 3 * nv);
  auto vel = ctx.alloc<double>("particles_vel", 3 * nv);
  auto acc = ctx.alloc<double>("particles_acc", 3 * nv);

  // HACC subcycles the short-range force many times per long (memory
  // visible) step; particle tiles live in cache during subcycling, so DRAM
  // traffic only occurs at step boundaries.
  constexpr int kSubcycles = 400;
  const double flops_per_step = static_cast<double>(nv) * p.neighbours *
                                p.flops_per_interaction * kSubcycles;

  for (int step = 0; step < p.steps; ++step) {
    // Streaming pass over positions (read) plus the velocity/acceleration
    // update writes: matches the ~36% write ratio of Table III.
    ctx.run(PhaseBuilder("force+kick")
                .threads(ctx.cfg().threads)
                .flops(flops_per_step)
                .parallel_fraction(0.995)
                .stream(seq_read(pos.id(), 3 * nv * sizeof(double)))
                .stream(seq_read(vel.id(), nv * sizeof(double)))
                .stream(seq_write(vel.id(), nv * sizeof(double)))
                .stream(seq_write(acc.id(), nv * sizeof(double) * 3 / 4))
                .build());
  }

  AppResult r = finalize_result(ctx, name());
  r.fom = r.runtime;
  r.fom_unit = "s";
  r.higher_is_better = false;
  return r;
}

}  // namespace nvms
