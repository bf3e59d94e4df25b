// HACC proxy (N-body dwarf).
//
// Models the short-range particle force kernel of HACC [10] on the paper's
// "252 Mpc simulation box, 384 grids" CORAL input (Table II).  The kernel
// is compute-bound: per step the O(N * neighbours) force evaluation
// dominates while memory traffic stays tiny (Table III: 40 MB/s total,
// 36% write ratio, 1.01x slowdown on uncached NVM — the "insensitive"
// tier).
//
// Real numerics: a cell-list short-range gravity integrator (leapfrog) on
// a representative particle set; the checksum folds total kinetic energy
// and momentum, which tests verify for conservation properties.
#pragma once

#include <array>
#include <cmath>
#include <vector>

#include "appfw/app.hpp"

namespace nvms {

struct HaccParams {
  std::uint64_t virtual_particles = 800'000;  ///< modelled particle count
  std::size_t real_particles = 8'192;           ///< host-side particles
  int steps = 8;
  double neighbours = 64.0;  ///< avg short-range interaction partners
  double flops_per_interaction = 22.0;  ///< rsqrt + fma kernel

  static HaccParams from(const AppConfig& cfg);
};

/// Host-side particle state (SoA, unit periodic box).
struct ParticleSet {
  std::vector<double> pos;  ///< 3N
  std::vector<double> vel;  ///< 3N
  std::vector<double> acc;  ///< 3N
  std::size_t count() const { return pos.size() / 3; }
};

/// Uniform random particles with small velocities.
ParticleSet make_particles(std::size_t n, std::uint64_t seed);

/// Short-range softened gravity via a 3D cell list with periodic
/// minimum-image distances; forces are pairwise symmetric (Newton's third
/// law), so total momentum is conserved exactly.  Each pair within the
/// cutoff interacts once, whatever the cell grid's width.  Exposed for
/// testing.
void cell_list_forces(ParticleSet& s, double cutoff);

/// Separations below which round_near_zero() equals std::round.
inline constexpr double kRoundNearZeroLimit = 1.5;

/// std::round (halves away from zero) without a libm call, exact for
/// |d| < kRoundNearZeroLimit.  The force loop's minimum-image shift uses
/// it whenever all coordinates span less than that limit, which holds
/// while the particles stay within a quarter box length of the unit cell.
/// Exposed for testing.
inline double round_near_zero(double d) {
  return std::copysign(std::abs(d) >= 0.5 ? 1.0 : 0.0, d);
}

/// Kick-drift update.
void leapfrog_step(ParticleSet& s, double dt);

/// Sum of 0.5 v^2 over all particles.
double kinetic_energy(const ParticleSet& s);
/// Total momentum component sums (3 values).
std::array<double, 3> total_momentum(const ParticleSet& s);

class HaccApp final : public App {
 public:
  std::string name() const override { return "hacc"; }
  std::string dwarf() const override { return "N-body"; }
  std::string input_problem() const override {
    return "252 Mpc box, 384^3 grid (CORAL), short-range force";
  }
  double host(const AppConfig& cfg) const override;
  AppResult emit(AppContext& ctx) const override;
};

}  // namespace nvms
