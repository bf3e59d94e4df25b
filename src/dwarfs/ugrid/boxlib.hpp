// BoxLib/AMReX proxy (Unstructured Grids dwarf).
//
// Models the spherical chemical-wave propagation benchmark (Table II) on a
// two-level block-structured AMR hierarchy.  Each step advects and reacts
// the species field on level 0 and on the refined boxes tracking the wave
// front, exchanges ghost cells (fillpatch), and periodically refluxes /
// regrids.  The signature combines substantial write traffic (new state +
// ghost scatter + regrid copies, ~21% write ratio) with strided/irregular
// reads — the paper's "bottlenecked" tier (8.94x on uncached NVM), driven
// by write throttling like FT.
//
// Real numerics: an actual 2D upwind advection + logistic reaction of a
// circular wave with a refined annulus around the front; tests verify wave
// propagation and concentration bounds.
#pragma once

#include <cstddef>
#include <vector>

#include "appfw/app.hpp"

namespace nvms {

struct BoxLibParams {
  std::uint64_t virtual_cells_l0 = 620'000;  ///< level-0 cells (modelled)
  double refined_fraction = 0.35;  ///< of level 0 covered by level 1 boxes
  int refine_ratio = 2;            ///< per dimension (2D -> 4x cells)
  std::size_t real_dim = 96;       ///< host level-0 grid edge (2D)
  int steps = 16;
  int regrid_interval = 4;
  /// State components per cell (species + velocity + work).
  int ncomp = 6;
  double gather_mlp = 3.0;

  static BoxLibParams from(const AppConfig& cfg);
};

/// Host-side wave state, exposed for unit tests.
struct WaveState {
  std::size_t n = 0;          ///< grid edge
  std::vector<double> c;      ///< concentration field (n*n)
  double total_mass() const;
};

WaveState make_wave(std::size_t n, double radius);
/// One upwind advection (radial, speed v) + logistic reaction step.
void wave_step(WaveState& s, double v, double dt, double react_rate);
/// Mean radius of the c=0.5 contour (wave front position).
double wave_front_radius(const WaveState& s);

class BoxLibApp final : public App {
 public:
  std::string name() const override { return "boxlib"; }
  std::string dwarf() const override { return "Unstructured Grids"; }
  std::string input_problem() const override {
    return "spherical chemical wave propagation (2-level AMR)";
  }
  double host(const AppConfig& cfg) const override;
  AppResult emit(AppContext& ctx) const override;
};

}  // namespace nvms
