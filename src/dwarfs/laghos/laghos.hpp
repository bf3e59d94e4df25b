// Laghos proxy (high-order Lagrangian hydrodynamics, the paper's eighth
// application).
//
// Models the Sedov blast wave Q3-Q2 3D computation (Table II) in two
// temporally distinct stages, matching the Fig. 5a/b traces:
//   stage 1 "assembly" — mass-matrix / quadrature-data assembly passes,
//     ~20% of execution, moving-average write bandwidth ~1.3 GB/s with a
//     read/write ratio of 3 — *below* the NVM throttling threshold, so the
//     stage keeps its share on uncached NVM;
//   stage 2 "timeloop" — corner-force + state update steps, compute-bound
//     with modest memory traffic.
// Laghos is the paper's second "insensitive" application (1.27x).
//
// Real numerics: an actual 1D staggered-grid Lagrangian hydro scheme
// (Sedov-like point blast, artificial viscosity, adaptive dt); tests check
// total-energy conservation and shock propagation.
#pragma once

#include <cstddef>
#include <vector>

#include "appfw/app.hpp"

namespace nvms {

struct LaghosParams {
  std::uint64_t virtual_zones = 500'000;  ///< modelled mesh zones
  std::size_t real_zones = 512;           ///< host 1D zones
  int assembly_passes = 8;
  int timesteps = 32;
  double gather_mlp = 1.5;

  static LaghosParams from(const AppConfig& cfg);
};

/// Host-side 1D Lagrangian hydro state (staggered: velocities on nodes).
struct HydroState {
  std::vector<double> x;    ///< node positions (zones+1)
  std::vector<double> v;    ///< node velocities (zones+1)
  std::vector<double> rho;  ///< zone density
  std::vector<double> e;    ///< zone specific internal energy
  double gamma = 1.4;

  std::size_t zones() const { return rho.size(); }
  double total_energy() const;
};

/// Sedov-like setup: uniform gas, energy spike in the central zone.
HydroState make_sedov(std::size_t zones, double blast_energy);
/// One explicit Lagrangian step; returns the stable dt actually used.
double hydro_step(HydroState& s, double cfl);
/// Position of the outward-moving shock (max |velocity| node).
double shock_position(const HydroState& s);

class LaghosApp final : public App {
 public:
  std::string name() const override { return "laghos"; }
  std::string dwarf() const override {
    return "Lagrangian hydrodynamics (proxy)";
  }
  std::string input_problem() const override {
    return "Sedov blast wave Q3-Q2 3D computation";
  }
  double host(const AppConfig& cfg) const override;
  AppResult emit(AppContext& ctx) const override;
};

}  // namespace nvms
