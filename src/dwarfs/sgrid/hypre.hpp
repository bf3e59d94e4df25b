// Hypre proxy (Structured Grids dwarf).
//
// Models an algebraic-multigrid preconditioned solve of the paper's "3D
// electromagnetic diffusion problem" (Table II): V-cycles of Jacobi
// smoothing, residual, restriction and prolongation over a 7-point stencil
// hierarchy.  The access signature is read-dominant (Table III: ~8% write
// ratio), a blend of strided coefficient streams and low-MLP random
// gathers, which lands Hypre in the "scaled" tier (4.67x) on uncached NVM
// and loses ~28% in cached-NVM because its footprint occupies ~85% of the
// DRAM cache (Fig. 4).
//
// Real numerics: an actual geometric multigrid V-cycle solving a 3D
// Poisson problem on the host cube; tests verify residual reduction.
#pragma once

#include <cstddef>
#include <vector>

#include "appfw/app.hpp"

namespace nvms {

struct HypreParams {
  std::uint64_t virtual_cells = 810'000;  ///< fine-grid cells (modelled)
  std::size_t real_dim = 32;              ///< host cube edge
  int vcycles = 12;
  int levels = 4;
  int pre_smooth = 2;
  /// Bytes of matrix data read per cell per sweep (coefficients + column
  /// indices of the 7-point rows).
  double matrix_bytes_per_cell = 80.0;
  /// Fraction of the matrix stream that behaves as random-small on the
  /// unstructured coarse hierarchy (vs strided on the fine grid).
  double random_fraction = 0.63;
  double gather_mlp = 2.0;

  static HypreParams from(const AppConfig& cfg);
};

/// Host-side multigrid solver on an n^3 Poisson problem (h=1), exposed for
/// unit tests.  Returns the relative residual after `vcycles` V-cycles.
double poisson_mg_solve(std::size_t n, int vcycles, int levels,
                        int pre_smooth, std::vector<double>& u,
                        const std::vector<double>& rhs);

class HypreApp final : public App {
 public:
  std::string name() const override { return "hypre"; }
  std::string dwarf() const override { return "Structured Grids"; }
  std::string input_problem() const override {
    return "3D electromagnetic diffusion (AMG V-cycles)";
  }
  double host(const AppConfig& cfg) const override;
  AppResult emit(AppContext& ctx) const override;
};

}  // namespace nvms
