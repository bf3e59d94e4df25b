// SuperLU proxy (Sparse Linear Algebra dwarf).
//
// Models the distributed PDGSSVX driver (Table II): a "factor" computation
// with two dramatically different stages (Sec. IV-C, Fig. 5c/d):
//   stage 1 — supernodal panel factorization with heavy fill-in writes
//             (~54 GB/s read, ~33 GB/s write demand on DRAM; collapses
//             ~14x on uncached NVM — the write-throttling showcase);
//   stage 2 — triangular solves / refinement, read-dominant streaming
//             with a moderate, bandwidth-proportional slowdown.
// On DRAM stage 1 is ~20% of the execution; on uncached NVM it extends to
// ~70% — this phase flip is the paper's headline write-throttling result.
//
// Real numerics: an up-looking sparse LU (symbolic fill-in, no pivoting)
// of a synthetic diagonally dominant band-plus-random matrix, plus the
// forward/backward solves (sparse_matrix.hpp); the checksum is the
// residual ||A x - b|| plus the factors' fill ratio.
//
// The five University of Florida collection datasets used in Fig. 3 are
// provided as presets with footprints scaled 1/1024 from the published
// sizes (the largest, nlpkkt120, needed 490 GB on the testbed).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "appfw/app.hpp"

namespace nvms {

/// A synthetic stand-in for one UF-collection matrix: only the quantities
/// that determine traffic and flops are modelled.
struct SuperLuDataset {
  std::string name;
  std::uint64_t footprint;     ///< bytes of factors + matrix (scaled)
  double factor_flops;         ///< numeric factorization flops
  int panels = 24;             ///< supernodal panels in stage 1
};

/// The Fig. 3 ladder: kim2, offshore, Ge87H76, nlpkkt80, nlpkkt120.
const std::array<SuperLuDataset, 5>& superlu_datasets();

struct SuperLuParams {
  SuperLuDataset dataset;
  /// Stage-1 traffic rates relative to footprint (per panel).
  double stage1_read_frac = 0.30;
  double stage1_write_frac = 0.23;
  /// Active-window caps on per-phase traffic (bytes): supernodal panels
  /// and cache-blocked update sweeps keep bounded working sets.
  std::uint64_t stage1_window = 48 * MiB;
  std::uint64_t stage2_window = 64 * MiB;
  /// Stage-1 arithmetic intensity (flops per byte read).
  double stage1_flops_per_byte = 5.5;
  /// Stage-2 streaming passes over the factors.
  int solve_sweeps = 10;
  double stage2_write_frac = 0.05;
  double gather_mlp = 4.0;
  /// Host (real) problem.
  std::size_t real_n = 700;
  std::size_t real_band = 24;

  static SuperLuParams from(const AppConfig& cfg);
};

class SuperLuApp final : public App {
 public:
  std::string name() const override { return "superlu"; }
  std::string dwarf() const override { return "Sparse Linear Algebra"; }
  std::string input_problem() const override {
    return "distributed PDGSSVX, UF collection datasets";
  }
  AppResult run(AppContext& ctx) const override;
};

}  // namespace nvms
