// XSBench proxy (Monte Carlo dwarf).
//
// Models the unionized-energy-grid macroscopic cross-section lookup kernel
// of XSBench [27] with the paper's "XL problem, 34 million lookups" input
// (Table II).  Each lookup binary-searches the unionized grid and
// interpolates the five cross sections of every isotope in the sampled
// material — a pure random-read, zero-write, latency-bound access
// signature (Table III: 16.1 GB/s read, ~0% write ratio on uncached NVM).
//
// Real numerics: an actual sorted grid is built and actual binary-search +
// linear interpolation runs per (subsampled) lookup; the verification hash
// is the checksum, mirroring XSBench's own verification scheme.
#pragma once

#include "appfw/app.hpp"

namespace nvms {

struct XsBenchParams {
  std::uint64_t total_lookups = 34'000'000;
  int batches = 17;                 ///< lookups are submitted in batches
  std::uint64_t bytes_per_lookup = 1536;  ///< grid walk + xs rows touched
  double flops_per_lookup = 250;
  double mlp = 3.0;                 ///< independent lookups in flight
  std::uint64_t grid_footprint = 64 * MiB;  ///< unionized grid + xs data
  std::size_t real_points = 1 << 14;  ///< host-side unionized grid points
  std::uint64_t real_lookups = 50'000;  ///< host-side lookups executed

  static XsBenchParams from(const AppConfig& cfg);
};

class XsBenchApp final : public App {
 public:
  std::string name() const override { return "xsbench"; }
  std::string dwarf() const override { return "Monte Carlo"; }
  std::string input_problem() const override {
    return "unionized grid, XL problem, 34M lookups";
  }
  double host(const AppConfig& cfg) const override;
  AppResult emit(AppContext& ctx) const override;
};

}  // namespace nvms
