// NPB FT proxy (Spectral Methods dwarf).
//
// Models the class-D discrete 3D FFT benchmark (Table II): per iteration an
// `evolve` pointwise multiply followed by an inverse 3D FFT (three axis
// passes, two of them strided/transpose-like) and a checksum reduction.
// The signature is the paper's "bottlenecked" tier poster child: high write
// ratio (~39%), moderate bandwidth, and a 14.9x slowdown on uncached NVM
// driven by write throttling; concurrency has the diverging read/write
// effect of Fig. 7.
//
// Real numerics: an actual radix-2 Cooley-Tukey 3D FFT over a
// representative cube, verified in tests against a naive DFT and by
// Parseval's identity; the NPB-style complex checksum is the app checksum.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

#include "appfw/app.hpp"

namespace nvms {

struct FtParams {
  /// Modelled grid (class D scaled 1/1024): 2 complex arrays.
  std::uint64_t virtual_elems = 2'000'000;  ///< per array
  std::size_t real_dim = 32;                ///< host cube edge (power of 2)
  int iterations = 20;
  double write_absorption = 0.9;  ///< fraction of stores reaching memory
  /// Serial transpose-coordination cost, flops per participating thread
  /// (the all-to-all grows with thread count; drives the <1 concurrency
  /// ratio the paper measures for FT even on DRAM, Fig. 6).
  double sync_flops_per_thread = 1.8e6;

  static FtParams from(const AppConfig& cfg);
};

/// In-place radix-2 complex FFT (sign=-1 forward, +1 inverse, unscaled).
/// Exposed for unit testing.  n must be a power of two.
void fft1d(std::complex<double>* data, std::size_t n, int sign);

/// 3D FFT over a cube of edge n stored x-fastest.  Unscaled.
void fft3d(std::vector<std::complex<double>>& cube, std::size_t n, int sign);

class FtApp final : public App {
 public:
  std::string name() const override { return "ft"; }
  std::string dwarf() const override { return "Spectral Methods"; }
  std::string input_problem() const override {
    return "discrete 3D FFT, NPB class D";
  }
  double host(const AppConfig& cfg) const override;
  AppResult emit(AppContext& ctx) const override;
};

}  // namespace nvms
