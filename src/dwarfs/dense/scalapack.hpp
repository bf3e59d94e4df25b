// ScaLAPACK proxy (Dense Linear Algebra dwarf).
//
// Models the distributed level-3 matrix multiply (pdgemm, SUMMA form) of
// Table II.  Each k-panel iteration has two stages mirroring Fig. 8:
//   stage 1 "bcast"  — panel broadcast into workspace (copy-bound, modest
//                      parallelism, write traffic);
//   stage 2 "update" — the local rank-nb update C += A_k B_k (streaming
//                      panel reads, C tile read-modify-write).
// On uncached NVM the write stream makes the phase mildly write-throttled
// (Table III: ~12 GB/s, 16% write ratio, 2.99x slowdown), which is exactly
// what write-aware placement of C removes (Fig. 12).
//
// Real numerics: an actual blocked GEMM over a representative matrix,
// verified against a naive triple loop in tests; checksum is the Frobenius
// norm of C.
#pragma once

#include <cstddef>
#include <vector>

#include "appfw/app.hpp"

namespace nvms {

struct ScalapackParams {
  std::size_t virtual_n = 1792;  ///< modelled matrix dimension
  std::size_t panel_nb = 128;    ///< panel width
  std::size_t real_n = 192;      ///< host matrix dimension
  std::size_t real_nb = 48;      ///< host block size
  /// Fraction of C streamed per panel update (cache-blocking reuse).
  double c_read_frac = 2.0;
  double c_write_frac = 0.2;
  /// Fraction of broadcast panel bytes written to workspace.
  double bcast_write_frac = 0.5;
  /// Effective fraction of peak flop rate the local dgemm sustains.
  double gemm_efficiency = 0.85;

  static ScalapackParams from(const AppConfig& cfg);
};

/// Blocked host GEMM: C += A * B, all n x n row-major, block size nb.
/// Exposed for unit testing.
void blocked_gemm(const double* a, const double* b, double* c, std::size_t n,
                  std::size_t nb);

class ScalapackApp final : public App {
 public:
  std::string name() const override { return "scalapack"; }
  std::string dwarf() const override { return "Dense Linear Algebra"; }
  std::string input_problem() const override {
    return "distributed matrix multiply (pdgemm), NxN";
  }
  double host(const AppConfig& cfg) const override;
  AppResult emit(AppContext& ctx) const override;
};

}  // namespace nvms
