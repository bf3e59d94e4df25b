#include "dwarfs/dense/scalapack.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "appfw/result.hpp"
#include "simcore/rng.hpp"

namespace nvms {

ScalapackParams ScalapackParams::from(const AppConfig& cfg) {
  ScalapackParams p;
  // Footprint scales with size_scale; dimension with its square root.
  const double dim_scale = std::sqrt(cfg.size_scale);
  p.virtual_n = static_cast<std::size_t>(
      static_cast<double>(p.virtual_n) * dim_scale);
  // Keep the dimension a multiple of the panel width.
  p.virtual_n = std::max<std::size_t>(p.panel_nb,
                                      p.virtual_n / p.panel_nb * p.panel_nb);
  return p;
}

void blocked_gemm(const double* a, const double* b, double* c, std::size_t n,
                  std::size_t nb) {
  require(nb > 0 && nb <= n, "blocked_gemm: bad block size");
  for (std::size_t ii = 0; ii < n; ii += nb) {
    for (std::size_t kk = 0; kk < n; kk += nb) {
      for (std::size_t jj = 0; jj < n; jj += nb) {
        const std::size_t ie = std::min(ii + nb, n);
        const std::size_t ke = std::min(kk + nb, n);
        const std::size_t je = std::min(jj + nb, n);
        for (std::size_t i = ii; i < ie; ++i) {
          for (std::size_t k = kk; k < ke; ++k) {
            const double aik = a[i * n + k];
            for (std::size_t j = jj; j < je; ++j) {
              c[i * n + j] += aik * b[k * n + j];
            }
          }
        }
      }
    }
  }
}

double ScalapackApp::host(const AppConfig& cfg) const {
  const auto p = ScalapackParams::from(cfg);
  const std::size_t real_elems = p.real_n * p.real_n;
  std::vector<double> a(real_elems);
  std::vector<double> b(real_elems);
  std::vector<double> c(real_elems, 0.0);
  Rng rng(cfg.seed);
  for (std::size_t i = 0; i < real_elems; ++i) {
    a[i] = rng.uniform(-1.0, 1.0);
    b[i] = rng.uniform(-1.0, 1.0);
  }
  blocked_gemm(a.data(), b.data(), c.data(), p.real_n, p.real_nb);
  double frob = 0.0;
  for (std::size_t i = 0; i < real_elems; ++i) frob += c[i] * c[i];
  return std::sqrt(frob);
}

AppResult ScalapackApp::emit(AppContext& ctx) const {
  const auto p = ScalapackParams::from(ctx.cfg());
  const std::size_t nv = p.virtual_n;
  const std::uint64_t mat_elems = static_cast<std::uint64_t>(nv) * nv;

  auto a = ctx.alloc<double>("mat_a", mat_elems);
  auto b = ctx.alloc<double>("mat_b", mat_elems);
  auto c = ctx.alloc<double>("mat_c", mat_elems);
  // Broadcast workspace: one A panel and one B panel.
  const std::uint64_t panel_elems = static_cast<std::uint64_t>(nv) * p.panel_nb;
  auto work = ctx.alloc<double>("panel_workspace", panel_elems * 2);

  const int threads = ctx.cfg().threads;
  const std::uint64_t panel_bytes = panel_elems * sizeof(double);
  const std::uint64_t c_bytes = mat_elems * sizeof(double);
  const std::size_t panels = nv / p.panel_nb;
  const double update_flops =
      2.0 * static_cast<double>(mat_elems) * static_cast<double>(p.panel_nb) /
      p.gemm_efficiency;

  for (std::size_t k = 0; k < panels; ++k) {
    // Stage 1: broadcast A(:,k) and B(k,:) panels into workspace.
    ctx.run(PhaseBuilder("bcast")
                .threads(threads)
                .flops(1e6)
                .parallel_fraction(0.3)
                .stream(seq_read(a.id(), panel_bytes))
                .stream(seq_read(b.id(), panel_bytes))
                .stream(seq_write(work.id(),
                                  static_cast<std::uint64_t>(
                                      2.0 * static_cast<double>(panel_bytes) *
                                      p.bcast_write_frac)))
                .build());

    // Stage 2: rank-nb update of C from the workspace panels.  The C tile
    // traffic is half streaming (row panels) and half scattered block
    // gathers — the stage is read-bound on NVM, so its time shrinks as
    // read bandwidth scales with concurrency (Fig. 8).
    const auto c_read_half = static_cast<std::uint64_t>(
        static_cast<double>(c_bytes) * p.c_read_frac / 2.0);
    ctx.run(
        PhaseBuilder("update")
            .threads(threads)
            .flops(update_flops)
            .overlap(0.85)
            .mlp(2.5)
            .stream(seq_read(work.id(), 2 * panel_bytes))
            .stream(strided_read(c.id(), c_read_half))
            .stream(rand_read(c.id(), c_read_half).with_granule(64))
            .stream(strided_write(c.id(),
                                  static_cast<std::uint64_t>(
                                      static_cast<double>(c_bytes) *
                                      p.c_write_frac)))
            .build());
  }

  AppResult r = finalize_result(ctx, name());
  r.fom = r.runtime;
  r.fom_unit = "s";
  r.higher_is_better = false;
  return r;
}

}  // namespace nvms
