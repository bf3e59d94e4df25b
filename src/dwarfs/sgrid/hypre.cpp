#include "dwarfs/sgrid/hypre.hpp"

#include <algorithm>
#include <cmath>

#include "appfw/result.hpp"

namespace nvms {

HypreParams HypreParams::from(const AppConfig& cfg) {
  HypreParams p;
  p.virtual_cells = static_cast<std::uint64_t>(
      static_cast<double>(p.virtual_cells) * cfg.size_scale);
  if (cfg.iterations > 0) p.vcycles = cfg.iterations;
  return p;
}

namespace {

// ---- host geometric multigrid on an n^3 Poisson problem ---------------

struct Level {
  std::size_t n;  // cube edge
  std::vector<double> u, rhs, res;
};

std::size_t idx(std::size_t n, std::size_t i, std::size_t j, std::size_t k) {
  return i + n * (j + n * k);
}

/// Weighted Jacobi sweep for -laplace(u) = rhs (Dirichlet-0 boundary,
/// interior points only), omega = 2/3.
void jacobi(Level& L, int sweeps) {
  const std::size_t n = L.n;
  std::vector<double> tmp(L.u.size());
  for (int s = 0; s < sweeps; ++s) {
    for (std::size_t k = 1; k + 1 < n; ++k)
      for (std::size_t j = 1; j + 1 < n; ++j)
        for (std::size_t i = 1; i + 1 < n; ++i) {
          const double nb = L.u[idx(n, i - 1, j, k)] +
                            L.u[idx(n, i + 1, j, k)] +
                            L.u[idx(n, i, j - 1, k)] +
                            L.u[idx(n, i, j + 1, k)] +
                            L.u[idx(n, i, j, k - 1)] +
                            L.u[idx(n, i, j, k + 1)];
          const double jac = (L.rhs[idx(n, i, j, k)] + nb) / 6.0;
          tmp[idx(n, i, j, k)] =
              L.u[idx(n, i, j, k)] + (2.0 / 3.0) * (jac - L.u[idx(n, i, j, k)]);
        }
    for (std::size_t k = 1; k + 1 < n; ++k)
      for (std::size_t j = 1; j + 1 < n; ++j)
        for (std::size_t i = 1; i + 1 < n; ++i)
          L.u[idx(n, i, j, k)] = tmp[idx(n, i, j, k)];
  }
}

void residual(Level& L) {
  const std::size_t n = L.n;
  std::fill(L.res.begin(), L.res.end(), 0.0);
  for (std::size_t k = 1; k + 1 < n; ++k)
    for (std::size_t j = 1; j + 1 < n; ++j)
      for (std::size_t i = 1; i + 1 < n; ++i) {
        const double nb = L.u[idx(n, i - 1, j, k)] + L.u[idx(n, i + 1, j, k)] +
                          L.u[idx(n, i, j - 1, k)] + L.u[idx(n, i, j + 1, k)] +
                          L.u[idx(n, i, j, k - 1)] + L.u[idx(n, i, j, k + 1)];
        L.res[idx(n, i, j, k)] =
            L.rhs[idx(n, i, j, k)] - (6.0 * L.u[idx(n, i, j, k)] - nb);
      }
}

void restrict_to(const Level& fine, Level& coarse) {
  const std::size_t nc = coarse.n;
  const std::size_t nf = fine.n;
  std::fill(coarse.rhs.begin(), coarse.rhs.end(), 0.0);
  std::fill(coarse.u.begin(), coarse.u.end(), 0.0);
  for (std::size_t k = 1; k + 1 < nc; ++k)
    for (std::size_t j = 1; j + 1 < nc; ++j)
      for (std::size_t i = 1; i + 1 < nc; ++i) {
        // full-weighting-style restriction (mean over the 2^3 children),
        // scaled 4x for the coarser spacing h -> 2h
        double sum = 0.0;
        for (std::size_t dk = 0; dk < 2; ++dk)
          for (std::size_t dj = 0; dj < 2; ++dj)
            for (std::size_t di = 0; di < 2; ++di)
              sum += fine.res[idx(nf, 2 * i + di, 2 * j + dj, 2 * k + dk)];
        coarse.rhs[idx(nc, i, j, k)] = 4.0 * sum / 8.0;
      }
}

void prolong_add(Level& fine, const Level& coarse) {
  const std::size_t nc = coarse.n;
  const std::size_t nf = fine.n;
  for (std::size_t k = 1; k + 1 < nc; ++k)
    for (std::size_t j = 1; j + 1 < nc; ++j)
      for (std::size_t i = 1; i + 1 < nc; ++i) {
        const double v = coarse.u[idx(nc, i, j, k)];
        for (std::size_t dk = 0; dk < 2; ++dk)
          for (std::size_t dj = 0; dj < 2; ++dj)
            for (std::size_t di = 0; di < 2; ++di) {
              const std::size_t fi = 2 * i + di;
              const std::size_t fj = 2 * j + dj;
              const std::size_t fk = 2 * k + dk;
              if (fi + 1 < nf && fj + 1 < nf && fk + 1 < nf)
                fine.u[idx(nf, fi, fj, fk)] += v;
            }
      }
}

double norm2(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x * x;
  return std::sqrt(s);
}

}  // namespace

double poisson_mg_solve(std::size_t n, int vcycles, int levels,
                        int pre_smooth, std::vector<double>& u,
                        const std::vector<double>& rhs) {
  require(n >= 8 && (n & (n - 1)) == 0, "hypre: host dim must be 2^k >= 8");
  require(levels >= 1, "hypre: need at least one level");
  std::vector<Level> hier;
  std::size_t dim = n;
  for (int l = 0; l < levels && dim >= 8; ++l, dim /= 2) {
    Level L;
    L.n = dim;
    L.u.assign(dim * dim * dim, 0.0);
    L.rhs.assign(dim * dim * dim, 0.0);
    L.res.assign(dim * dim * dim, 0.0);
    hier.push_back(std::move(L));
  }
  hier[0].u = u;
  hier[0].rhs = rhs;
  const double rhs_norm = std::max(norm2(rhs), 1e-300);

  for (int c = 0; c < vcycles; ++c) {
    for (std::size_t l = 0; l + 1 < hier.size(); ++l) {
      jacobi(hier[l], pre_smooth);
      residual(hier[l]);
      restrict_to(hier[l], hier[l + 1]);
    }
    jacobi(hier.back(), 8 * pre_smooth);  // coarse "solve"
    for (std::size_t l = hier.size() - 1; l-- > 0;) {
      prolong_add(hier[l], hier[l + 1]);
      jacobi(hier[l], pre_smooth);
    }
  }
  residual(hier[0]);
  u = hier[0].u;
  return norm2(hier[0].res) / rhs_norm;
}

double HypreApp::host(const AppConfig& cfg) const {
  const auto p = HypreParams::from(cfg);
  const std::size_t real_cells = p.real_dim * p.real_dim * p.real_dim;
  // Point source in the cube center.
  std::vector<double> u(real_cells, 0.0);
  std::vector<double> rhs(real_cells, 0.0);
  rhs[idx(p.real_dim, p.real_dim / 2, p.real_dim / 2, p.real_dim / 2)] = 1.0;
  const double rel_res =
      poisson_mg_solve(p.real_dim, p.vcycles, p.levels, p.pre_smooth, u, rhs);
  return rel_res + norm2(u);
}

AppResult HypreApp::emit(AppContext& ctx) const {
  const auto p = HypreParams::from(ctx.cfg());
  const std::uint64_t nv = p.virtual_cells;

  // Modelled data: stencil matrix (coefficients + indices) and the vector
  // set (u, rhs, residual, temp).
  auto mat = ctx.alloc<double>(
      "amg_matrix",
      static_cast<std::uint64_t>(static_cast<double>(nv) *
                                 p.matrix_bytes_per_cell / sizeof(double)));
  auto vec = ctx.alloc<double>("grid_vectors", 4 * nv);

  const int threads = ctx.cfg().threads;
  // Per-sweep traffic at level l (cells / 8^l).
  auto sweep = [&](const char* phase_name, std::uint64_t cells,
                   double write_cells_frac) {
    const double mat_bytes = static_cast<double>(cells) *
                             p.matrix_bytes_per_cell;
    const std::uint64_t strided_bytes = static_cast<std::uint64_t>(
        mat_bytes * (1.0 - p.random_fraction));
    const std::uint64_t mat_random = static_cast<std::uint64_t>(
        mat_bytes * p.random_fraction);
    const std::uint64_t gather_bytes = 16 * cells;  // u-gathers
    const std::uint64_t vec_read = 8 * cells;       // rhs stream
    const std::uint64_t vec_write = static_cast<std::uint64_t>(
        8.0 * static_cast<double>(cells) * write_cells_frac);
    ctx.run(PhaseBuilder(phase_name)
                .threads(threads)
                .flops(12.0 * static_cast<double>(cells))
                .mlp(p.gather_mlp)
                .stream(strided_read(mat.id(), strided_bytes).with_reuse(3))
                .stream(rand_read(mat.id(), mat_random).with_granule(64))
                .stream(rand_read(vec.id(), gather_bytes).with_granule(64))
                .stream(seq_read(vec.id(), vec_read))
                .stream(seq_write(vec.id(), vec_write))
                .build());
  };

  for (int c = 0; c < p.vcycles; ++c) {
    std::uint64_t cells = nv;
    for (int l = 0; l < p.levels; ++l, cells /= 8) {
      for (int s = 0; s < p.pre_smooth; ++s) sweep("smooth-down", cells, 1.0);
      sweep("residual+restrict", cells, 0.25);
    }
    for (int l = p.levels; l-- > 0;) {
      cells = nv >> (3 * l);
      sweep("prolong", cells, 1.0);
      for (int s = 0; s < p.pre_smooth; ++s) sweep("smooth-up", cells, 1.0);
    }
  }

  AppResult r = finalize_result(ctx, name());
  r.fom = r.runtime;
  r.fom_unit = "s";
  r.higher_is_better = false;
  return r;
}

}  // namespace nvms
