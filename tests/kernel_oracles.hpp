// Bitwise oracles for the dwarfs' host kernels: the straightforward bodies
// of hacc's cell-list force loop, the sparse LU (matrix generator and
// up-looking factorization) and the radix-2 FFT, as they stood before the
// library versions were rewritten for speed.  The library kernels promise
// the same floating-point operations in the same order (DESIGN §5), so the
// tests compare their outputs with these bit for bit, not within a
// tolerance.
//
// The oracle cell list keeps its original neighbour enumeration, which
// visits a pair more than once on grids narrower than 3 cells (cutoff
// > 1/3); compare against it only at cutoffs <= 1/3.
#pragma once

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <numbers>
#include <set>
#include <utility>
#include <vector>

#include "dwarfs/nbody/hacc.hpp"
#include "dwarfs/sparse/sparse_matrix.hpp"
#include "simcore/error.hpp"
#include "simcore/rng.hpp"

namespace nvms::oracle {

// ---------- hacc -----------------------------------------------------------

inline void cell_list_forces(ParticleSet& s, double cutoff) {
  constexpr double kSoftening2 = 1e-4;
  std::fill(s.acc.begin(), s.acc.end(), 0.0);
  const std::size_t n = s.pos.size() / 3;
  const int grid = std::max(1, static_cast<int>(1.0 / cutoff));
  const double cell_edge = 1.0 / grid;
  const double rc2 = cutoff * cutoff;

  auto cell_of = [&](std::size_t i) {
    int c[3];
    for (int k = 0; k < 3; ++k) {
      const double x = s.pos[3 * i + k] - std::floor(s.pos[3 * i + k]);
      c[k] = std::min(grid - 1, static_cast<int>(x / cell_edge));
    }
    return (c[2] * grid + c[1]) * grid + c[0];
  };
  std::vector<std::vector<std::size_t>> cells(
      static_cast<std::size_t>(grid) * grid * grid);
  for (std::size_t i = 0; i < n; ++i) cells[cell_of(i)].push_back(i);

  auto interact = [&](std::size_t i, std::size_t j) {
    double d[3];
    double r2 = kSoftening2;
    for (int k = 0; k < 3; ++k) {
      d[k] = s.pos[3 * j + k] - s.pos[3 * i + k];
      d[k] -= std::round(d[k]);
      r2 += d[k] * d[k];
    }
    if (r2 > rc2 + kSoftening2) return;
    const double inv_r = 1.0 / std::sqrt(r2);
    const double w = inv_r * inv_r * inv_r;
    for (int k = 0; k < 3; ++k) {
      s.acc[3 * i + k] += w * d[k];
      s.acc[3 * j + k] -= w * d[k];
    }
  };

  for (int cz = 0; cz < grid; ++cz) {
    for (int cy = 0; cy < grid; ++cy) {
      for (int cx = 0; cx < grid; ++cx) {
        const std::size_t hc =
            static_cast<std::size_t>((cz * grid + cy) * grid + cx);
        const auto& home = cells[hc];
        for (int dz = -1; dz <= 1; ++dz) {
          for (int dy = -1; dy <= 1; ++dy) {
            for (int dx = -1; dx <= 1; ++dx) {
              const int nx = (cx + dx + grid) % grid;
              const int ny = (cy + dy + grid) % grid;
              const int nz = (cz + dz + grid) % grid;
              const std::size_t nc =
                  static_cast<std::size_t>((nz * grid + ny) * grid + nx);
              if (nc < hc) continue;
              const auto& other = cells[nc];
              for (std::size_t a = 0; a < home.size(); ++a) {
                const std::size_t b0 = (nc == hc) ? a + 1 : 0;
                for (std::size_t b = b0; b < other.size(); ++b) {
                  interact(home[a], other[b]);
                }
              }
            }
          }
        }
      }
    }
  }
}

// ---------- sparse LU ------------------------------------------------------

inline CsrMatrix make_synthetic_matrix(std::size_t n, std::size_t band,
                                       std::size_t extra_per_row,
                                       std::uint64_t seed) {
  require(n >= 2 && band >= 1, "synthetic matrix: n >= 2, band >= 1");
  Rng rng(seed);
  CsrMatrix a;
  a.n = n;
  a.row_ptr.push_back(0);
  for (std::size_t i = 0; i < n; ++i) {
    std::set<std::size_t> cols;
    const std::size_t lo = i > band ? i - band : 0;
    const std::size_t hi = std::min(n - 1, i + band);
    for (std::size_t j = lo; j <= hi; ++j) cols.insert(j);
    for (std::size_t e = 0; e < extra_per_row; ++e) {
      cols.insert(rng.below(n));
    }
    double offdiag_sum = 0.0;
    std::vector<std::pair<std::size_t, double>> row;
    for (const std::size_t j : cols) {
      if (j == i) continue;
      const double v = rng.uniform(-1.0, 1.0);
      offdiag_sum += std::abs(v);
      row.emplace_back(j, v);
    }
    row.emplace_back(i, offdiag_sum + rng.uniform(1.0, 2.0));
    std::sort(row.begin(), row.end());
    for (const auto& [j, v] : row) {
      a.col_idx.push_back(j);
      a.values.push_back(v);
    }
    a.row_ptr.push_back(a.col_idx.size());
  }
  a.validate();
  return a;
}

inline SparseLu sparse_lu_factor(const CsrMatrix& a) {
  a.validate();
  const std::size_t n = a.n;
  SparseLu lu;
  lu.l.n = n;
  lu.u.n = n;
  lu.l.row_ptr.push_back(0);
  lu.u.row_ptr.push_back(0);

  std::vector<double> work(n, 0.0);
  std::vector<double> u_diag(n, 0.0);

  for (std::size_t i = 0; i < n; ++i) {
    std::set<std::size_t> active;
    for (std::size_t p = a.row_ptr[i]; p < a.row_ptr[i + 1]; ++p) {
      work[a.col_idx[p]] = a.values[p];
      active.insert(a.col_idx[p]);
    }
    for (auto it = active.begin(); it != active.end() && *it < i;) {
      const std::size_t k = *it;
      const double pivot = u_diag[k];
      require(std::abs(pivot) > 1e-300, "sparse lu: zero pivot");
      const double lik = work[k] / pivot;
      work[k] = lik;
      for (std::size_t p = lu.u.row_ptr[k]; p < lu.u.row_ptr[k + 1]; ++p) {
        const std::size_t j = lu.u.col_idx[p];
        if (j <= k) continue;
        if (work[j] == 0.0 && active.find(j) == active.end()) {
          active.insert(j);
        }
        work[j] -= lik * lu.u.values[p];
      }
      ++it;
      while (it != active.end() && *it < k) ++it;
    }
    for (const std::size_t j : active) {
      const double v = work[j];
      work[j] = 0.0;
      if (v == 0.0) continue;
      if (j < i) {
        lu.l.col_idx.push_back(j);
        lu.l.values.push_back(v);
      } else {
        if (j == i) u_diag[i] = v;
        lu.u.col_idx.push_back(j);
        lu.u.values.push_back(v);
      }
    }
    require(std::abs(u_diag[i]) > 1e-300, "sparse lu: singular row");
    lu.l.row_ptr.push_back(lu.l.col_idx.size());
    lu.u.row_ptr.push_back(lu.u.col_idx.size());
  }
  lu.l.validate();
  lu.u.validate();
  lu.fill_ratio =
      static_cast<double>(lu.l.nnz() + lu.u.nnz()) /
      static_cast<double>(std::max<std::size_t>(a.nnz(), 1));
  return lu;
}

// ---------- FFT ------------------------------------------------------------

inline void fft1d(std::complex<double>* data, std::size_t n, int sign) {
  require(n > 0 && (n & (n - 1)) == 0, "fft1d: n must be a power of two");
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang = static_cast<double>(sign) * 2.0 * std::numbers::pi /
                       static_cast<double>(len);
    const std::complex<double> wlen(std::cos(ang), std::sin(ang));
    for (std::size_t i = 0; i < n; i += len) {
      std::complex<double> w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const auto u = data[i + k];
        const auto v = data[i + k + len / 2] * w;
        data[i + k] = u + v;
        data[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
}

inline void fft3d(std::vector<std::complex<double>>& cube, std::size_t n,
                  int sign) {
  require(cube.size() == n * n * n, "fft3d: cube size mismatch");
  std::vector<std::complex<double>> line(n);
  const auto idx = [n](std::size_t x, std::size_t y, std::size_t z) {
    return x + n * (y + n * z);
  };
  for (std::size_t z = 0; z < n; ++z)
    for (std::size_t y = 0; y < n; ++y) fft1d(&cube[idx(0, y, z)], n, sign);
  for (std::size_t z = 0; z < n; ++z)
    for (std::size_t x = 0; x < n; ++x) {
      for (std::size_t y = 0; y < n; ++y) line[y] = cube[idx(x, y, z)];
      fft1d(line.data(), n, sign);
      for (std::size_t y = 0; y < n; ++y) cube[idx(x, y, z)] = line[y];
    }
  for (std::size_t y = 0; y < n; ++y)
    for (std::size_t x = 0; x < n; ++x) {
      for (std::size_t z = 0; z < n; ++z) line[z] = cube[idx(x, y, z)];
      fft1d(line.data(), n, sign);
      for (std::size_t z = 0; z < n; ++z) cube[idx(x, y, z)] = line[z];
    }
}

}  // namespace nvms::oracle
