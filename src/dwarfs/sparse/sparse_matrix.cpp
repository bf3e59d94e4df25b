#include "dwarfs/sparse/sparse_matrix.hpp"

#include <algorithm>
#include <cmath>

#include "simcore/error.hpp"
#include "simcore/rng.hpp"

namespace nvms {

double CsrMatrix::at(std::size_t i, std::size_t j) const {
  for (std::size_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
    if (col_idx[p] == j) return values[p];
    if (col_idx[p] > j) break;  // sorted
  }
  return 0.0;
}

void CsrMatrix::validate() const {
  require(row_ptr.size() == n + 1, "csr: row_ptr size mismatch");
  require(col_idx.size() == values.size(), "csr: index/value size mismatch");
  require(row_ptr.front() == 0 && row_ptr.back() == values.size(),
          "csr: row_ptr bounds");
  for (std::size_t i = 0; i < n; ++i) {
    require(row_ptr[i] <= row_ptr[i + 1], "csr: row_ptr not monotone");
    for (std::size_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
      require(col_idx[p] < n, "csr: column out of range");
      if (p + 1 < row_ptr[i + 1])
        require(col_idx[p] < col_idx[p + 1], "csr: columns not sorted");
    }
  }
}

CsrMatrix make_synthetic_matrix(std::size_t n, std::size_t band,
                                std::size_t extra_per_row,
                                std::uint64_t seed) {
  require(n >= 2 && band >= 1, "synthetic matrix: n >= 2, band >= 1");
  Rng rng(seed);
  CsrMatrix a;
  a.n = n;
  a.row_ptr.push_back(0);
  std::vector<std::size_t> cols;
  std::vector<double> vals;
  for (std::size_t i = 0; i < n; ++i) {
    // The band plus extra_per_row random columns, sorted and deduplicated.
    cols.clear();
    const std::size_t lo = i > band ? i - band : 0;
    const std::size_t hi = std::min(n - 1, i + band);
    for (std::size_t j = lo; j <= hi; ++j) cols.push_back(j);
    for (std::size_t e = 0; e < extra_per_row; ++e) {
      cols.push_back(rng.below(n));
    }
    std::sort(cols.begin(), cols.end());
    cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
    // Off-diagonal values in column order, then the dominant diagonal.
    vals.assign(cols.size(), 0.0);
    double offdiag_sum = 0.0;
    std::size_t diag = 0;
    for (std::size_t q = 0; q < cols.size(); ++q) {
      if (cols[q] == i) {
        diag = q;
        continue;
      }
      vals[q] = rng.uniform(-1.0, 1.0);
      offdiag_sum += std::abs(vals[q]);
    }
    vals[diag] = offdiag_sum + rng.uniform(1.0, 2.0);  // dominance
    a.col_idx.insert(a.col_idx.end(), cols.begin(), cols.end());
    a.values.insert(a.values.end(), vals.begin(), vals.end());
    a.row_ptr.push_back(a.col_idx.size());
  }
  a.validate();
  return a;
}

std::vector<double> csr_matvec(const CsrMatrix& a,
                               const std::vector<double>& x) {
  require(x.size() == a.n, "csr matvec: size mismatch");
  std::vector<double> y(a.n, 0.0);
  for (std::size_t i = 0; i < a.n; ++i) {
    double sum = 0.0;
    for (std::size_t p = a.row_ptr[i]; p < a.row_ptr[i + 1]; ++p) {
      sum += a.values[p] * x[a.col_idx[p]];
    }
    y[i] = sum;
  }
  return y;
}

SparseLu sparse_lu_factor(const CsrMatrix& a) {
  a.validate();
  const std::size_t n = a.n;
  SparseLu lu;
  lu.l.n = n;
  lu.u.n = n;
  lu.l.row_ptr.push_back(0);
  lu.u.row_ptr.push_back(0);

  // Dense working row; row i's active columns (A's pattern plus fill-in)
  // are the j in [lo, hi) with active[j] == i.
  std::vector<double> work(n, 0.0);
  std::vector<double> u_diag(n, 0.0);
  std::vector<std::size_t> active(n, n);

  for (std::size_t i = 0; i < n; ++i) {
    // scatter A(i, :)
    std::size_t lo = n;
    std::size_t hi = 0;
    for (std::size_t p = a.row_ptr[i]; p < a.row_ptr[i + 1]; ++p) {
      const std::size_t j = a.col_idx[p];
      work[j] = a.values[p];
      active[j] = i;
      lo = std::min(lo, j);
      hi = std::max(hi, j + 1);
    }
    // Eliminate the active columns k < i in increasing order; fill-in only
    // adds columns j > k, which the scan reaches later.
    for (std::size_t k = lo; k < i && k < hi; ++k) {
      if (active[k] != i) continue;
      const double pivot = u_diag[k];
      require(std::abs(pivot) > 1e-300, "sparse lu: zero pivot");
      const double lik = work[k] / pivot;
      work[k] = lik;
      // w -= lik * U(k, j>k), in U's row order
      const std::size_t p1 = lu.u.row_ptr[k + 1];
      for (std::size_t p = lu.u.row_ptr[k]; p < p1; ++p) {
        const std::size_t j = lu.u.col_idx[p];
        if (j <= k) continue;
        active[j] = i;  // symbolic fill-in
        work[j] -= lik * lu.u.values[p];
      }
      if (p1 > lu.u.row_ptr[k]) hi = std::max(hi, lu.u.col_idx[p1 - 1] + 1);
    }
    // gather L(i, <i) and U(i, >=i) in column order
    for (std::size_t j = lo; j < hi; ++j) {
      if (active[j] != i) continue;
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

std::vector<double> sparse_lu_solve(const SparseLu& lu,
                                    std::vector<double> b) {
  const std::size_t n = lu.u.n;
  require(b.size() == n, "sparse lu solve: rhs size mismatch");
  // forward: L y = b (unit diagonal, L strictly lower)
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (std::size_t p = lu.l.row_ptr[i]; p < lu.l.row_ptr[i + 1]; ++p) {
      sum -= lu.l.values[p] * b[lu.l.col_idx[p]];
    }
    b[i] = sum;
  }
  // backward: U x = y
  for (std::size_t ii = n; ii-- > 0;) {
    double sum = b[ii];
    double diag = 0.0;
    for (std::size_t p = lu.u.row_ptr[ii]; p < lu.u.row_ptr[ii + 1]; ++p) {
      const std::size_t j = lu.u.col_idx[p];
      if (j == ii) {
        diag = lu.u.values[p];
      } else {
        sum -= lu.u.values[p] * b[j];
      }
    }
    b[ii] = sum / diag;
  }
  return b;
}

}  // namespace nvms
