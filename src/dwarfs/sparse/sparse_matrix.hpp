// General sparse (CSR) matrices and an up-looking sparse LU factorization
// with symbolic fill-in — the real numerical core behind the SuperLU
// proxy.
//
// The factorization is row-wise ("up-looking") without pivoting, which is
// exact for the diagonally dominant synthetic systems the generator
// produces (the UF-collection stand-ins of Fig. 3).  Its floating-point
// operations and their order are fixed (DESIGN §5): row by row, columns
// eliminated in increasing order, each update applied in U's row order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace nvms {

/// Compressed sparse row matrix, column indices sorted within each row.
struct CsrMatrix {
  std::size_t n = 0;
  std::vector<std::size_t> row_ptr;  ///< n + 1 entries
  std::vector<std::size_t> col_idx;
  std::vector<double> values;

  std::size_t nnz() const { return values.size(); }
  /// Value at (i, j); 0 when the entry is not stored.
  double at(std::size_t i, std::size_t j) const;
  void validate() const;
};

/// Synthetic diagonally-dominant matrix: a tridiagonal-ish band of width
/// `band` plus `extra_per_row` random off-band entries — the controlled
/// fill pattern used to model the UF datasets.
CsrMatrix make_synthetic_matrix(std::size_t n, std::size_t band,
                                std::size_t extra_per_row,
                                std::uint64_t seed);

/// y = A x.
std::vector<double> csr_matvec(const CsrMatrix& a,
                               const std::vector<double>& x);

/// LU factors: L is unit lower triangular (diagonal not stored), U upper
/// triangular including the diagonal.
struct SparseLu {
  CsrMatrix l;
  CsrMatrix u;
  /// Fill-in ratio: (nnz(L) + nnz(U)) / nnz(A).
  double fill_ratio = 0.0;
};

/// Up-looking sparse LU without pivoting.  Throws Error on a (near-)zero
/// pivot; intended for diagonally dominant inputs.
SparseLu sparse_lu_factor(const CsrMatrix& a);

/// Solve L U x = b.
std::vector<double> sparse_lu_solve(const SparseLu& lu,
                                    std::vector<double> b);

}  // namespace nvms
