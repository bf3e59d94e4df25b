// Sparse CSR matrix and up-looking LU tests: structure validation, fill-in
// accounting, solve residuals across pattern shapes, and bit-for-bit
// agreement of the generator and factorization with their oracles in
// kernel_oracles.hpp.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "dwarfs/sparse/sparse_matrix.hpp"
#include "kernel_oracles.hpp"
#include "simcore/error.hpp"

namespace nvms {
namespace {

/// Success when both matrices have the same pattern and the same value
/// bits.
::testing::AssertionResult BitIdentical(const CsrMatrix& got,
                                        const CsrMatrix& want) {
  if (got.n != want.n || got.row_ptr != want.row_ptr ||
      got.col_idx != want.col_idx) {
    return ::testing::AssertionFailure() << "patterns differ";
  }
  for (std::size_t p = 0; p < got.values.size(); ++p) {
    if (std::bit_cast<std::uint64_t>(got.values[p]) !=
        std::bit_cast<std::uint64_t>(want.values[p])) {
      return ::testing::AssertionFailure()
             << "value " << p << ": " << std::hexfloat << got.values[p]
             << " != " << want.values[p];
    }
  }
  return ::testing::AssertionSuccess();
}

void expect_matches_oracle(std::size_t n, std::size_t band,
                           std::size_t extra, std::uint64_t seed) {
  const auto a = make_synthetic_matrix(n, band, extra, seed);
  ASSERT_TRUE(
      BitIdentical(a, oracle::make_synthetic_matrix(n, band, extra, seed)));
  const auto lu = sparse_lu_factor(a);
  const auto want = oracle::sparse_lu_factor(a);
  EXPECT_TRUE(BitIdentical(lu.l, want.l));
  EXPECT_TRUE(BitIdentical(lu.u, want.u));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(lu.fill_ratio),
            std::bit_cast<std::uint64_t>(want.fill_ratio));
}

double residual(const CsrMatrix& a, const std::vector<double>& x,
                const std::vector<double>& b) {
  const auto ax = csr_matvec(a, x);
  double r = 0.0;
  for (std::size_t i = 0; i < a.n; ++i) r += (ax[i] - b[i]) * (ax[i] - b[i]);
  return std::sqrt(r);
}

TEST(Csr, SyntheticMatrixStructure) {
  const auto a = make_synthetic_matrix(64, 3, 2, 7);
  a.validate();
  EXPECT_EQ(a.n, 64u);
  // every row holds its band plus the diagonal
  for (std::size_t i = 0; i < a.n; ++i) {
    EXPECT_GE(a.row_ptr[i + 1] - a.row_ptr[i], 4u);
    EXPECT_NE(a.at(i, i), 0.0);
  }
  // diagonal dominance
  for (std::size_t i = 0; i < a.n; ++i) {
    double off = 0.0;
    for (std::size_t p = a.row_ptr[i]; p < a.row_ptr[i + 1]; ++p) {
      if (a.col_idx[p] != i) off += std::abs(a.values[p]);
    }
    EXPECT_GT(std::abs(a.at(i, i)), off);
  }
}

TEST(Csr, MatvecAgainstDense) {
  const auto a = make_synthetic_matrix(16, 2, 1, 3);
  std::vector<double> x(16);
  for (std::size_t i = 0; i < 16; ++i) x[i] = static_cast<double>(i) - 7.5;
  const auto y = csr_matvec(a, x);
  for (std::size_t i = 0; i < 16; ++i) {
    double expect = 0.0;
    for (std::size_t j = 0; j < 16; ++j) expect += a.at(i, j) * x[j];
    EXPECT_NEAR(y[i], expect, 1e-12);
  }
}

class LuShapes
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t,
                                                 std::size_t>> {};

TEST_P(LuShapes, FactorSolveResidualSmall) {
  const auto [n, band, extra] = GetParam();
  const auto a = make_synthetic_matrix(n, band, extra, n * 13 + band);
  const auto lu = sparse_lu_factor(a);
  std::vector<double> b(n);
  for (std::size_t i = 0; i < n; ++i)
    b[i] = std::sin(static_cast<double>(i));
  const auto x = sparse_lu_solve(lu, b);
  EXPECT_LT(residual(a, x, b), 1e-8);
  // L strictly lower, U upper with full diagonal
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t p = lu.l.row_ptr[i]; p < lu.l.row_ptr[i + 1]; ++p) {
      EXPECT_LT(lu.l.col_idx[p], i);
    }
    bool has_diag = false;
    for (std::size_t p = lu.u.row_ptr[i]; p < lu.u.row_ptr[i + 1]; ++p) {
      EXPECT_GE(lu.u.col_idx[p], i);
      has_diag |= (lu.u.col_idx[p] == i);
    }
    EXPECT_TRUE(has_diag);
  }
  EXPECT_GE(lu.fill_ratio, 0.5);
}

TEST_P(LuShapes, MatchesOracleBitForBit) {
  const auto [n, band, extra] = GetParam();
  expect_matches_oracle(n, band, extra, n * 13 + band);
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, LuShapes,
    ::testing::Values(std::make_tuple(32, 2, 0),
                      std::make_tuple(100, 4, 1),
                      std::make_tuple(200, 8, 2),
                      std::make_tuple(64, 1, 4)));

TEST(SparseLu, FillInExceedsBandedPattern) {
  // random off-band entries must produce fill beyond A's pattern
  const auto a = make_synthetic_matrix(128, 3, 3, 11);
  const auto lu = sparse_lu_factor(a);
  EXPECT_GT(lu.l.nnz() + lu.u.nnz(), a.nnz());
  EXPECT_GT(lu.fill_ratio, 1.0);
}

TEST(SparseLu, PureBandHasNoFillBeyondBand) {
  const auto a = make_synthetic_matrix(64, 2, 0, 5);
  const auto lu = sparse_lu_factor(a);
  for (std::size_t i = 0; i < a.n; ++i) {
    for (std::size_t p = lu.l.row_ptr[i]; p < lu.l.row_ptr[i + 1]; ++p) {
      EXPECT_GE(lu.l.col_idx[p] + 2, i);  // stays within the band
    }
  }
}

TEST(SparseLu, ReconstructsA) {
  // (L + I) * U == A within rounding, checked entrywise on a small case.
  const auto a = make_synthetic_matrix(24, 2, 1, 9);
  const auto lu = sparse_lu_factor(a);
  for (std::size_t i = 0; i < a.n; ++i) {
    for (std::size_t j = 0; j < a.n; ++j) {
      double sum = lu.u.at(i, j);  // the k == i term (L has unit diagonal)
      for (std::size_t p = lu.l.row_ptr[i]; p < lu.l.row_ptr[i + 1]; ++p) {
        sum += lu.l.values[p] * lu.u.at(lu.l.col_idx[p], j);
      }
      EXPECT_NEAR(sum, a.at(i, j), 1e-9) << i << "," << j;
    }
  }
}

TEST(SparseLu, SuperLuProblemMatchesOracleBitForBit) {
  // The SuperLU app's host problem (real_n 700, real_band 24, two random
  // entries per row) at three seeds.
  for (const std::uint64_t seed : {7u, 8u, 12345u}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    expect_matches_oracle(700, 24, 2, seed);
  }
}

TEST(Csr, ValidationCatchesCorruption) {
  auto a = make_synthetic_matrix(16, 2, 0, 1);
  a.col_idx[2] = 99;  // out of range
  EXPECT_THROW(a.validate(), ConfigError);
}

}  // namespace
}  // namespace nvms
