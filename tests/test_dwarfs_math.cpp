// Numerical-kernel correctness tests for the dwarf mini-apps: the FFT,
// blocked GEMM, multigrid, AMR wave, N-body cell list and Lagrangian hydro
// host kernels all compute real answers that are verified here against
// reference implementations and physical invariants.  The FFT and cell
// list are also compared bit for bit with their oracles in
// kernel_oracles.hpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <numbers>
#include <vector>

#include "dwarfs/dense/scalapack.hpp"
#include "dwarfs/laghos/laghos.hpp"
#include "dwarfs/nbody/hacc.hpp"
#include "dwarfs/sgrid/hypre.hpp"
#include "dwarfs/spectral/ft.hpp"
#include "dwarfs/ugrid/boxlib.hpp"
#include "kernel_oracles.hpp"
#include "simcore/error.hpp"
#include "simcore/rng.hpp"

namespace nvms {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Success when `got` and `want` hold the same doubles bit for bit.
::testing::AssertionResult BitIdentical(const std::vector<double>& got,
                                        const std::vector<double>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << "size " << got.size() << " != " << want.size();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (bits(got[i]) != bits(want[i])) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << std::hexfloat << got[i]
             << " != " << want[i];
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult BitIdentical(
    const std::vector<std::complex<double>>& got,
    const std::vector<std::complex<double>>& want) {
  std::vector<double> g, w;
  for (const auto& c : got) g.insert(g.end(), {c.real(), c.imag()});
  for (const auto& c : want) w.insert(w.end(), {c.real(), c.imag()});
  return BitIdentical(g, w);
}

// ---------- FFT ----------------------------------------------------------

std::vector<std::complex<double>> naive_dft(
    const std::vector<std::complex<double>>& in, int sign) {
  const std::size_t n = in.size();
  std::vector<std::complex<double>> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    std::complex<double> sum{0.0, 0.0};
    for (std::size_t j = 0; j < n; ++j) {
      const double ang = static_cast<double>(sign) * 2.0 * std::numbers::pi *
                         static_cast<double>(k * j) / static_cast<double>(n);
      sum += in[j] * std::complex<double>(std::cos(ang), std::sin(ang));
    }
    out[k] = sum;
  }
  return out;
}

class FftSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizes, MatchesNaiveDft) {
  const std::size_t n = GetParam();
  Rng rng(n);
  std::vector<std::complex<double>> data(n);
  for (auto& c : data) c = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  auto expect = naive_dft(data, -1);
  fft1d(data.data(), n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(data[i].real(), expect[i].real(), 1e-9) << "i=" << i;
    EXPECT_NEAR(data[i].imag(), expect[i].imag(), 1e-9) << "i=" << i;
  }
}

TEST_P(FftSizes, InverseRoundTrip) {
  const std::size_t n = GetParam();
  Rng rng(n + 1);
  std::vector<std::complex<double>> data(n);
  for (auto& c : data) c = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  const auto orig = data;
  fft1d(data.data(), n, -1);
  fft1d(data.data(), n, +1);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(data[i].real() / static_cast<double>(n), orig[i].real(),
                1e-10);
    EXPECT_NEAR(data[i].imag() / static_cast<double>(n), orig[i].imag(),
                1e-10);
  }
}

TEST_P(FftSizes, Parseval) {
  const std::size_t n = GetParam();
  Rng rng(n + 2);
  std::vector<std::complex<double>> data(n);
  for (auto& c : data) c = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  double time_energy = 0.0;
  for (const auto& c : data) time_energy += std::norm(c);
  fft1d(data.data(), n, -1);
  double freq_energy = 0.0;
  for (const auto& c : data) freq_energy += std::norm(c);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, FftSizes,
                         ::testing::Values(2, 4, 8, 16, 32, 64, 128));

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<std::complex<double>> data(6);
  EXPECT_THROW(fft1d(data.data(), 6, -1), ConfigError);
}

TEST(Fft3d, DeltaTransformsToConstant) {
  const std::size_t n = 8;
  std::vector<std::complex<double>> cube(n * n * n, {0.0, 0.0});
  cube[0] = {1.0, 0.0};
  fft3d(cube, n, -1);
  for (const auto& c : cube) {
    EXPECT_NEAR(c.real(), 1.0, 1e-10);
    EXPECT_NEAR(c.imag(), 0.0, 1e-10);
  }
}

TEST(Fft, MatchesOracleBitForBit) {
  for (std::size_t n = 1; n <= 256; n *= 2) {
    for (const int sign : {-1, +1}) {
      Rng rng(n * 3 + static_cast<std::size_t>(sign + 1));
      std::vector<std::complex<double>> data(n);
      for (auto& c : data) c = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
      auto want = data;
      fft1d(data.data(), n, sign);
      oracle::fft1d(want.data(), n, sign);
      EXPECT_TRUE(BitIdentical(data, want)) << "n=" << n << " sign=" << sign;
    }
  }
}

TEST(Fft3d, MatchesOracleBitForBit) {
  for (const std::size_t n : {8, 32}) {
    for (const int sign : {-1, +1}) {
      Rng rng(n + static_cast<std::size_t>(sign + 1));
      std::vector<std::complex<double>> cube(n * n * n);
      for (auto& c : cube) c = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
      auto want = cube;
      fft3d(cube, n, sign);
      oracle::fft3d(want, n, sign);
      EXPECT_TRUE(BitIdentical(cube, want)) << "n=" << n << " sign=" << sign;
    }
  }
}

TEST(Fft3d, RoundTrip) {
  const std::size_t n = 8;
  Rng rng(3);
  std::vector<std::complex<double>> cube(n * n * n);
  for (auto& c : cube) c = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  const auto orig = cube;
  fft3d(cube, n, -1);
  fft3d(cube, n, +1);
  const double scale = static_cast<double>(n * n * n);
  for (std::size_t i = 0; i < cube.size(); ++i) {
    EXPECT_NEAR(cube[i].real() / scale, orig[i].real(), 1e-9);
  }
}

// ---------- blocked GEMM -------------------------------------------------

class GemmShapes
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(GemmShapes, MatchesNaiveTripleLoop) {
  const auto [n, nb] = GetParam();
  Rng rng(n * 31 + nb);
  std::vector<double> a(n * n), b(n * n), c(n * n, 0.0), ref(n * n, 0.0);
  for (auto& v : a) v = rng.uniform(-1, 1);
  for (auto& v : b) v = rng.uniform(-1, 1);
  blocked_gemm(a.data(), b.data(), c.data(), n, nb);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t k = 0; k < n; ++k)
      for (std::size_t j = 0; j < n; ++j)
        ref[i * n + j] += a[i * n + k] * b[k * n + j];
  for (std::size_t i = 0; i < n * n; ++i) EXPECT_NEAR(c[i], ref[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapes,
    ::testing::Values(std::pair<std::size_t, std::size_t>{16, 4},
                      std::pair<std::size_t, std::size_t>{33, 8},
                      std::pair<std::size_t, std::size_t>{64, 64},
                      std::pair<std::size_t, std::size_t>{50, 7}));

TEST(Gemm, RejectsBadBlock) {
  std::vector<double> a(16), b(16), c(16);
  EXPECT_THROW(blocked_gemm(a.data(), b.data(), c.data(), 4, 0), ConfigError);
  EXPECT_THROW(blocked_gemm(a.data(), b.data(), c.data(), 4, 5), ConfigError);
}

// ---------- banded LU ----------------------------------------------------
//
// A dense-band LU (no pivoting) with its solve and mat-vec, kept here as a
// small numerics exercise; the SuperLU proxy itself runs the up-looking
// sparse LU of sparse_matrix.hpp.

/// Factors `a` (banded storage, (2b+1) diagonals) in place.
void banded_lu_factor(std::vector<double>& a, std::size_t n, std::size_t b) {
  require(a.size() == n * (2 * b + 1), "banded_lu: storage size mismatch");
  const std::size_t w = 2 * b + 1;
  // a(i, j) stored at a[i*w + (j - i + b)] for |i-j| <= b.
  for (std::size_t k = 0; k < n; ++k) {
    const double piv = a[k * w + b];
    require(std::abs(piv) > 1e-300, "banded_lu: zero pivot");
    const std::size_t iend = std::min(n, k + b + 1);
    for (std::size_t i = k + 1; i < iend; ++i) {
      const std::size_t off_ik = k + b - i;  // column k in row i
      const double lik = a[i * w + off_ik] / piv;
      a[i * w + off_ik] = lik;  // store L
      const std::size_t jend = std::min(n, k + b + 1);
      for (std::size_t j = k + 1; j < jend; ++j) {
        a[i * w + (j + b - i)] -= lik * a[k * w + (j + b - k)];
      }
    }
  }
}

/// Solve L U x = rhs with the factored banded matrix.
std::vector<double> banded_lu_solve(const std::vector<double>& a,
                                    std::size_t n, std::size_t b,
                                    std::vector<double> rhs) {
  require(rhs.size() == n, "banded_lu_solve: rhs size mismatch");
  const std::size_t w = 2 * b + 1;
  // forward: L y = rhs (unit diagonal)
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j0 = i > b ? i - b : 0;
    for (std::size_t j = j0; j < i; ++j)
      rhs[i] -= a[i * w + (j + b - i)] * rhs[j];
  }
  // backward: U x = y
  for (std::size_t ii = n; ii-- > 0;) {
    const std::size_t jend = std::min(n, ii + b + 1);
    for (std::size_t j = ii + 1; j < jend; ++j)
      rhs[ii] -= a[ii * w + (j + b - ii)] * rhs[j];
    rhs[ii] /= a[ii * w + b];
  }
  return rhs;
}

/// Multiply the *original* banded matrix by x (for residual checks).
std::vector<double> banded_matvec(const std::vector<double>& a, std::size_t n,
                                  std::size_t b, const std::vector<double>& x) {
  require(x.size() == n, "banded_matvec: x size mismatch");
  const std::size_t w = 2 * b + 1;
  std::vector<double> y(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j0 = i > b ? i - b : 0;
    const std::size_t j1 = std::min(n, i + b + 1);
    for (std::size_t j = j0; j < j1; ++j)
      y[i] += a[i * w + (j + b - i)] * x[j];
  }
  return y;
}

class BandShapes
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(BandShapes, SolveResidualSmall) {
  const auto [n, band] = GetParam();
  Rng rng(n + band);
  const std::size_t w = 2 * band + 1;
  std::vector<double> a(n * w);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < w; ++c) a[i * w + c] = rng.uniform(-1, 1);
    a[i * w + band] = 3.0 * static_cast<double>(w);  // diagonal dominance
  }
  const auto a_orig = a;
  std::vector<double> rhs(n);
  for (auto& v : rhs) v = rng.uniform(-1, 1);

  banded_lu_factor(a, n, band);
  const auto x = banded_lu_solve(a, n, band, rhs);
  const auto ax = banded_matvec(a_orig, n, band, x);
  double err = 0.0;
  for (std::size_t i = 0; i < n; ++i) err += (ax[i] - rhs[i]) * (ax[i] - rhs[i]);
  EXPECT_LT(std::sqrt(err), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Bands, BandShapes,
    ::testing::Values(std::pair<std::size_t, std::size_t>{32, 2},
                      std::pair<std::size_t, std::size_t>{100, 8},
                      std::pair<std::size_t, std::size_t>{257, 16},
                      std::pair<std::size_t, std::size_t>{64, 1}));

TEST(BandedLu, RejectsWrongStorage) {
  std::vector<double> a(10);
  EXPECT_THROW(banded_lu_factor(a, 4, 2), ConfigError);
}

// ---------- multigrid ----------------------------------------------------

TEST(Multigrid, ResidualDecreases) {
  const std::size_t n = 32;
  std::vector<double> u(n * n * n, 0.0);
  std::vector<double> rhs(n * n * n, 0.0);
  rhs[(n / 2) + n * ((n / 2) + n * (n / 2))] = 1.0;
  const double res4 = poisson_mg_solve(n, 4, 3, 2, u, rhs);
  std::vector<double> u2(n * n * n, 0.0);
  const double res12 = poisson_mg_solve(n, 12, 3, 2, u2, rhs);
  EXPECT_LT(res4, 1.0);
  EXPECT_LT(res12, res4);  // more cycles converge further
}

TEST(Multigrid, SolutionPeaksAtSource) {
  const std::size_t n = 16;
  std::vector<double> u(n * n * n, 0.0);
  std::vector<double> rhs(n * n * n, 0.0);
  const std::size_t center = (n / 2) + n * ((n / 2) + n * (n / 2));
  rhs[center] = 1.0;
  (void)poisson_mg_solve(n, 10, 2, 2, u, rhs);
  const auto maxpos =
      std::max_element(u.begin(), u.end()) - u.begin();
  EXPECT_EQ(static_cast<std::size_t>(maxpos), center);
  EXPECT_GT(u[center], 0.0);
}

TEST(Multigrid, RejectsBadDims) {
  std::vector<double> u, rhs;
  EXPECT_THROW(poisson_mg_solve(7, 1, 1, 1, u, rhs), ConfigError);
  EXPECT_THROW(poisson_mg_solve(4, 1, 1, 1, u, rhs), ConfigError);
}

// ---------- AMR wave -----------------------------------------------------

TEST(Wave, FrontMovesOutward) {
  WaveState s = make_wave(96, 9.6);
  const double r0 = wave_front_radius(s);
  for (int i = 0; i < 20; ++i) wave_step(s, 0.4, 0.5, 0.35);
  const double r1 = wave_front_radius(s);
  EXPECT_GT(r0, 0.0);
  EXPECT_GT(r1, r0 + 1.0);
}

TEST(Wave, ConcentrationStaysBounded) {
  WaveState s = make_wave(64, 6.0);
  for (int i = 0; i < 30; ++i) wave_step(s, 0.4, 0.5, 0.35);
  for (double c : s.c) {
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
  }
}

TEST(Wave, ReactionGrowsMass) {
  WaveState s = make_wave(64, 6.0);
  const double m0 = s.total_mass();
  for (int i = 0; i < 10; ++i) wave_step(s, 0.4, 0.5, 0.35);
  EXPECT_GT(s.total_mass(), m0);  // logistic growth behind the front
}

// ---------- N-body cell list ----------------------------------------------

TEST(CellList, MomentumConservedExactly) {
  ParticleSet s = make_particles(2000, 17);
  const auto p0 = total_momentum(s);
  for (int step = 0; step < 20; ++step) {
    cell_list_forces(s, 0.1);
    leapfrog_step(s, 1e-3);
  }
  const auto p1 = total_momentum(s);
  for (int k = 0; k < 3; ++k) {
    EXPECT_NEAR(p1[static_cast<std::size_t>(k)],
                p0[static_cast<std::size_t>(k)], 1e-9);
  }
}

TEST(CellList, ForcesAreNonTrivial) {
  ParticleSet s = make_particles(500, 3);
  cell_list_forces(s, 0.15);
  double mag = 0.0;
  for (double a : s.acc) mag += std::abs(a);
  EXPECT_GT(mag, 0.0);
}

TEST(CellList, CutoffLimitsInteractions) {
  // Two particles farther apart than the cutoff feel no force.
  ParticleSet s;
  s.pos = {0.1, 0.1, 0.1, 0.6, 0.6, 0.6};
  s.vel.assign(6, 0.0);
  s.acc.assign(6, 0.0);
  cell_list_forces(s, 0.1);
  for (double a : s.acc) EXPECT_DOUBLE_EQ(a, 0.0);
}

TEST(CellList, PeriodicImageInteracts) {
  // Particles near opposite faces are close through the periodic boundary.
  ParticleSet s;
  s.pos = {0.01, 0.5, 0.5, 0.99, 0.5, 0.5};
  s.vel.assign(6, 0.0);
  s.acc.assign(6, 0.0);
  cell_list_forces(s, 0.1);
  // force along x, equal and opposite
  EXPECT_NE(s.acc[0], 0.0);
  EXPECT_NEAR(s.acc[0], -s.acc[3], 1e-12);
}

TEST(CellList, PairForceMatchesAnalyticAtEveryGridWidth) {
  // Cutoffs above 1/3 leave a cell grid of 2 (0.4) or 1 (0.6), where the
  // -1 and +1 neighbour offsets wrap onto the same cell; the pair must
  // still interact exactly once.
  for (const double cutoff : {0.1, 0.3, 0.4, 0.6}) {
    ParticleSet s;
    s.pos = {0.47, 0.5, 0.5, 0.53, 0.5, 0.5};
    s.vel.assign(6, 0.0);
    s.acc.assign(6, 0.0);
    cell_list_forces(s, cutoff);
    const double d = s.pos[3] - s.pos[0];
    const double r2 = 1e-4 + d * d;
    const double pair = d / (r2 * std::sqrt(r2));
    EXPECT_NEAR(s.acc[0] / pair, 1.0, 1e-12) << "cutoff " << cutoff;
    EXPECT_NEAR(s.acc[3] / pair, -1.0, 1e-12) << "cutoff " << cutoff;
    for (const std::size_t k : {1, 2, 4, 5}) {
      EXPECT_EQ(s.acc[k], 0.0) << "cutoff " << cutoff << " k=" << k;
    }
  }
}

/// Runs `steps` force + leapfrog steps with the library kernel and with
/// the oracle and expects identical bits after every step.
void expect_matches_oracle(ParticleSet s, double cutoff, int steps) {
  ParticleSet want = s;
  for (int step = 0; step < steps; ++step) {
    cell_list_forces(s, cutoff);
    oracle::cell_list_forces(want, cutoff);
    ASSERT_TRUE(BitIdentical(s.acc, want.acc)) << "step " << step;
    leapfrog_step(s, 1e-3);
    leapfrog_step(want, 1e-3);
  }
  EXPECT_TRUE(BitIdentical(s.pos, want.pos));
  EXPECT_TRUE(BitIdentical(s.vel, want.vel));
}

TEST(CellList, MatchesOracleBitForBit) {
  for (const std::uint64_t seed : {7u, 8u, 12345u}) {
    for (const double cutoff : {0.1, 0.15, 0.3}) {
      SCOPED_TRACE(::testing::Message()
                   << "seed " << seed << " cutoff " << cutoff);
      expect_matches_oracle(make_particles(2000, seed), cutoff, 8);
    }
  }
}

TEST(CellList, MatchesOracleWithFarPeriodicImages) {
  // Particles whole box lengths outside the unit cell: separations reach
  // |d| >= 1.5, beyond round_near_zero()'s exact range, so the kernel must
  // take std::round for them.
  ParticleSet s = make_particles(2000, 9);
  for (std::size_t i = 0; i < s.count(); i += 3) {
    for (std::size_t k = 0; k < 3; ++k) s.pos[3 * i + k] += 3.0;
  }
  for (std::size_t i = 1; i < s.count(); i += 7) s.pos[3 * i] -= 2.0;
  expect_matches_oracle(s, 0.1, 8);
}

TEST(CellList, SeparationTiedAtOneAndAHalfRoundsAwayFromZero) {
  // d = +-1.5 exactly: std::round gives +-2, so the minimum image is -+0.5
  // along x, while the range-limited rounding would give +-0.5.
  for (const double x1 : {1.5, -1.5}) {
    ParticleSet s;
    s.pos = {0.0, 0.5, 0.5, x1, 0.5, 0.5};
    s.vel.assign(6, 0.0);
    s.acc.assign(6, 0.0);
    cell_list_forces(s, 0.6);
    const double r2 = 1e-4 + 0.25;
    const double pair = std::copysign(0.5, -x1) / (r2 * std::sqrt(r2));
    EXPECT_NEAR(s.acc[0] / pair, 1.0, 1e-12) << "x1 " << x1;
    EXPECT_NEAR(s.acc[3] / pair, -1.0, 1e-12) << "x1 " << x1;
  }
}

TEST(RoundNearZero, MatchesStdRoundOnItsRange) {
  const double limit = kRoundNearZeroLimit;
  // Ties round away from zero; zeros keep their sign.
  EXPECT_EQ(round_near_zero(0.5), 1.0);
  EXPECT_EQ(round_near_zero(-0.5), -1.0);
  EXPECT_EQ(bits(round_near_zero(0.0)), bits(0.0));
  EXPECT_EQ(bits(round_near_zero(-0.0)), bits(-0.0));
  EXPECT_EQ(bits(round_near_zero(-0.25)), bits(-0.0));
  // Both neighbours of the ties and of +-1, and the largest magnitudes
  // below the limit.
  for (const double at : {0.5, -0.5, 1.0, -1.0}) {
    for (const double v :
         {at, std::nextafter(at, 0.0), std::nextafter(at, 2.0 * at)}) {
      EXPECT_EQ(bits(round_near_zero(v)), bits(std::round(v))) << v;
    }
  }
  for (const double v :
       {std::nextafter(limit, 0.0), std::nextafter(-limit, 0.0)}) {
    EXPECT_EQ(bits(round_near_zero(v)), bits(std::round(v))) << v;
  }
  Rng rng(5);
  for (int i = 0; i < 100000; ++i) {
    const double v = rng.uniform(-limit, limit);
    ASSERT_EQ(bits(round_near_zero(v)), bits(std::round(v))) << v;
  }
}

// ---------- Lagrangian hydro --------------------------------------------

TEST(Hydro, EnergyApproximatelyConserved) {
  HydroState s = make_sedov(256, 0.3);
  const double e0 = s.total_energy();
  for (int i = 0; i < 200; ++i) (void)hydro_step(s, 0.3);
  const double e1 = s.total_energy();
  EXPECT_NEAR(e1 / e0, 1.0, 0.05);  // explicit scheme: small drift allowed
}

TEST(Hydro, ShockPropagatesOutward) {
  HydroState s = make_sedov(256, 0.3);
  // let the shock form first, then verify it keeps moving outward
  for (int i = 0; i < 50; ++i) (void)hydro_step(s, 0.3);
  const double x0 = shock_position(s);
  for (int i = 0; i < 250; ++i) (void)hydro_step(s, 0.3);
  EXPECT_GT(shock_position(s), x0 + 0.02);
}

TEST(Hydro, DensityStaysPositive) {
  HydroState s = make_sedov(128, 0.5);
  for (int i = 0; i < 300; ++i) (void)hydro_step(s, 0.3);
  for (double r : s.rho) EXPECT_GT(r, 0.0);
  for (double e : s.e) EXPECT_GT(e, 0.0);
}

TEST(Hydro, DtRespectsCfl) {
  HydroState s = make_sedov(64, 0.3);
  const double dt1 = hydro_step(s, 0.2);
  HydroState s2 = make_sedov(64, 0.3);
  const double dt2 = hydro_step(s2, 0.4);
  EXPECT_NEAR(dt2 / dt1, 2.0, 1e-9);
}

TEST(Hydro, RejectsTinyMesh) {
  EXPECT_THROW(make_sedov(4, 0.1), ConfigError);
}

}  // namespace
}  // namespace nvms
