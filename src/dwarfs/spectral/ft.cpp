#include "dwarfs/spectral/ft.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <utility>
#include <vector>

#include "appfw/result.hpp"
#include "simcore/rng.hpp"

namespace nvms {

FtParams FtParams::from(const AppConfig& cfg) {
  FtParams p;
  p.virtual_elems = static_cast<std::uint64_t>(
      static_cast<double>(p.virtual_elems) * cfg.size_scale);
  if (cfg.iterations > 0) p.iterations = cfg.iterations;
  return p;
}

namespace {

/// What a length-n transform of one sign reuses across calls: the
/// bit-reversal swaps, and every stage's twiddles.
struct FftPlan {
  std::size_t n = 0;
  std::vector<std::pair<std::size_t, std::size_t>> swaps;
  /// Stage `len` (2, 4, ..., n) owns tw[len/2 - 1 .. len - 2]: w = 1, then
  /// w *= wlen per butterfly, the running product each butterfly group
  /// would otherwise recompute.
  std::vector<std::complex<double>> tw;
};

FftPlan make_plan(std::size_t n, int sign) {
  require(n > 0 && (n & (n - 1)) == 0, "fft1d: n must be a power of two");
  FftPlan plan;
  plan.n = n;
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) plan.swaps.emplace_back(i, j);
  }
  plan.tw.reserve(n);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang =
        static_cast<double>(sign) * 2.0 * std::numbers::pi /
        static_cast<double>(len);
    const std::complex<double> wlen(std::cos(ang), std::sin(ang));
    std::complex<double> w(1.0, 0.0);
    for (std::size_t k = 0; k < len / 2; ++k) {
      plan.tw.push_back(w);
      w *= wlen;
    }
  }
  return plan;
}

void run_plan(const FftPlan& plan, std::complex<double>* data) {
  const std::size_t n = plan.n;
  for (const auto& [i, j] : plan.swaps) std::swap(data[i], data[j]);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const std::complex<double>* tw = plan.tw.data() + (half - 1);
    for (std::size_t i = 0; i < n; i += len) {
      std::complex<double>* lo = data + i;
      std::complex<double>* hi = lo + half;
      for (std::size_t k = 0; k < half; ++k) {
        const auto u = lo[k];
        const auto v = hi[k] * tw[k];
        lo[k] = u + v;
        hi[k] = u - v;
      }
    }
  }
}

}  // namespace

void fft1d(std::complex<double>* data, std::size_t n, int sign) {
  run_plan(make_plan(n, sign), data);
}

void fft3d(std::vector<std::complex<double>>& cube, std::size_t n,
           int sign) {
  require(cube.size() == n * n * n, "fft3d: cube size mismatch");
  const FftPlan plan = make_plan(n, sign);
  std::vector<std::complex<double>> line(n);
  const auto idx = [n](std::size_t x, std::size_t y, std::size_t z) {
    return x + n * (y + n * z);
  };
  // x lines (contiguous)
  for (std::size_t z = 0; z < n; ++z)
    for (std::size_t y = 0; y < n; ++y) run_plan(plan, &cube[idx(0, y, z)]);
  // y lines (stride n)
  for (std::size_t z = 0; z < n; ++z)
    for (std::size_t x = 0; x < n; ++x) {
      for (std::size_t y = 0; y < n; ++y) line[y] = cube[idx(x, y, z)];
      run_plan(plan, line.data());
      for (std::size_t y = 0; y < n; ++y) cube[idx(x, y, z)] = line[y];
    }
  // z lines (stride n*n)
  for (std::size_t y = 0; y < n; ++y)
    for (std::size_t x = 0; x < n; ++x) {
      for (std::size_t z = 0; z < n; ++z) line[z] = cube[idx(x, y, z)];
      run_plan(plan, line.data());
      for (std::size_t z = 0; z < n; ++z) cube[idx(x, y, z)] = line[z];
    }
}

double FtApp::host(const AppConfig& cfg) const {
  const auto p = FtParams::from(cfg);
  const std::size_t real_elems = p.real_dim * p.real_dim * p.real_dim;

  // Pseudo-random field, forward-transformed once (as NPB FT does in its
  // setup).
  Rng rng(cfg.seed);
  std::vector<std::complex<double>> u0(real_elems);
  for (auto& c : u0) c = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  fft3d(u0, p.real_dim, -1);

  std::complex<double> chk{0.0, 0.0};
  std::vector<std::complex<double>> work(real_elems);
  // Element i turns by a phase that depends on i % kPhases only.
  constexpr std::size_t kPhases = 1024;
  std::vector<std::complex<double>> turn(kPhases);
  for (int it = 1; it <= p.iterations; ++it) {
    // evolve: u1 = u0 * exp(i * t * k^2), then the inverse 3D FFT.
    for (std::size_t q = 0; q < kPhases; ++q) {
      const double phase =
          1e-6 * static_cast<double>(it) * static_cast<double>(q);
      turn[q] = std::complex<double>(std::cos(phase), std::sin(phase));
    }
    for (std::size_t i = 0; i < real_elems; ++i) {
      work[i] = u0[i] * turn[i % kPhases];
    }
    fft3d(work, p.real_dim, +1);

    // NPB-style checksum over a deterministic element subset.
    std::complex<double> local{0.0, 0.0};
    for (std::size_t q = 0; q < 1024; ++q) {
      local += work[(q * 17 + static_cast<std::size_t>(it)) % real_elems];
    }
    chk += local / static_cast<double>(real_elems);
  }
  return chk.real() + chk.imag();
}

AppResult FtApp::emit(AppContext& ctx) const {
  const auto p = FtParams::from(ctx.cfg());
  const std::uint64_t nv = p.virtual_elems;
  const std::uint64_t array_bytes = nv * sizeof(std::complex<double>);

  auto u0 = ctx.alloc<std::complex<double>>("u0", nv);
  auto u1 = ctx.alloc<std::complex<double>>("u1", nv);

  const int threads = ctx.cfg().threads;
  const std::uint64_t wr_bytes = static_cast<std::uint64_t>(
      static_cast<double>(array_bytes) * p.write_absorption);
  // 5 N log2 N flops per 1D FFT pass over the whole array.
  const double pass_flops =
      5.0 * static_cast<double>(nv) *
      std::log2(static_cast<double>(std::max<std::uint64_t>(nv, 2)));

  for (int it = 1; it <= p.iterations; ++it) {
    // evolve: u1 = u0 * exp(i * t * k^2) — pointwise, stream both arrays.
    ctx.run(PhaseBuilder("evolve")
                .threads(threads)
                .flops(8.0 * static_cast<double>(nv))
                .stream(seq_read(u0.id(), array_bytes))
                .stream(seq_write(u1.id(), wr_bytes))
                .build());

    // inverse 3D FFT: one contiguous pass, two transpose-like passes.
    ctx.run(PhaseBuilder("fftx")
                .threads(threads)
                .flops(pass_flops)
                .stream(seq_read(u1.id(), array_bytes + array_bytes / 2))
                .stream(seq_write(u1.id(), wr_bytes))
                .build());
    for (const char* pass : {"ffty", "fftz"}) {
      ctx.run(PhaseBuilder(pass)
                  .threads(threads)
                  .flops(pass_flops)
                  .stream(strided_read(u1.id(), array_bytes + array_bytes / 2))
                  .stream(strided_write(u1.id(), wr_bytes))
                  .build());
    }
    // transpose coordination: serial cost growing with participants.
    ctx.run(PhaseBuilder("sync")
                .threads(threads)
                .flops(p.sync_flops_per_thread * static_cast<double>(threads))
                .parallel_fraction(0.0)
                .build());

    // NPB-style checksum over a deterministic element subset.
    ctx.run(PhaseBuilder("checksum")
                .threads(threads)
                .flops(2.0 * 1024.0)
                .stream(rand_read(u1.id(), 1024 * sizeof(std::complex<double>)))
                .build());
  }

  AppResult r = finalize_result(ctx, name());
  // NPB FoM: total Mop/s of the transform work.
  const double total_flops =
      static_cast<double>(p.iterations) * (3.0 * pass_flops);
  r.fom = total_flops / r.runtime / 1e6;
  r.fom_unit = "Mop/s";
  r.higher_is_better = true;
  return r;
}

}  // namespace nvms
