#include "dwarfs/synth/stream.hpp"

#include <cmath>
#include <vector>

#include "appfw/result.hpp"

namespace nvms {

StreamParams StreamParams::from(const AppConfig& cfg) {
  StreamParams p;
  p.virtual_elems = static_cast<std::uint64_t>(
      static_cast<double>(p.virtual_elems) * cfg.size_scale);
  if (cfg.iterations > 0) p.repetitions = cfg.iterations;
  return p;
}

double StreamApp::host(const AppConfig& cfg) const {
  const auto p = StreamParams::from(cfg);
  std::vector<double> a(p.real_elems, 1.0);
  std::vector<double> b(p.real_elems, 2.0);
  std::vector<double> c(p.real_elems, 0.0);
  for (int rep = 0; rep < p.repetitions; ++rep) {
    // copy: c = a
    for (std::size_t i = 0; i < p.real_elems; ++i) c[i] = a[i];
    // scale: b = s * c
    for (std::size_t i = 0; i < p.real_elems; ++i) b[i] = p.scalar * c[i];
    // add: c = a + b
    for (std::size_t i = 0; i < p.real_elems; ++i) c[i] = a[i] + b[i];
    // triad: a = b + s * c
    for (std::size_t i = 0; i < p.real_elems; ++i)
      a[i] = b[i] + p.scalar * c[i];
  }
  // After k reps starting from a=1, b=2: closed form is finite; just fold
  // the arrays' current sums (verified in tests against a direct rerun).
  double sum = 0.0;
  for (std::size_t i = 0; i < p.real_elems; ++i) sum += a[i] + b[i] + c[i];
  return sum / static_cast<double>(p.real_elems);
}

AppResult StreamApp::emit(AppContext& ctx) const {
  const auto p = StreamParams::from(ctx.cfg());
  const std::uint64_t bytes = p.virtual_elems * sizeof(double);

  auto a = ctx.alloc<double>("stream_a", p.virtual_elems);
  auto b = ctx.alloc<double>("stream_b", p.virtual_elems);
  auto c = ctx.alloc<double>("stream_c", p.virtual_elems);

  const int threads = ctx.cfg().threads;
  double triad_time = 0.0;
  for (int rep = 0; rep < p.repetitions; ++rep) {
    ctx.run(PhaseBuilder("copy")
                .threads(threads)
                .stream(seq_read(a.id(), bytes))
                .stream(seq_write(c.id(), bytes))
                .build());
    ctx.run(PhaseBuilder("scale")
                .threads(threads)
                .flops(static_cast<double>(p.virtual_elems))
                .stream(seq_read(c.id(), bytes))
                .stream(seq_write(b.id(), bytes))
                .build());
    ctx.run(PhaseBuilder("add")
                .threads(threads)
                .flops(static_cast<double>(p.virtual_elems))
                .stream(seq_read(a.id(), bytes))
                .stream(seq_read(b.id(), bytes))
                .stream(seq_write(c.id(), bytes))
                .build());
    const double t0 = ctx.sys().now();
    ctx.run(PhaseBuilder("triad")
                .threads(threads)
                .flops(2.0 * static_cast<double>(p.virtual_elems))
                .stream(seq_read(b.id(), bytes))
                .stream(seq_read(c.id(), bytes))
                .stream(seq_write(a.id(), bytes))
                .build());
    triad_time += ctx.sys().now() - t0;
  }

  AppResult r = finalize_result(ctx, name());
  // FoM: sustained triad bandwidth.
  r.fom = static_cast<double>(p.repetitions) * 3.0 *
          static_cast<double>(bytes) / triad_time / GB;
  r.fom_unit = "GB/s (triad)";
  r.higher_is_better = true;
  return r;
}

}  // namespace nvms
