// Table I / Sec. II-A: validation of the calibrated device models against
// the published platform characteristics the paper relies on:
//   * NVM read latency 174 ns (sequential) / 304 ns (random)
//   * per-socket NVM read bandwidth ~39 GB/s, write ~13 GB/s (3x asymmetry)
//   * write bandwidth peaking at ~4 writer threads and declining after
//   * DDR4 socket read bandwidth ~105 GB/s
// Probes run through the public MemorySystem interface (phase submission),
// not by reading parameters back, so they exercise the same code path as
// the applications.
#include <cstdio>

#include "mem/buffer.hpp"
#include "memsim/memory_system.hpp"
#include "simcore/table.hpp"
#include "simcore/units.hpp"

using namespace nvms;

namespace {

double measure_bw(Mode mode, Pattern pat, Dir dir, int threads, double mlp,
                  std::uint64_t granule = 64) {
  MemorySystem sys(SystemConfig::testbed(mode));
  Buffer<double> buf(sys, "probe", 32 * MiB / sizeof(double));
  StreamDesc s{buf.id(), 1 * GiB, pat, dir, granule};
  Phase p = PhaseBuilder("probe").threads(threads).mlp(mlp).stream(s).build();
  const auto res = sys.submit(p);
  const auto& dev = (mode == Mode::kDramOnly) ? res.dram : res.nvm;
  return dir == Dir::kRead ? dev.read_bw : dev.write_bw;
}

double measure_latency(Mode mode, Pattern pat) {
  // Pointer-chase: one thread, one outstanding miss; latency = 64B / bw.
  const double bw = measure_bw(mode, pat, Dir::kRead, 1, 1.0);
  return 64.0 / bw;
}

}  // namespace

int main() {
  std::printf("Table I / Sec. II-A: simulated platform characteristics\n\n");

  TextTable t({"Probe", "Measured", "Published"});
  t.add_row({"NVM random read latency",
             format_time(measure_latency(Mode::kUncachedNvm,
                                         Pattern::kRandom)),
             "304 ns"});
  t.add_row({"DRAM random read latency",
             format_time(measure_latency(Mode::kDramOnly, Pattern::kRandom)),
             "~101 ns"});

  const double nvm_rd =
      measure_bw(Mode::kUncachedNvm, Pattern::kSequential, Dir::kRead, 16, 8);
  const double nvm_wr = measure_bw(Mode::kUncachedNvm, Pattern::kSequential,
                                   Dir::kWrite, 4, 8);
  const double dram_rd =
      measure_bw(Mode::kDramOnly, Pattern::kSequential, Dir::kRead, 24, 8);
  const double dram_wr =
      measure_bw(Mode::kDramOnly, Pattern::kSequential, Dir::kWrite, 24, 8);
  t.add_row({"NVM seq read BW (16 thr)", format_bandwidth(nvm_rd),
             "39 GB/s"});
  t.add_row({"NVM seq write BW (4 thr)", format_bandwidth(nvm_wr),
             "13 GB/s"});
  t.add_row({"NVM read/write asymmetry",
             TextTable::num(nvm_rd / nvm_wr, 1) + "x", "~3x"});
  t.add_row({"DRAM seq read BW (24 thr)", format_bandwidth(dram_rd),
             "~105 GB/s"});
  t.add_row({"DRAM seq write BW (24 thr)", format_bandwidth(dram_wr),
             "~57 GB/s"});

  std::printf("%s\n", t.render().c_str());

  std::printf("NVM write bandwidth vs writer threads (WPQ contention):\n");
  TextTable w({"threads", "write BW"});
  for (int thr : {1, 2, 4, 8, 12, 16, 24, 36, 48}) {
    w.add_row({std::to_string(thr),
               format_bandwidth(measure_bw(Mode::kUncachedNvm,
                                           Pattern::kSequential, Dir::kWrite,
                                           thr, 8))});
  }
  std::printf("%s\n", w.render().c_str());
  std::printf("Expected: peak at ~4 threads, monotone decline beyond.\n");
  return 0;
}
