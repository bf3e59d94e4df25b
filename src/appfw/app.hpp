// Application framework: the interface every dwarf mini-app implements.
//
// An App comes in two independent parts:
//   * a pure host step, host(cfg): the numerical kernel on the
//     representative host problem and its checksum.  It reads only
//     cfg.seed, cfg.iterations and cfg.size_scale, draws from its own
//     Rng(cfg.seed), and never touches a MemorySystem;
//   * a traffic emitter, emit(ctx): allocates the modelled buffers, submits
//     the phases of the kernel's loop structure to ctx.sys and fires
//     cfg.step_hook where the app supports one.  It runs no numerics, and
//     no phase byte depends on a numeric result.
// run(ctx) is both: the result carries the virtual runtime, the
// app-defined figure of merit, counters, traces, and the host checksum.
// Because the two parts share nothing, a caller that prints no checksum
// runs emit alone: every library run (harness/registry.hpp) does, and
// only `nvmsim run` adds host(cfg).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "appfw/context.hpp"
#include "memsim/counters.hpp"
#include "prof/sample.hpp"
#include "trace/run_traces.hpp"

namespace nvms {

struct AppResult {
  std::string app;
  std::string mode;
  double runtime = 0.0;  ///< virtual seconds of the main computation
  double fom = 0.0;      ///< application-defined figure of merit
  std::string fom_unit;
  bool higher_is_better = false;
  std::uint64_t footprint = 0;  ///< peak registered bytes
  HwCounters counters;
  RunTraces traces;
  std::vector<CounterSample> samples;
  /// Order-stable numeric digest of the computed output: App::host(cfg),
  /// identical across memory modes and thread counts by construction.  0
  /// from App::emit and every library run, which run no numerics.
  double checksum = 0.0;
};

class App {
 public:
  virtual ~App() = default;

  /// Registry key, e.g. "scalapack".
  virtual std::string name() const = 0;
  /// The paper's Dwarf classification, e.g. "Dense Linear Algebra".
  virtual std::string dwarf() const = 0;
  /// Short description of the modelled input problem (Table II).
  virtual std::string input_problem() const = 0;

  /// The host step: run the numerics of the input problem `cfg` names and
  /// return its checksum.  A pure function of (seed, iterations,
  /// size_scale); `cfg` must be valid (AppConfig::validate).
  virtual double host(const AppConfig& cfg) const = 0;

  /// The traffic emitter: allocate the buffers, submit the phases against
  /// ctx.sys and fill in everything of the result but the checksum.
  virtual AppResult emit(AppContext& ctx) const = 0;

  /// Emit the traffic, then set the checksum to host(ctx.cfg()).
  AppResult run(AppContext& ctx) const {
    AppResult r = emit(ctx);
    r.checksum = host(ctx.cfg());
    return r;
  }
};

}  // namespace nvms
