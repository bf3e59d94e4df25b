// AppContext: everything a dwarf's traffic emitter needs at run time — the
// memory system, the run configuration, a profiling recorder, and
// plan-aware buffer allocation.  It holds no RNG: the run seed is an input
// of the host step (App::host) alone, so no phase depends on it.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "mem/buffer.hpp"
#include "mem/placement_plan.hpp"
#include "memsim/memory_system.hpp"
#include "prof/run_recorder.hpp"

namespace nvms {

struct AppConfig {
  /// Logical concurrency of the run (the paper sweeps 6..48 HT threads).
  int threads = 36;
  /// Multiplies the input-problem footprint (1.0 = the paper's baseline
  /// problem at 50-85% of scaled DRAM capacity).
  double size_scale = 1.0;
  /// Iteration override; 0 keeps the app default.
  int iterations = 0;
  /// Seed of the input problem's numerics (App::host); no phase reads it.
  std::uint64_t seed = 7;
  /// Optional write-aware placement plan (uncached-NVM optimization).
  const PlacementPlan* placement = nullptr;
  /// Optional per-timestep hook (checkpoint/visualization experiments):
  /// invoked by apps that support it with the primary state buffer.
  using StepHook = std::function<void(MemorySystem&, int step,
                                      BufferId state, std::uint64_t bytes)>;
  StepHook step_hook;

  void validate() const {
    require(threads >= 1, "config: threads must be >= 1");
    require(size_scale > 0.0, "config: size_scale must be positive");
    require(iterations >= 0, "config: iterations must be >= 0");
  }
};

class AppContext {
 public:
  AppContext(MemorySystem& sys, const AppConfig& cfg)
      : sys_(sys), cfg_(cfg), rec_(sys) {
    cfg.validate();
  }

  MemorySystem& sys() { return sys_; }
  const AppConfig& cfg() const { return cfg_; }
  RunRecorder& recorder() { return rec_; }

  /// Register a named buffer of `count` modelled elements of T, honouring
  /// the placement plan.
  template <typename T>
  Buffer<T> alloc(std::string name, std::size_t count) {
    Placement p = Placement::kAuto;
    if (cfg_.placement != nullptr) p = cfg_.placement->lookup(name);
    return Buffer<T>(sys_, std::move(name), count, p);
  }

  /// Submit a phase through the recorder (per-phase samples collected).
  PhaseResolution run(const Phase& phase) { return rec_.submit(phase); }

 private:
  MemorySystem& sys_;
  const AppConfig& cfg_;
  RunRecorder rec_;
};

}  // namespace nvms
