// Delta-replay placement evaluation: candidate placements in microseconds.
//
// The trace optimizer's inner loop asks one question thousands of times:
// "what would the recorded run take if buffer B moved to DRAM?"  A full
// replay answers it in O(phases) fixed-point resolutions on a freshly
// constructed MemorySystem.  This engine answers the same question
// bit-identically at a fraction of the cost by exploiting two structural
// facts of the simulator:
//
//  1. *Phase independence.*  In dram-only and uncached-NVM/NUMA modes the
//     system carries no state between phases except the clock: the replayed
//     runtime is the left-to-right sum of per-phase resolved times, and a
//     plan that flips one buffer only changes the resolution of the phases
//     whose streams touch that buffer (PhaseRecording::phase_buffers).  A
//     candidate's runtime is therefore the ordered re-sum of the committed
//     per-phase times with the affected phases re-resolved — the same
//     floating-point additions, in the same order, as a full replay.
//
//  2. *Resolution purity.*  resolve_lanes() is a pure function of its
//     normalized inputs, so re-resolved phase times are memoized in a
//     ShardedMemo keyed by make_resolve_key().  The shape key subsumes the
//     "placement signature of the touched buffers": flipping a buffer
//     changes exactly the lane demands the key hashes, and it additionally
//     collapses the recording's repeated solver iterations into one entry
//     — an evaluation mostly costs key lookups, not fixed points.
//
// Memory mode (kCachedNvm) breaks fact 1: the DramCache is stateful across
// phases.  There the evaluator falls back to a full replay on a fresh
// system, routed through a shared ResolveCache so the DRAM-cache stream
// memo keeps repeated access-history prefixes from re-walking the
// sampler.  (Placement directives do not change Memory-mode routing at
// all — every access goes through the cache — so candidate evaluations
// there converge to full stream-memo hits.)
//
// Thread safety: evaluate_flip()/evaluate() are const and safe to call
// concurrently (the memos are mutex-striped, the statistics atomic);
// commit_flip() must not race with evaluations.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "mem/placement_plan.hpp"
#include "memsim/memory_system.hpp"
#include "memsim/resolve_cache.hpp"
#include "obs/metrics.hpp"
#include "replay/recording.hpp"

namespace nvms {

/// Evaluation accounting: candidate evaluations, Memory-mode fallback
/// replays, and the memo tables' hit/miss statistics.  `phase_cache`
/// aggregates both phase-memo levels (signature hits + shape hits as
/// hits, actual fixed-point computations as misses; zero in Memory mode,
/// which replays in full), `stream_memo` the Memory-mode fallback's
/// DRAM-cache stream memo.  `evals` and
/// `full_replays` are deterministic for any worker count; the memo
/// hit/miss split can shift by a few counts under parallel evaluation
/// (racing misses on a shared key are idempotent but both counted).
struct ReplayEvalStats {
  std::uint64_t evals = 0;
  std::uint64_t full_replays = 0;
  ResolveCacheStats phase_cache;
  ResolveCacheStats stream_memo;
};

class ReplayEvaluator {
 public:
  /// Builds the phase-set index and resolves the baseline (the recorded
  /// placements with no overrides).  `make_system` must produce a fresh,
  /// identically-configured MemorySystem on every call; it is invoked
  /// once here for the configuration and effective device parameters
  /// (and per fallback replay in Memory mode).  Buffer names must be
  /// unique — placement plans address buffers by name.  Throws
  /// CapacityError when the recorded placements do not fit the system.
  ReplayEvaluator(const PhaseRecording& recording,
                  std::function<MemorySystem()> make_system);

  /// False in Memory mode: evaluations are full (memoized) replays.
  bool incremental() const { return incremental_; }
  const SystemConfig& config() const { return config_; }

  /// Replayed runtime of the recorded placements (no overrides).
  double baseline() const { return baseline_; }
  /// Replayed runtime under the committed plan.
  double current_runtime() const { return current_; }
  /// The committed overrides (what commit_flip accumulated).
  const PlacementPlan& plan() const { return plan_; }

  /// Runtime if `buffer` (recording index) were placed `p` on top of the
  /// committed plan (kAuto = revert to the recorded placement).
  /// Bit-identical to a full replay of that plan.  Thread-safe.  Throws
  /// CapacityError when the flipped plan does not fit.
  double evaluate_flip(std::size_t buffer, Placement p) const;

  /// Runtime under an arbitrary plan over the *recorded* placements
  /// (entries mapping to kAuto keep the recorded placement, matching
  /// PhaseRecording::replay).  Thread-safe.
  double evaluate(const PlacementPlan& plan) const;

  /// Make a flip permanent: updates the committed plan and the per-phase
  /// time vector (all memo hits when the flip was just evaluated).
  void commit_flip(std::size_t buffer, Placement p);

  ReplayEvalStats stats() const;
  /// Publish the statistics as gauges: placement.evals,
  /// placement.full_replays, placement.phase_cache.{hits,misses,hit_rate}.
  void publish(MetricsRegistry& m) const;

 private:
  /// Resolved duration of phase `pi` with per-buffer placements taken
  /// from `placements`, memoized by normalized resolution key.  `scratch`
  /// is the caller's lane view buffer (resized here), so one evaluation
  /// reuses a single allocation across its phases.
  double phase_time(std::size_t pi, const std::vector<Placement>& placements,
                    std::vector<LaneDemand>& scratch) const;
  /// Ordered left-to-right sum matching replay clock accumulation, with
  /// `new_times[k]` substituted at phase `affected[k]`.
  double sum_with(const std::vector<std::size_t>& affected,
                  const std::vector<double>& new_times) const;
  /// Replicates MemorySystem's per-socket capacity accounting for the
  /// fully-registered buffer table; throws CapacityError like a replay
  /// would at registration time.
  void check_fits(const std::vector<Placement>& placements) const;
  double full_replay(const PlacementPlan& plan) const;
  /// Recorded placements overridden by `plan` (kAuto entries keep the
  /// recorded placement).
  std::vector<Placement> overridden(const PlacementPlan& plan) const;

  const PhaseRecording* rec_;
  std::function<MemorySystem()> factory_;
  SystemConfig config_;
  /// Post-derate per-lane device parameters copied from a prototype
  /// system (lane = socket*2 + (dram ? 0 : 1)).
  DeviceParams lane_dev_[4];
  Mode mode_ = Mode::kUncachedNvm;
  bool incremental_ = true;
  std::size_t nlanes_ = 2;
  int numa_ = 0;  ///< buffer home socket per policy; -1 = interleave

  std::vector<std::vector<BufferId>> phase_buffers_;
  std::vector<std::vector<std::size_t>> phases_of_buffer_;

  PlacementPlan plan_;
  std::vector<Placement> placements_;  ///< committed effective placements
  std::vector<double> times_;          ///< per-phase times, committed plan
  double baseline_ = 0.0;
  double current_ = 0.0;

  /// Phases with identical streams and timing fields (names aside) are
  /// interchangeable to the resolver: solver iterations collapse into one
  /// equivalence class, computed once at construction.
  std::vector<std::uint32_t> phase_class_;
  std::size_t n_classes_ = 0;

  /// First-level memo: phase time by (equivalence class, placement
  /// signature of the touched buffers — bit k set when
  /// phase_buffers_[pi][k] routes to DRAM).  Within one evaluator that
  /// pair fully determines the lane demands, so a short per-class scan
  /// answers repeat evaluations without rebuilding the (much larger)
  /// normalized resolve key.
  struct SigEntry {
    std::uint64_t sig = 0;
    double time = 0.0;
  };
  mutable std::vector<std::vector<SigEntry>> sig_memo_;  ///< per class
  mutable std::array<std::mutex, 64> sig_mu_;  ///< striped by class index
  /// Second level, shared across phases: shape-keyed via
  /// make_resolve_key(), collapsing repeated solver iterations.
  mutable ShardedMemo<double> memo_;
  mutable ResolveCache fallback_cache_;    ///< Memory-mode stream memo
  mutable std::atomic<std::uint64_t> evals_{0};
  mutable std::atomic<std::uint64_t> full_replays_{0};
  mutable std::atomic<std::uint64_t> sig_hits_{0};
};

}  // namespace nvms
