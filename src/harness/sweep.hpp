// Structured experiment sweeps: the cartesian product of modes x threads
// x problem scales for one application, with CSV export — the building
// block behind the CLI `sweep` command and custom studies.
//
// A sweep runs one input problem — the one spec.seed names — in every
// cell, as the paper's Fig. 2 / Table III run each app's input across
// modes and concurrencies.  Its rows report runtime, FoM, bandwidth and
// IPC, none of which reads the app's numerics, so every cell is traffic
// only (run_app_on) and no cell runs the host step: rows carry checksum 0.
//
// Sweeps run on the parallel executor (harness/executor.hpp).  Results
// are deterministic in the worker count: rows keep the mode-major grid
// order and no row depends on another, so `jobs=1` and `jobs=N` emit
// byte-identical CSVs.
#pragma once

#include <string>
#include <vector>

#include "appfw/app.hpp"
#include "harness/executor.hpp"
#include "memsim/memory_system.hpp"
#include "obs/analyze/profile.hpp"

namespace nvms {

struct SweepSpec {
  std::string app;
  std::vector<Mode> modes = {Mode::kDramOnly, Mode::kCachedNvm,
                             Mode::kUncachedNvm};
  std::vector<int> threads = {12, 24, 36, 48};
  std::vector<double> scales = {1.0};
  /// Seed of the input problem every cell runs (AppConfig::seed).
  std::uint64_t seed = 7;
  /// Worker count for the grid; 0 = hardware concurrency.  Any value
  /// yields the same rows and CSV bytes.
  int jobs = 0;
  /// Intra-run worker lanes per grid cell (SystemConfig::intra_jobs):
  /// 1 = serial epoch kernel (the library default), 0 = auto — the
  /// executor splits the process-wide IntraBudget evenly over the active
  /// cell workers, so a lone big cell gets the whole machine and a full
  /// fan-out runs 1 lane per cell — N > 1 = exactly N lanes.  Any value
  /// yields the same rows and export bytes; only the wall clock moves.
  int intra_jobs = 1;
  /// Collect per-task telemetry (spans + epoch metric streams).  Each
  /// grid cell records into its own Telemetry; the merged exports follow
  /// grid order, so they too are byte-identical for any jobs count.
  bool telemetry = false;
  /// DRAM-cache stream memoization for the grid (resolve_cache.hpp):
  /// kShared gives every cell of a multi-cell grid one striped cache (one
  /// shard per worker).  A single-cell grid gets none — it could never
  /// hit its own inserts.  Rows and exports are byte-identical to kOff;
  /// only the wall clock changes.
  ResolveCacheMode resolve_cache = ResolveCacheMode::kOff;
  /// With kShared, a caller-owned cache to use instead of a grid-local
  /// one, attached at any grid size — how nvmsimd keeps one
  /// process-lifetime cache warm across requests.  Ignored for kOff.  The
  /// reported cache statistics are then the external cache's cumulative
  /// totals, but rows and exports remain byte-identical (memoization is
  /// semantically transparent).  Must outlive run_sweep.
  ResolveCache* external_cache = nullptr;

  void validate() const;
};

struct SweepRow {
  Mode mode = Mode::kDramOnly;
  int threads = 0;
  double scale = 1.0;
  /// Bit-identical to run_app_on at this row's mode, threads and scale
  /// with seed = spec.seed (traffic only: checksum 0).
  AppResult result;
};

/// A configuration dropped because it exceeded a device capacity.
struct SweepSkip {
  Mode mode = Mode::kDramOnly;
  int threads = 0;
  double scale = 1.0;
  std::string reason;
};

struct SweepResult {
  /// Completed configurations, ordered mode-major, then threads, then
  /// scale (grid order, independent of execution interleaving).
  std::vector<SweepRow> rows;
  /// Capacity-skipped configurations in grid order — formerly dropped
  /// silently; callers decide whether to warn.
  std::vector<SweepSkip> skipped;
  /// Executor observability for the grid (wall time, queue waits,
  /// utilization).
  ExecutorStats stats;
  /// Grid-order telemetry (one part per cell, labeled "mode/threads/scale")
  /// when the spec asked for it; empty otherwise.  The shared_ptrs in
  /// `telemetry` keep the parts' pointees alive.
  std::vector<std::shared_ptr<Telemetry>> telemetry;
  std::vector<std::string> telemetry_labels;
  /// Stream-memo statistics of the attached cache (all zero when none
  /// was attached; only Memory-mode cells consult it).
  ResolveCacheStats cache_stats;

  /// Labeled views over `telemetry` for the obs exporters.
  std::vector<TelemetryPart> parts() const;
};

/// Run the full cartesian product, `spec.jobs` wide.  Configurations that
/// exceed a device capacity are recorded in `skipped` rather than
/// aborting the sweep.
SweepResult run_sweep(const SweepSpec& spec);

/// CSV with one row per configuration: mode, threads, scale, runtime,
/// FoM, bandwidths, IPC.
std::string sweep_csv(const std::vector<SweepRow>& rows);
inline std::string sweep_csv(const SweepResult& result) {
  return sweep_csv(result.rows);
}

/// Per-task executor timing CSV for the sweep grid (observability; the
/// values are wall-clock measurements and thus not deterministic).
std::string sweep_stats_csv(const SweepResult& result);

/// Merged Chrome trace_event JSON over every telemetry-collecting cell of
/// the sweep, in grid order (byte-identical for any jobs count).
std::string sweep_chrome_trace(const SweepResult& result);

/// Merged per-epoch metrics CSV over the sweep's telemetry parts.
std::string sweep_metrics_csv(const SweepResult& result);

/// Merged JSONL telemetry (one span/point object per line) over the
/// sweep's telemetry parts, in grid order.
std::string sweep_telemetry_jsonl(const SweepResult& result);

/// Merged Prometheus text exposition over the sweep's telemetry parts,
/// in grid order (byte-identical for any jobs count).
std::string sweep_prometheus(const SweepResult& result);

/// Per-cell bottleneck attribution over the sweep's telemetry parts, in
/// grid order: each cell is scored against its own mode's testbed device
/// peaks (the cell label "mode/threads/scale" carries the mode).
/// Requires the sweep to have run with `telemetry = true`.
std::vector<RunProfile> sweep_profiles(const SweepResult& result);

/// The grid-merged RunProfile (phases aligned by name across cells,
/// verdicts re-scored on the merged signals), labeled `run`.  Grid-order
/// deterministic: byte-identical rendering for any jobs count.
RunProfile sweep_profile(const SweepResult& result, const std::string& run);

}  // namespace nvms
