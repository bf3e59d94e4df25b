// Parallel experiment executor: run a batch of independent (app, system,
// config) experiments across a worker pool with deterministic results.
//
// Contract:
//   * every task constructs its own MemorySystem, so nothing is shared
//     between concurrent experiments (MemorySystem itself is
//     single-threaded; see memsim/memory_system.hpp);
//   * outcomes are returned in task order — outcome[i] always belongs to
//     tasks[i] no matter which worker ran it or when it finished;
//   * task seeds come from the configs verbatim.  Grid builders that
//     want a distinct input problem per task derive them with
//     derive_task_seed(base, i), which is a pure function of (base seed,
//     task index) — never of shared RNG state — so jobs=1 and jobs=N
//     produce identical bytes;
//   * every task is traffic only: outcome[i] is run_app_on(tasks[i]), so
//     no task runs the app's numerics (App::host) and every checksum is 0;
//   * a task that throws CapacityError is recorded as skipped (the
//     oversized-configuration semantics of run_sweep); any other
//     exception aborts the batch after all tasks finished, rethrowing
//     the lowest-index failure.
//
// The executor also records lightweight observability per task — queue
// wait, wall time, the worker that ran it — plus batch wall time and
// worker utilization, exposed as a human summary and a CSV export.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "appfw/app.hpp"
#include "memsim/memory_system.hpp"
#include "obs/export.hpp"
#include "obs/telemetry.hpp"

namespace nvms {

/// One experiment of a batch, executed on a private MemorySystem.
struct ExperimentConfig {
  std::string app;
  SystemConfig sys;
  AppConfig cfg;
  /// Free-form tag carried into the per-task stats ("uncached-nvm/36/1").
  std::string label;
  /// Collect spans + metric streams for this task.  Each task gets its own
  /// Telemetry (returned in the outcome), so worker interleaving never
  /// mixes streams; merged exports follow task order and stay
  /// byte-identical for any jobs count.
  bool telemetry = false;
  /// Borrowed stream memo attached to the task's MemorySystem (null: walk
  /// every DRAM-cache access).  A ResolveCache is mutex-striped, so one
  /// instance may back every task of a batch; results and telemetry stay
  /// byte-identical regardless (memsim/resolve_cache.hpp).
  ResolveCache* resolve_cache = nullptr;
};

/// Per-task observability record.
struct TaskStats {
  std::size_t index = 0;
  std::string label;
  int worker = -1;           ///< pool worker that ran the task (0 if serial)
  double queue_wait_s = 0.0; ///< submission -> execution start
  double wall_s = 0.0;       ///< execution start -> finish
  bool skipped = false;      ///< CapacityError: configuration did not fit
};

/// Batch-level observability: per-task records plus derived aggregates.
struct ExecutorStats {
  int jobs = 1;              ///< workers actually used
  double batch_wall_s = 0.0; ///< submission of the first task -> last finish
  std::vector<TaskStats> tasks;

  std::size_t skipped() const;
  double total_task_s() const;
  double avg_queue_wait_s() const;
  /// Busy worker-seconds over available worker-seconds, in [0, 1].
  double worker_utilization() const;
  /// Human-readable one-block summary for CLI/bench output.
  std::string summary() const;
  /// Per-task CSV: index,label,worker,queue_wait_s,wall_s,skipped.
  std::string csv() const;
};

/// Result slot for one experiment; `result` is default-initialized when
/// `skipped` is set.
struct ExperimentOutcome {
  AppResult result;
  bool skipped = false;
  std::string skip_reason;
  /// Per-task telemetry when the config asked for it (null otherwise; a
  /// skipped task keeps whatever was collected before the CapacityError).
  std::shared_ptr<Telemetry> telemetry;
};

/// Grid-order telemetry parts of a batch (tasks that collected telemetry,
/// labeled with their config labels) — ready for the obs exporters.
std::vector<TelemetryPart> telemetry_parts(
    const std::vector<ExperimentConfig>& tasks,
    const std::vector<ExperimentOutcome>& outcomes);

/// Mix a base seed with a task index (splitmix64): a distinct input
/// problem per task of a grid, stable across worker counts and platforms.
/// run_sweep does not use it — every sweep cell runs spec.seed's problem.
std::uint64_t derive_task_seed(std::uint64_t base, std::size_t index);

/// Worker-lease arithmetic: the intra-run lane width an "auto"
/// (sys.intra_jobs == 0) task should use when `active_jobs` tasks run
/// concurrently — the process-wide IntraBudget total divided evenly, at
/// least 1.  run_experiments applies this itself (a static split keeps
/// the assignment deterministic; letting each MemorySystem race the
/// budget would hand lanes to whichever task constructed first), and the
/// serve daemon uses it to hand idle worker lanes to big single
/// requests.  Outputs never depend on the result — width changes
/// scheduling only.
int resolve_auto_intra_jobs(int active_jobs);

/// Execute every task, `jobs` wide (jobs <= 0: hardware concurrency;
/// clamped to the batch size).  Outcomes are in task order; `stats`, when
/// non-null, receives the observability records.
std::vector<ExperimentOutcome> run_experiments(
    const std::vector<ExperimentConfig>& tasks, int jobs = 0,
    ExecutorStats* stats = nullptr);

}  // namespace nvms
