#include "harness/executor.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>

#include "harness/registry.hpp"
#include "simcore/error.hpp"
#include "simcore/rng.hpp"
#include "simcore/thread_pool.hpp"

namespace nvms {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

std::size_t ExecutorStats::skipped() const {
  std::size_t n = 0;
  for (const auto& t : tasks) n += t.skipped ? 1 : 0;
  return n;
}

double ExecutorStats::total_task_s() const {
  double s = 0.0;
  for (const auto& t : tasks) s += t.wall_s;
  return s;
}

double ExecutorStats::avg_queue_wait_s() const {
  if (tasks.empty()) return 0.0;
  double s = 0.0;
  for (const auto& t : tasks) s += t.queue_wait_s;
  return s / static_cast<double>(tasks.size());
}

double ExecutorStats::worker_utilization() const {
  const double available = static_cast<double>(jobs) * batch_wall_s;
  if (available <= 0.0) return 0.0;
  return std::min(1.0, total_task_s() / available);
}

std::string ExecutorStats::summary() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "executor: %zu task(s), %zu skipped, jobs=%d, wall %.3f s, "
                "task time %.3f s, avg queue wait %.1f ms, utilization %.0f%%",
                tasks.size(), skipped(), jobs, batch_wall_s, total_task_s(),
                1e3 * avg_queue_wait_s(), 100.0 * worker_utilization());
  return buf;
}

std::string ExecutorStats::csv() const {
  std::string out = "task,label,worker,queue_wait_s,wall_s,skipped\n";
  out.reserve(out.size() + tasks.size() * 64);
  char line[192];
  for (const auto& t : tasks) {
    std::snprintf(line, sizeof line, "%zu,%s,%d,%.6f,%.6f,%d\n", t.index,
                  t.label.c_str(), t.worker, t.queue_wait_s, t.wall_s,
                  t.skipped ? 1 : 0);
    out += line;
  }
  return out;
}

std::uint64_t derive_task_seed(std::uint64_t base, std::size_t index) {
  // Two splitmix64 steps over (base, index): tasks of one batch land far
  // apart in seed space, and the result depends only on (base, index).
  std::uint64_t state = base ^ (0x9E3779B97F4A7C15ull * (index + 1));
  (void)splitmix64(state);
  return splitmix64(state);
}

int resolve_auto_intra_jobs(int active_jobs) {
  if (active_jobs < 1) active_jobs = 1;
  return std::max(1, IntraBudget::global().total() / active_jobs);
}

std::vector<ExperimentOutcome> run_experiments(
    const std::vector<ExperimentConfig>& tasks, int jobs,
    ExecutorStats* stats) {
  if (jobs <= 0) jobs = ThreadPool::default_jobs();
  jobs = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(jobs), std::max<std::size_t>(tasks.size(), 1)));
  // Cell-level and intra-run parallelism share one budget: tasks left on
  // "auto" split the process-wide lane total evenly over the cell workers
  // (1 lane each at full fan-out, the whole machine for a lone task).
  // Resolved here, not per-MemorySystem, so the width each task sees is a
  // pure function of the batch shape rather than construction order.
  const int auto_intra = resolve_auto_intra_jobs(jobs);

  // Touch the registry serially: lookups are const-after-init, and an
  // unknown app fails fast here rather than from a worker thread.
  for (const auto& t : tasks) (void)lookup_app(t.app);

  std::vector<ExperimentOutcome> outcomes(tasks.size());
  ExecutorStats local;
  local.jobs = jobs;
  local.tasks.resize(tasks.size());
  std::vector<std::exception_ptr> errors(tasks.size());
  std::vector<Clock::time_point> submitted(tasks.size());

  const Clock::time_point batch_start = Clock::now();
  auto run_one = [&](std::size_t i) {
    const Clock::time_point start = Clock::now();
    TaskStats& ts = local.tasks[i];
    ts.index = i;
    ts.label = tasks[i].label;
    ts.worker = std::max(ThreadPool::current_worker(), 0);
    ts.queue_wait_s = seconds_between(submitted[i], start);
    try {
      if (tasks[i].telemetry) {
        outcomes[i].telemetry = std::make_shared<Telemetry>();
      }
      SystemConfig sys = tasks[i].sys;
      if (sys.intra_jobs == 0) sys.intra_jobs = auto_intra;
      outcomes[i].result =
          run_app_on(tasks[i].app, sys, tasks[i].cfg,
                     outcomes[i].telemetry.get(), tasks[i].resolve_cache);
    } catch (const CapacityError& e) {
      outcomes[i].skipped = true;
      outcomes[i].skip_reason = e.what();
      ts.skipped = true;
    } catch (...) {
      errors[i] = std::current_exception();
    }
    ts.wall_s = seconds_between(start, Clock::now());
  };

  if (jobs == 1) {
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      submitted[i] = Clock::now();
      run_one(i);
    }
  } else {
    ThreadPool pool(jobs);
    std::vector<std::future<void>> futures;
    futures.reserve(tasks.size());
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      submitted[i] = Clock::now();
      futures.push_back(pool.submit([&run_one, i] { run_one(i); }));
    }
    for (auto& f : futures) f.get();  // run_one never throws
  }
  local.batch_wall_s = seconds_between(batch_start, Clock::now());

  // Rethrow the lowest-index non-capacity failure, independent of
  // scheduling order.
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  if (stats != nullptr) *stats = std::move(local);
  return outcomes;
}

std::vector<TelemetryPart> telemetry_parts(
    const std::vector<ExperimentConfig>& tasks,
    const std::vector<ExperimentOutcome>& outcomes) {
  std::vector<TelemetryPart> parts;
  const std::size_t n = std::min(tasks.size(), outcomes.size());
  parts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (outcomes[i].telemetry == nullptr) continue;
    parts.push_back({tasks[i].label, outcomes[i].telemetry.get()});
  }
  return parts;
}

}  // namespace nvms
