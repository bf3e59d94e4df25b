#include "cli/driver.hpp"

#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cli/options.hpp"
#include "cli/parse.hpp"
#include "harness/registry.hpp"
#include "harness/sweep.hpp"
#include "harness/report.hpp"
#include "mem/space.hpp"
#include "obs/analyze/diff.hpp"
#include "obs/analyze/profile.hpp"
#include "obs/export.hpp"
#include "placement/trace_optimizer.hpp"
#include "placement/write_aware.hpp"
#include "prof/data_profile.hpp"
#include "replay/recording.hpp"
#include "simcore/error.hpp"
#include "simcore/json.hpp"
#include "simcore/table.hpp"
#include "simcore/units.hpp"

namespace nvms {
namespace {

constexpr const char* kUsage = R"(nvmsim — NVM-based memory system simulator

usage: nvmsim <command> [options]

commands:
  list                      registered applications
  devices                   calibrated device parameters
  run <app>                 run one application
      --mode dram-only|cached-nvm|uncached-nvm   (default uncached-nvm)
      --threads N           simulated concurrency       (default 36)
      --scale S             input-problem scale         (default 1.0)
      --iters K             iteration override          (default app)
      --trace FILE          write the bandwidth trace as CSV
      --remote-nvm          access NVM on the remote socket over UPI
      --numa local|interleave|remote   two-socket placement policy
      --json                emit the result as JSON
      --trace-out FILE      write a Chrome trace (chrome://tracing, Perfetto)
      --metrics-out FILE    write per-epoch metric streams as CSV
      --resolve-cache[=off|shared]   memoize DRAM-cache walks in the
                            daemon's process-lifetime cache (a one-shot
                            run attaches none; output byte-identical)
      --intra-jobs auto|N   worker lanes inside this run's epoch kernel
                            (default 1; auto = whole machine; output is
                            byte-identical for any width)
  sweep <app>               run across modes x concurrency
      --modes a,b,c         (default: all three)
      --threads a,b,c       (default: 12,24,36,48)
      --scale S
      --jobs N              parallel experiment workers
                            (default: hardware concurrency; results are
                            byte-identical for any N)
      --csv                 emit CSV instead of a table
      --stats FILE          write per-task executor timings as CSV
      --trace-out FILE      merged Chrome trace over the whole grid
      --metrics-out FILE    merged per-epoch metrics CSV over the grid
      --jsonl FILE          merged JSONL telemetry over the grid
      --resolve-cache[=off|shared]   memoize DRAM-cache walks across
                            the grid's cells (default off; rows and
                            exports are byte-identical either way)
      --intra-jobs auto|N   worker lanes inside each cell's epoch kernel
                            (default 1; auto splits the lane budget over
                            the --jobs workers; bytes identical anyway)
  inspect <app>             run once with telemetry and summarize it
      --mode M --threads N --scale S --iters K
      --format human|json   byte-stable sorted-key JSON for scripts
      --trace-out FILE --metrics-out FILE --jsonl FILE
  explain <app|trace>       bottleneck attribution: why is this slow
      --mode M --threads N --scale S
      --jobs N              (app form; output byte-identical for any N)
      --intra-jobs auto|N   (output byte-identical for any width)
      --resolve-cache[=off|shared]   (output byte-identical either way)
      --format human|json|csv            (default human)
      --metrics-out FILE    analyze.* gauges as Prometheus exposition text
  diff <a> <b>              explain what changed between two runs/traces
      --mode M --threads N --scale S --jobs N --intra-jobs auto|N
      --mode-a M --mode-b M per-side mode override (compare modes)
      --resolve-cache[=off|shared]
      --format human|json                (default human)
      --metrics-out FILE    diff.* gauges as Prometheus exposition text
  profile <app>             data-centric profile + write-aware plan
      --threads N --scale S
      --budget PCT          DRAM budget percent        (default 35)
  record <app> --out FILE   capture the phase trace of a run
      --mode M --threads N --scale S
  replay FILE               re-execute a trace on another configuration
      --mode M              (default uncached-nvm)
      --nvm-write-bw GBS    override the NVM write peak (what-if)
      --nvm-read-bw GBS     override the NVM read peak (what-if)
  optimize <app|FILE>       trace-driven placement plan (delta-replay CELF)
      --budget B            DRAM budget: percent ("35%") or bytes with an
                            optional KiB/MiB/GiB suffix   (default 35%)
      --mode M              (default uncached-nvm)
      --threads N --scale S --iters K   recording options (app form)
      --jobs N              parallel candidate evaluation workers
                            (plan and tables are identical for any N)
      --intra-jobs auto|N   lanes inside each replayed system's kernel
                            (plan identical for any width)
      --min-gain G          stop below this relative gain (default 1e-3)
  serve                     nvmsimd: long-running service answering JSONL
                            requests over a socket (docs/SERVICE.md)
      --socket PATH | --port N       listen endpoint
      --workers N --queue N --client-budget N
  client                    send JSONL requests from stdin to a daemon
      --socket PATH | --host H --port N
)";

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

// Write `content` to `path`; on failure reports "<cmd>: cannot write ..."
// and returns false.
bool write_file(const std::string& path, const std::string& content,
                std::ostream& err, const char* cmd) {
  std::ofstream f(path);
  if (!f) {
    err << cmd << ": cannot write " << path << "\n";
    return false;
  }
  f << content;
  return true;
}

// Parse --resolve-cache[=off|shared]; a bare flag means "shared".
// Reports and returns nullopt on unknown values.
std::optional<ResolveCacheMode> cache_mode_from(const Options& opt,
                                                std::ostream& err,
                                                const char* cmd) {
  const std::string v = opt.get("resolve-cache", "off");
  const auto mode = parse_resolve_cache_mode(v == "true" ? "shared" : v);
  if (!mode) {
    err << cmd << ": unknown --resolve-cache mode '" << v
        << "' (want off|shared)\n";
  }
  return mode;
}

// Parse --intra-jobs [auto|N]: worker lanes inside one simulator run's
// epoch kernel (SystemConfig::intra_jobs).  "auto" (or a bare flag) maps
// to 0 — the executor/daemon splits the process-wide lane budget over
// the active jobs.  Without the option, a frontend's lane grant
// (CommandContext::intra_jobs) applies, else 1.  Output bytes never
// depend on the width.
int intra_jobs_from(const Options& opt, const CommandContext* ctx) {
  if (!opt.has("intra-jobs") && ctx != nullptr && ctx->intra_jobs > 0) {
    return ctx->intra_jobs;
  }
  const std::string v = opt.get("intra-jobs", "1");
  if (v == "auto" || v == "true") return 0;
  return opt.get_int_at_least("intra-jobs", 1, 0);
}

void report_cache_line(const char* what, const ResolveCacheStats& s,
                       std::ostream& err) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "%s: %llu hit(s), %llu miss(es), %llu "
                "eviction(s), %zu entr%s, hit rate %.1f%%",
                what, static_cast<unsigned long long>(s.hits),
                static_cast<unsigned long long>(s.misses),
                static_cast<unsigned long long>(s.evictions), s.entries,
                s.entries == 1 ? "y" : "ies", 100.0 * s.hit_rate());
  err << buf << "\n";
}

// The stream memo only sees Memory-mode cells; stay quiet otherwise.
void report_stream_memo(const ResolveCacheStats& s, std::ostream& err) {
  if (s.hits + s.misses > 0) report_cache_line("stream-memo", s, err);
}

// The cache a run attaches under `mode`: only a frontend's process-lifetime
// cache, because a lone run can never hit its own stream-memo inserts
// (memsim/resolve_cache.hpp).
ResolveCache* run_cache(ResolveCacheMode mode, const CommandContext* ctx) {
  return mode == ResolveCacheMode::kShared && ctx != nullptr
             ? ctx->shared_cache
             : nullptr;
}

AppConfig config_from(const Options& opt) {
  AppConfig cfg;
  cfg.threads = opt.get_int("threads", 36);
  cfg.size_scale = opt.get_double("scale", 1.0);
  cfg.iterations = opt.get_int("iters", 0);
  cfg.validate();
  return cfg;
}

int cmd_list(std::ostream& out) {
  TextTable t({"name", "dwarf", "input problem"});
  for (const auto& name : app_names()) {
    const App& app = lookup_app(name);
    t.add_row({name, app.dwarf(), app.input_problem()});
  }
  for (const auto& name : extra_app_names()) {
    const App& app = lookup_app(name);
    t.add_row({name, app.dwarf(), app.input_problem()});
  }
  out << t.render();
  return 0;
}

int cmd_devices(std::ostream& out) {
  const auto cfg = SystemConfig::testbed(Mode::kUncachedNvm);
  TextTable t({"parameter", "DRAM (ddr4)", "NVM (optane)"});
  auto row = [&](const std::string& name, const std::string& d,
                 const std::string& n) { t.add_row({name, d, n}); };
  row("capacity (scaled 1/1024)", format_bytes(cfg.dram.capacity),
      format_bytes(cfg.nvm.capacity));
  row("read latency seq/rand",
      format_time(cfg.dram.read_lat_seq) + " / " +
          format_time(cfg.dram.read_lat_rand),
      format_time(cfg.nvm.read_lat_seq) + " / " +
          format_time(cfg.nvm.read_lat_rand));
  row("read / write peak",
      format_bandwidth(cfg.dram.read_bw_peak) + " / " +
          format_bandwidth(cfg.dram.write_bw_peak),
      format_bandwidth(cfg.nvm.read_bw_peak) + " / " +
          format_bandwidth(cfg.nvm.write_bw_peak));
  row("media granularity", std::to_string(cfg.dram.media_granularity) + " B",
      std::to_string(cfg.nvm.media_granularity) + " B");
  row("write scaling sweet spot",
      TextTable::num(cfg.dram.write_scaling.argmax(), 0) + " thr",
      TextTable::num(cfg.nvm.write_scaling.argmax(), 0) + " thr");
  row("throttle alpha", TextTable::num(cfg.dram.throttle_alpha, 2),
      TextTable::num(cfg.nvm.throttle_alpha, 2));
  out << t.render();
  return 0;
}

int cmd_run(const Options& opt, std::ostream& out, std::ostream& err,
            const CommandContext* ctx) {
  if (opt.positional().empty()) {
    err << "run: missing application name\n";
    return 2;
  }
  const std::string app = opt.positional()[0];
  const auto mode = parse_mode(opt.get("mode", "uncached-nvm"));
  if (!mode) {
    err << "run: unknown mode\n";
    return 2;
  }
  SystemConfig sys_cfg = SystemConfig::testbed(*mode);
  if (opt.has("remote-nvm")) {
    (void)opt.get("remote-nvm", "");
    sys_cfg.remote_nvm = true;
  }
  const std::string numa = opt.get("numa", "");
  if (!numa.empty()) {
    sys_cfg.sockets = 2;
    if (numa == "local") {
      sys_cfg.numa_policy = NumaPolicy::kLocalSocket;
    } else if (numa == "interleave") {
      sys_cfg.numa_policy = NumaPolicy::kInterleave;
    } else if (numa == "remote") {
      sys_cfg.numa_policy = NumaPolicy::kRemoteSocket;
    } else {
      err << "run: unknown --numa policy '" << numa << "'\n";
      return 2;
    }
  }
  const AppConfig cfg = config_from(opt);
  const int intra = intra_jobs_from(opt, ctx);
  sys_cfg.intra_jobs = intra == 0 ? resolve_auto_intra_jobs(1) : intra;
  const auto cache_mode = cache_mode_from(opt, err, "run");
  if (!cache_mode) return 2;
  const std::string trace_out = opt.get("trace-out", "");
  const std::string metrics_out = opt.get("metrics-out", "");
  Telemetry telemetry;
  const bool want_telemetry = !trace_out.empty() || !metrics_out.empty();
  ResolveCache* cache = run_cache(*cache_mode, ctx);
  AppResult r = run_app_on(app, sys_cfg, cfg,
                           want_telemetry ? &telemetry : nullptr, cache);
  // The one output that prints the numerics' checksum.
  r.checksum = lookup_app(app).host(cfg);
  if (cache != nullptr) report_stream_memo(cache->stats(), err);

  if (!trace_out.empty() &&
      !write_file(trace_out, chrome_trace_json(telemetry, app), err, "run")) {
    return 1;
  }
  if (!metrics_out.empty() &&
      !write_file(metrics_out, metrics_csv(telemetry, app), err, "run")) {
    return 1;
  }

  if (opt.has("json")) {
    (void)opt.get("json", "");
    Json j;
    j.set("app", r.app)
        .set("dwarf", lookup_app(app).dwarf())
        .set("mode", r.mode)
        .set("threads", cfg.threads)
        .set("size_scale", cfg.size_scale)
        .set("footprint_bytes", r.footprint)
        .set("runtime_s", r.runtime)
        .set("fom", r.fom)
        .set("fom_unit", r.fom_unit)
        .set("higher_is_better", r.higher_is_better)
        .set("avg_read_bw_gbs", r.traces.avg_read_bw() / GB)
        .set("avg_write_bw_gbs", r.traces.avg_write_bw() / GB)
        .set("ipc", r.counters.ipc())
        .set("checksum", r.checksum);
    Json counters;
    counters.set("instructions", r.counters.instructions)
        .set("cycles_active", r.counters.cycles_active)
        .set("stall_cycles", r.counters.stall_cycles)
        .set("offcore_wait", r.counters.offcore_wait)
        .set("imc_reads", r.counters.imc_reads)
        .set("imc_writes", r.counters.imc_writes);
    j.set("counters", counters);
    out << j.dump(2) << "\n";
    return 0;
  }

  TextTable t({"metric", "value"});
  t.add_row({"app", r.app + " (" + lookup_app(app).dwarf() + ")"});
  t.add_row({"mode", r.mode});
  t.add_row({"threads", std::to_string(cfg.threads)});
  t.add_row({"footprint", format_bytes(r.footprint)});
  t.add_row({"runtime", format_time(r.runtime)});
  t.add_row({"FoM", TextTable::num(r.fom, 2) + " " + r.fom_unit +
                        (r.higher_is_better ? " (higher better)"
                                            : " (lower better)")});
  t.add_row({"avg read BW", format_bandwidth(r.traces.avg_read_bw())});
  t.add_row({"avg write BW", format_bandwidth(r.traces.avg_write_bw())});
  t.add_row({"IPC", TextTable::num(r.counters.ipc(), 3)});
  t.add_row({"checksum", TextTable::num(r.checksum, 6)});
  out << t.render();

  const std::string trace_file = opt.get("trace", "");
  if (!trace_file.empty()) {
    std::ofstream f(trace_file);
    if (!f) {
      err << "run: cannot write " << trace_file << "\n";
      return 1;
    }
    f << render_trace_csv(r.traces, 256);
    out << "trace written to " << trace_file << " (256 samples)\n";
  }
  return 0;
}

int cmd_sweep(const Options& opt, std::ostream& out, std::ostream& err,
              const CommandContext* ctx) {
  if (opt.positional().empty()) {
    err << "sweep: missing application name\n";
    return 2;
  }
  const std::string app = opt.positional()[0];
  std::vector<Mode> modes;
  for (const auto& m :
       split_csv(opt.get("modes", "dram-only,cached-nvm,uncached-nvm"))) {
    const auto parsed = parse_mode(m);
    if (!parsed) {
      err << "sweep: unknown mode '" << m << "'\n";
      return 2;
    }
    modes.push_back(*parsed);
  }
  SweepSpec spec;
  spec.app = app;
  spec.modes = modes;
  // Checked CSV parsing: "12,abc" used to reach an unguarded std::stoi
  // and kill the process with an uncaught std::invalid_argument.
  std::string why;
  const auto threads =
      parse_int_csv(opt.get("threads", "12,24,36,48"), /*min=*/1, &why);
  if (!threads) {
    err << "sweep: bad --threads: " << why << "\n";
    return 2;
  }
  spec.threads = *threads;
  spec.scales = {opt.get_double("scale", 1.0)};
  spec.jobs = opt.get_int_at_least("jobs", 0, 0);
  spec.intra_jobs = intra_jobs_from(opt, ctx);
  const auto cache_mode = cache_mode_from(opt, err, "sweep");
  if (!cache_mode) return 2;
  spec.resolve_cache = *cache_mode;
  spec.external_cache = run_cache(*cache_mode, ctx);
  const std::string trace_out = opt.get("trace-out", "");
  const std::string metrics_out = opt.get("metrics-out", "");
  const std::string jsonl_out = opt.get("jsonl", "");
  spec.telemetry =
      !trace_out.empty() || !metrics_out.empty() || !jsonl_out.empty();
  const auto result = run_sweep(spec);
  report_stream_memo(result.cache_stats, err);

  if (!trace_out.empty() &&
      !write_file(trace_out, sweep_chrome_trace(result), err, "sweep")) {
    return 1;
  }
  if (!metrics_out.empty() &&
      !write_file(metrics_out, sweep_metrics_csv(result), err, "sweep")) {
    return 1;
  }
  if (!jsonl_out.empty() &&
      !write_file(jsonl_out, sweep_telemetry_jsonl(result), err, "sweep")) {
    return 1;
  }

  // Capacity-skipped configurations are reported, never silently dropped.
  if (!result.skipped.empty()) {
    err << "sweep: skipped " << result.skipped.size()
        << " configuration(s) exceeding device capacity:\n";
    for (const auto& s : result.skipped) {
      err << "  " << to_string(s.mode) << " threads=" << s.threads
          << " scale=" << s.scale << "\n";
    }
  }

  const std::string stats_file = opt.get("stats", "");
  if (!stats_file.empty()) {
    std::ofstream f(stats_file);
    if (!f) {
      err << "sweep: cannot write " << stats_file << "\n";
      return 1;
    }
    f << sweep_stats_csv(result);
  }

  if (opt.has("csv")) {
    (void)opt.get("csv", "");
    out << sweep_csv(result);
    // Keep stdout pure CSV; the execution summary goes to stderr.
    err << result.stats.summary() << "\n";
    return 0;
  }
  TextTable t({"mode", "threads", "runtime", "FoM"});
  for (const auto& r : result.rows) {
    t.add_row({to_string(r.mode), std::to_string(r.threads),
               format_time(r.result.runtime),
               TextTable::num(r.result.fom, 2) + " " + r.result.fom_unit});
  }
  out << t.render();
  out << "\n" << result.stats.summary() << "\n";
  return 0;
}

int cmd_inspect(const Options& opt, std::ostream& out, std::ostream& err) {
  if (opt.positional().empty()) {
    err << "inspect: missing application name\n";
    return 2;
  }
  const std::string app = opt.positional()[0];
  const auto mode = parse_mode(opt.get("mode", "uncached-nvm"));
  if (!mode) {
    err << "inspect: unknown mode\n";
    return 2;
  }
  const std::string format = opt.get("format", "human");
  if (format != "human" && format != "json") {
    err << "inspect: unknown --format '" << format << "' (want human|json)\n";
    return 2;
  }
  const AppConfig cfg = config_from(opt);
  const SystemConfig sys_cfg = SystemConfig::testbed(*mode);
  Telemetry telemetry;
  const AppResult r = run_app_on(app, sys_cfg, cfg, &telemetry);
  const RunProfile profile =
      build_run_profile(telemetry, analyze_context(sys_cfg, app));

  const auto& spans = telemetry.tracer().spans();
  const auto& metrics = telemetry.metrics().metrics();

  // Span taxonomy, aggregated by (category, name) in first-seen order.
  struct SpanAgg {
    std::string name, category;
    std::size_t depth = 0;
    std::size_t count = 0;
    double total_s = 0.0;
  };
  std::vector<SpanAgg> agg;
  std::map<std::pair<std::string, std::string>, std::size_t> index;
  for (const auto& s : spans) {
    if (!s.closed) continue;
    const auto key = std::make_pair(s.category, s.name);
    auto it = index.find(key);
    if (it == index.end()) {
      it = index.emplace(key, agg.size()).first;
      agg.push_back(
          {s.name, s.category, static_cast<std::size_t>(s.depth), 0, 0.0});
    }
    SpanAgg& a = agg[it->second];
    a.count += 1;
    a.total_s += s.t1 - s.t0;
  }

  if (format == "json") {
    // Machine form: sorted keys, stable field set — byte-stable for CI.
    Json j;
    j.set("app", app)
        .set("mode", r.mode)
        .set("runtime_s", r.runtime)
        .set("span_count", spans.size())
        .set("metric_count", metrics.size());
    Json jspans = Json::array();
    for (const auto& a : agg) {
      Json js;
      js.set("name", a.name)
          .set("category", a.category)
          .set("depth", a.depth)
          .set("count", a.count)
          .set("total_s", a.total_s);
      jspans.push(std::move(js));
    }
    j.set("spans", std::move(jspans));
    Json jmetrics = Json::array();
    for (const auto& m : metrics) {
      Json jm;
      jm.set("name", m.name)
          .set("labels", m.labels)
          .set("kind", to_string(m.kind))
          .set("points", m.kind == MetricKind::kHistogram ? m.count
                                                          : m.series.size())
          .set("value",
               m.kind == MetricKind::kHistogram ? m.mean() : m.value);
      if (m.count > 0) jm.set("min", m.min).set("max", m.max);
      jmetrics.push(std::move(jm));
    }
    j.set("metrics", std::move(jmetrics));
    j.set("profile", run_profile_json(profile));
    j.sort_keys();
    out << j.dump(2) << "\n";
  } else {
    out << app << " (" << r.mode << "): " << format_time(r.runtime) << ", "
        << spans.size() << " span(s), " << metrics.size()
        << " metric stream(s)\n\n";
    TextTable ts({"span", "category", "depth", "count", "sim time"});
    for (const auto& a : agg) {
      ts.add_row({a.name, a.category, std::to_string(a.depth),
                  std::to_string(a.count), format_time(a.total_s)});
    }
    out << ts.render();

    TextTable tm(
        {"metric", "labels", "kind", "points", "value", "min", "max"});
    for (const auto& m : metrics) {
      std::string points = std::to_string(
          m.kind == MetricKind::kHistogram ? m.count : m.series.size());
      // Counters/gauges show their final value; histograms their mean.
      const double value =
          m.kind == MetricKind::kHistogram ? m.mean() : m.value;
      const bool stats = m.count > 0;
      tm.add_row({m.name, m.labels, to_string(m.kind), points,
                  TextTable::num(value, 4),
                  stats ? TextTable::num(m.min, 4) : "-",
                  stats ? TextTable::num(m.max, 4) : "-"});
    }
    out << "\n" << tm.render();
    out << "\n" << render_run_profile(profile);
  }

  // File-export confirmations go to stderr in JSON mode so stdout stays a
  // single parseable document.
  std::ostream& note = format == "json" ? err : out;
  const std::string trace_out = opt.get("trace-out", "");
  if (!trace_out.empty()) {
    if (!write_file(trace_out, chrome_trace_json(telemetry, app), err,
                    "inspect")) {
      return 1;
    }
    note << "\ntrace written to " << trace_out << "\n";
  }
  const std::string metrics_out = opt.get("metrics-out", "");
  if (!metrics_out.empty()) {
    if (!write_file(metrics_out, metrics_csv(telemetry, app), err,
                    "inspect")) {
      return 1;
    }
    note << "metrics written to " << metrics_out << "\n";
  }
  const std::string jsonl_out = opt.get("jsonl", "");
  if (!jsonl_out.empty()) {
    if (!write_file(jsonl_out, telemetry_jsonl(telemetry, app), err,
                    "inspect")) {
      return 1;
    }
    note << "jsonl written to " << jsonl_out << "\n";
  }
  return 0;
}

int cmd_profile(const Options& opt, std::ostream& out, std::ostream& err) {
  if (opt.positional().empty()) {
    err << "profile: missing application name\n";
    return 2;
  }
  const std::string app = opt.positional()[0];
  const AppConfig cfg = config_from(opt);
  const int budget_pct = opt.get_int("budget", 35);
  if (budget_pct <= 0 || budget_pct > 100) {
    err << "profile: --budget must be in (0,100]\n";
    return 2;
  }

  const auto sys_cfg = SystemConfig::testbed(Mode::kUncachedNvm);
  MemorySystem sys(sys_cfg);
  AppContext ctx(sys, cfg);
  (void)lookup_app(app).emit(ctx);
  const auto profiles = collect_data_profile(sys);

  TextTable t({"buffer", "size", "reads", "writes", "write intensity"});
  for (const auto& p : profiles) {
    t.add_row({p.name, format_bytes(p.bytes), format_bytes(p.read_bytes),
               format_bytes(p.write_bytes),
               TextTable::num(p.write_intensity(), 1)});
  }
  out << t.render();

  const auto wa = write_aware_plan(
      profiles, sys_cfg.dram.capacity * static_cast<unsigned>(budget_pct) /
                    100);
  out << "\nwrite-aware plan (" << budget_pct
      << "% DRAM budget): " << wa.in_dram.size() << " buffer(s) -> DRAM, "
      << format_bytes(wa.dram_bytes) << " used\n";
  for (const auto& name : wa.in_dram) out << "  -> DRAM: " << name << "\n";
  return 0;
}

int cmd_record(const Options& opt, std::ostream& out, std::ostream& err) {
  if (opt.positional().empty()) {
    err << "record: missing application name\n";
    return 2;
  }
  const std::string file = opt.get("out", "");
  if (file.empty()) {
    err << "record: --out FILE is required\n";
    return 2;
  }
  const auto mode = parse_mode(opt.get("mode", "uncached-nvm"));
  if (!mode) {
    err << "record: unknown mode\n";
    return 2;
  }
  const AppConfig cfg = config_from(opt);
  MemorySystem sys(SystemConfig::testbed(*mode));
  TraceCapture capture(sys);
  AppContext ctx(sys, cfg);
  (void)lookup_app(opt.positional()[0]).emit(ctx);
  const auto rec = capture.finish();
  std::ofstream f(file);
  if (!f) {
    err << "record: cannot write " << file << "\n";
    return 1;
  }
  f << rec.save();
  out << "recorded " << rec.phases.size() << " phases over "
      << rec.buffers.size() << " buffers ("
      << format_bytes(rec.total_bytes()) << " of traffic) to " << file
      << "\n";
  return 0;
}

int cmd_replay(const Options& opt, std::ostream& out, std::ostream& err) {
  if (opt.positional().empty()) {
    err << "replay: missing trace file\n";
    return 2;
  }
  std::ifstream f(opt.positional()[0]);
  if (!f) {
    err << "replay: cannot read " << opt.positional()[0] << "\n";
    return 1;
  }
  std::stringstream buf;
  buf << f.rdbuf();
  const auto rec = PhaseRecording::load(buf.str());

  const auto mode = parse_mode(opt.get("mode", "uncached-nvm"));
  if (!mode) {
    err << "replay: unknown mode\n";
    return 2;
  }
  SystemConfig sys_cfg = SystemConfig::testbed(*mode);
  const double wbw = opt.get_double("nvm-write-bw", 0.0);
  if (wbw > 0.0) sys_cfg.nvm.write_bw_peak = gbps(wbw);
  const double rbw = opt.get_double("nvm-read-bw", 0.0);
  if (rbw > 0.0) sys_cfg.nvm.read_bw_peak = gbps(rbw);

  MemorySystem sys(sys_cfg);
  const double time = rec.replay(sys);
  TextTable t({"metric", "value"});
  t.add_row({"phases", std::to_string(rec.phases.size())});
  t.add_row({"mode", to_string(*mode)});
  t.add_row({"replayed runtime", format_time(time)});
  t.add_row({"avg read BW", format_bandwidth(sys.traces().avg_read_bw())});
  t.add_row({"avg write BW", format_bandwidth(sys.traces().avg_write_bw())});
  out << t.render();
  return 0;
}

bool is_registered_app(const std::string& name) {
  for (const auto& a : app_names())
    if (a == name) return true;
  for (const auto& a : extra_app_names())
    if (a == name) return true;
  return false;
}

// Resolve an `explain`/`diff` target — a saved `nvmstrace v1` recording
// or a registered application name — into a RunProfile.  The app form
// routes through run_sweep (a 1-cell grid honoring --jobs and
// --resolve-cache), so the profile is grid-order deterministic: output is
// byte-identical for any jobs count and any resolve-cache mode.  The
// trace form replays the recording once with telemetry attached.
std::optional<RunProfile> profile_of_target(const std::string& target,
                                            const Options& opt,
                                            std::ostream& err,
                                            const char* cmd,
                                            const CommandContext* ctx,
                                            const char* mode_opt = "mode") {
  const auto mode =
      parse_mode(opt.get(mode_opt, opt.get("mode", "uncached-nvm")));
  if (!mode) {
    err << cmd << ": unknown mode\n";
    return std::nullopt;
  }
  const auto cache_mode = cache_mode_from(opt, err, cmd);
  if (!cache_mode) return std::nullopt;
  const int intra = intra_jobs_from(opt, ctx);

  std::ifstream f(target);
  if (f) {
    std::stringstream buf;
    buf << f.rdbuf();
    const auto rec = PhaseRecording::load(buf.str());
    SystemConfig sys_cfg = SystemConfig::testbed(*mode);
    sys_cfg.intra_jobs = intra == 0 ? resolve_auto_intra_jobs(1) : intra;
    MemorySystem sys(sys_cfg);
    Telemetry telemetry;
    sys.set_telemetry(&telemetry);
    sys.set_resolve_cache(run_cache(*cache_mode, ctx));
    (void)rec.replay(sys);
    return build_run_profile(telemetry, analyze_context(sys_cfg, target));
  }
  if (!is_registered_app(target)) {
    err << cmd << ": '" << target
        << "' is neither a readable trace file nor a registered "
           "application\n";
    return std::nullopt;
  }
  SweepSpec spec;
  spec.app = target;
  spec.modes = {*mode};
  spec.threads = {opt.get_int("threads", 36)};
  spec.scales = {opt.get_double("scale", 1.0)};
  spec.jobs = opt.get_int_at_least("jobs", 0, 0);
  spec.intra_jobs = intra;
  spec.telemetry = true;
  spec.resolve_cache = *cache_mode;
  spec.external_cache = run_cache(*cache_mode, ctx);
  const auto result = run_sweep(spec);
  if (result.rows.empty()) {
    err << cmd << ": configuration skipped"
        << (result.skipped.empty() ? ""
                                   : ": " + result.skipped.front().reason)
        << "\n";
    return std::nullopt;
  }
  return sweep_profile(result, target);
}

int cmd_explain(const Options& opt, std::ostream& out, std::ostream& err,
                const CommandContext* ctx) {
  if (opt.positional().empty()) {
    err << "explain: missing application name or trace file\n";
    return 2;
  }
  const auto profile =
      profile_of_target(opt.positional()[0], opt, err, "explain", ctx);
  if (!profile) return 2;
  const std::string format = opt.get("format", "human");
  if (format == "human") {
    out << render_run_profile(*profile);
  } else if (format == "json") {
    out << run_profile_json(*profile).dump(2) << "\n";
  } else if (format == "csv") {
    out << run_profile_csv(*profile);
  } else {
    err << "explain: unknown --format '" << format
        << "' (want human|json|csv)\n";
    return 2;
  }
  const std::string metrics_out = opt.get("metrics-out", "");
  if (!metrics_out.empty()) {
    Telemetry summary;
    publish_run_profile(*profile, summary.metrics());
    if (!write_file(metrics_out, prometheus_text(summary, profile->run),
                    err, "explain")) {
      return 1;
    }
  }
  return 0;
}

int cmd_diff(const Options& opt, std::ostream& out, std::ostream& err,
             const CommandContext* ctx) {
  if (opt.positional().size() < 2) {
    err << "diff: need two applications or trace files\n";
    return 2;
  }
  // Each side may override the shared --mode (e.g. `diff hypre hypre
  // --mode-a cached-nvm --mode-b uncached-nvm` asks why Memory mode and
  // App-Direct diverge on the same application).
  const auto a =
      profile_of_target(opt.positional()[0], opt, err, "diff", ctx, "mode-a");
  if (!a) return 2;
  const auto b =
      profile_of_target(opt.positional()[1], opt, err, "diff", ctx, "mode-b");
  if (!b) return 2;
  const RunDiff d = diff_profiles(*a, *b);
  const std::string format = opt.get("format", "human");
  if (format == "human") {
    out << render_run_diff(d);
  } else if (format == "json") {
    out << run_diff_json(d).dump(2) << "\n";
  } else {
    err << "diff: unknown --format '" << format << "' (want human|json)\n";
    return 2;
  }
  const std::string metrics_out = opt.get("metrics-out", "");
  if (!metrics_out.empty()) {
    Telemetry summary;
    publish_run_diff(d, summary.metrics());
    if (!write_file(metrics_out, prometheus_text(summary, d.a + "-vs-" + d.b),
                    err, "diff")) {
      return 1;
    }
  }
  return 0;
}

int cmd_optimize(const Options& opt, std::ostream& out, std::ostream& err,
                 const CommandContext* ctx) {
  if (opt.positional().empty()) {
    err << "optimize: missing application name or trace file\n";
    return 2;
  }
  const std::string target = opt.positional()[0];
  const auto mode = parse_mode(opt.get("mode", "uncached-nvm"));
  if (!mode) {
    err << "optimize: unknown mode\n";
    return 2;
  }
  SystemConfig sys_cfg = SystemConfig::testbed(*mode);
  // 0 (auto) is passed through: each replayed MemorySystem leases
  // whatever lanes are free at construction.  The plan never depends on
  // the width, so racing the budget across evaluator workers is safe.
  sys_cfg.intra_jobs = intra_jobs_from(opt, ctx);

  // The target is either a saved `nvmstrace v1` recording or the name of
  // a registered application (recorded here under the same system mode).
  PhaseRecording rec;
  std::ifstream f(target);
  if (f) {
    std::stringstream buf;
    buf << f.rdbuf();
    rec = PhaseRecording::load(buf.str());
  } else if (is_registered_app(target)) {
    const AppConfig cfg = config_from(opt);
    MemorySystem sys(sys_cfg);
    TraceCapture capture(sys);
    AppContext app_ctx(sys, cfg);
    (void)lookup_app(target).emit(app_ctx);
    rec = capture.finish();
  } else {
    err << "optimize: '" << target
        << "' is neither a readable trace file nor a registered "
           "application\n";
    return 2;
  }

  // Checked budget parsing (cli/parse.hpp): "10xyz" or "1.5q" used to be
  // silently truncated by std::stod's partial match; now they're errors.
  std::string why;
  const auto budget = parse_budget_spec(opt.get("budget", "35%"),
                                        sys_cfg.dram.capacity, &why);
  if (!budget) {
    err << "optimize: bad --budget: " << why << "\n";
    return 2;
  }

  TraceOptimizerOptions oopt;
  oopt.jobs = opt.get_int_at_least("jobs", 0, 0);
  oopt.min_gain = opt.get_double("min-gain", 1e-3);
  const auto r = optimize_placement(
      rec, *budget, [&sys_cfg] { return MemorySystem(sys_cfg); }, oopt);

  TextTable t({"metric", "value"});
  t.add_row({"phases", std::to_string(rec.phases.size())});
  t.add_row({"buffers", std::to_string(rec.buffers.size())});
  t.add_row({"mode", to_string(*mode)});
  t.add_row({"DRAM budget", format_bytes(*budget)});
  t.add_row({"DRAM used", format_bytes(r.dram_bytes)});
  t.add_row({"baseline runtime", format_time(r.baseline_runtime)});
  t.add_row({"optimized runtime", format_time(r.optimized_runtime)});
  t.add_row({"speedup", TextTable::num(r.speedup(), 2) + "x"});
  out << t.render();

  if (r.steps.empty()) {
    out << "\nno promotion improves the replayed runtime under this "
           "budget\n";
  } else {
    TextTable s({"step", "buffer -> DRAM", "runtime", "gain"});
    double prev = r.baseline_runtime;
    for (std::size_t i = 0; i < r.steps.size(); ++i) {
      const auto& [name, runtime] = r.steps[i];
      s.add_row({std::to_string(i + 1), name, format_time(runtime),
                 TextTable::num(100.0 * (prev - runtime) / prev, 1) + "%"});
      prev = runtime;
    }
    out << "\n" << s.render();
  }

  // Evaluator accounting goes to stderr: the memo hit/miss split can vary
  // across worker counts, while stdout must stay byte-identical.
  err << "optimize: " << r.stats.evals << " candidate evaluation(s), "
      << r.stats.full_replays << " full replay(s)\n";
  if (r.stats.phase_cache.hits + r.stats.phase_cache.misses > 0) {
    report_cache_line("phase-cache", r.stats.phase_cache, err);
  }
  report_stream_memo(r.stats.stream_memo, err);
  return 0;
}

}  // namespace

int run_command(const std::string& cmd, const Options& opt,
                std::ostream& out, std::ostream& err,
                const CommandContext* ctx) {
  int rc;
  if (cmd == "list") {
    rc = cmd_list(out);
  } else if (cmd == "devices") {
    rc = cmd_devices(out);
  } else if (cmd == "run") {
    rc = cmd_run(opt, out, err, ctx);
  } else if (cmd == "sweep") {
    rc = cmd_sweep(opt, out, err, ctx);
  } else if (cmd == "inspect") {
    rc = cmd_inspect(opt, out, err);
  } else if (cmd == "explain") {
    rc = cmd_explain(opt, out, err, ctx);
  } else if (cmd == "diff") {
    rc = cmd_diff(opt, out, err, ctx);
  } else if (cmd == "profile") {
    rc = cmd_profile(opt, out, err);
  } else if (cmd == "record") {
    rc = cmd_record(opt, out, err);
  } else if (cmd == "replay") {
    rc = cmd_replay(opt, out, err);
  } else if (cmd == "optimize") {
    rc = cmd_optimize(opt, out, err, ctx);
  } else if (cmd == "help" || cmd == "--help") {
    out << kUsage;
    rc = 0;
  } else {
    err << "unknown command '" << cmd << "'\n" << kUsage;
    return 2;
  }
  for (const auto& key : opt.unused()) {
    err << "warning: unused option --" << key << "\n";
  }
  return rc;
}

int run_command_guarded(const std::string& cmd, const Options& opt,
                        std::ostream& out, std::ostream& err,
                        const CommandContext* ctx) {
  try {
    return run_command(cmd, opt, out, err, ctx);
  } catch (const ConfigError& e) {
    // Bad input is a usage error, same as malformed option syntax.
    err << "error: " << e.what() << "\n";
    return 2;
  } catch (const Error& e) {
    err << "error: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    // Last-resort net: under nvmsimd one malformed request must never
    // take the process (and every other tenant's warm cache) down.
    err << "internal error: " << e.what() << "\n";
    return 1;
  }
}

int cli_main(int argc, char** argv, std::ostream& out, std::ostream& err) {
  if (argc < 2) {
    err << kUsage;
    return 2;
  }
  const std::string cmd = argv[1];
  std::optional<Options> opt;
  try {
    opt.emplace(Options::parse(argc, argv, 2));
  } catch (const Error& e) {
    err << "error: " << e.what() << "\n";
    return 2;
  }
  return run_command_guarded(cmd, *opt, out, err);
}

}  // namespace nvms
