// The three workloads, their seeded inputs, and the traced attribution.
//
//   fig2-grid      an op is one cell of the Fig. 2 / Table III grid
//                  (run_sweep per app, jobs = min(4, nproc));
//   whatif-replay  an op is one load + replay of an nvmstrace recording;
//   serve-mix      an op is one request to an in-process nvmsimd, sent by
//                  four synchronous closed-loop clients.
//
// A timed run reports the end-to-end metrics.  A traced run walks the
// workload's ops serially with spans around each call into a layer, then
// runs a census that calls every layer the workload did not reach once
// on the workload's own inputs, so each per-layer figure is measured on
// every workload.
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "cli/driver.hpp"
#include "cli/options.hpp"
#include "cli/parse.hpp"
#include "harness/kernel_bench.hpp"
#include "nvms/nvms.hpp"
#include "obs/analyze/profile.hpp"
#include "serve/daemon.hpp"
#include "serve/jsonv.hpp"
#include "serve/request.hpp"

namespace e2e {
namespace {

using nvms::Mode;

/// The Fig. 2 grid's thread axis.
constexpr int kThreadChoices[] = {12, 24, 36, 48};
constexpr Mode kModes[] = {Mode::kDramOnly, Mode::kCachedNvm,
                           Mode::kUncachedNvm};
const char* const kKinds[] = {"run", "explain", "diff", "sweep", "optimize"};
/// Light-numerics apps the serve mix targets.
const char* const kServeTargets[] = {"scalapack", "xsbench", "hypre",
                                     "boxlib", "laghos"};
constexpr int kClients = 4;
constexpr int kDaemonWorkers = 2;
/// Each timed run repeats its set-up this often and reports the median.
constexpr int kSetupReps = 5;
/// Enough ops that at least ten samples lie beyond p90.
constexpr std::size_t kMinOps = 100;

int grid_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

std::string fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, v);
  return buf;
}

// ---------------------------------------------------------------------------
// Seeded inputs

/// The CLI's default run seed; the grid and the recordings use it, so the
/// benchmark's seed changes only what it generates, never the dwarfs' data.
constexpr std::uint64_t kRunSeed = 7;

/// Seed of pass (or client round) `k` of a run.  Every pass gets a fresh
/// seeded order, so a run averages over many orders and two seeds differ
/// only in which orders they draw.
std::uint64_t pass_seed(std::uint64_t seed, std::uint64_t k) {
  return splitmix64(splitmix64(seed) + k);
}

/// The grid itself is fixed by the figure; a pass seed orders the apps
/// (which sweep's fan-out tail and allocations follow which).
std::vector<std::string> grid_inputs(std::uint64_t seed) {
  std::vector<std::string> apps;
  const auto& names = nvms::app_names();
  for (const std::size_t i : seeded_order(names.size(), splitmix64(seed))) {
    apps.push_back(names[i]);
  }
  return apps;
}

nvms::SweepSpec grid_spec(const std::string& app) {
  nvms::SweepSpec spec;
  spec.app = app;
  spec.seed = kRunSeed;
  spec.jobs = grid_jobs();
  return spec;
}

std::string grid_key(const std::string& app) { return "fig2-grid/" + app; }

constexpr double kWhatIfScales[] = {1.0, 2.0};

struct WhatIfConfig {
  const char* name;
  Mode mode;
  double write_mult;  ///< NVM write bandwidth multiplier
};
constexpr WhatIfConfig kWhatIfConfigs[] = {
    {"cached-cal", Mode::kCachedNvm, 1.0},
    {"cached-2xw", Mode::kCachedNvm, 2.0},
    {"uncached-cal", Mode::kUncachedNvm, 1.0},
    {"uncached-2xw", Mode::kUncachedNvm, 2.0},
};

nvms::SystemConfig whatif_system(const WhatIfConfig& c) {
  nvms::SystemConfig s = nvms::SystemConfig::testbed(c.mode);
  s.nvm.write_bw_peak *= c.write_mult;
  s.nvm.combined_bw_peak *= c.write_mult;
  return s;
}

/// Every what-if pass replays the same recordings on the same configs, so
/// each pass is the same work; a pass seed orders its ops.
struct WhatIfInputs {
  /// Recordings in (app, scale) order; the ops index into it.
  struct Rec {
    std::string app;
    double scale = 1.0;
  };
  std::vector<Rec> recs;
  struct Op {
    std::size_t rec = 0;
    std::size_t config = 0;
  };
  std::vector<Op> ops;  ///< seeded pass order
};

WhatIfInputs whatif_inputs(std::uint64_t seed) {
  WhatIfInputs in;
  for (const auto& app : nvms::app_names()) {
    for (const double scale : kWhatIfScales) in.recs.push_back({app, scale});
  }
  const std::size_t n_cfg = std::size(kWhatIfConfigs);
  for (const std::size_t i :
       seeded_order(in.recs.size() * n_cfg, splitmix64(seed ^ 0x5EEDull))) {
    in.ops.push_back({i / n_cfg, i % n_cfg});
  }
  return in;
}

/// Recording configuration: the paper's 36 threads, the CLI's run seed.
nvms::AppConfig whatif_app_config(const WhatIfInputs::Rec& rec) {
  nvms::AppConfig cfg;
  cfg.threads = 36;
  cfg.size_scale = rec.scale;
  cfg.seed = kRunSeed;
  return cfg;
}

std::string whatif_key(const WhatIfInputs::Rec& rec, const WhatIfConfig& c) {
  return "whatif-replay/" + rec.app + "/s" + fmt("%g", rec.scale) + "/" +
         c.name;
}

/// One served request of the mix.  `line` has no client field; with_client
/// adds one per connection.
struct MixRequest {
  std::string kind;
  std::string target;
  std::string line;
  std::string key;  ///< golden key
};

MixRequest make_request(const std::string& kind, const std::string& target) {
  MixRequest r;
  r.kind = kind;
  r.target = target;
  std::string head = "{\"cmd\":\"" + kind + "\",\"target\":\"" + target + "\"";
  std::string args;
  if (kind == "run") {
    args = "\"json\":true,\"resolve-cache\":\"shared\"";
  } else if (kind == "explain") {
    args = "\"resolve-cache\":\"shared\"";
  } else if (kind == "diff") {
    head = "{\"cmd\":\"diff\",\"targets\":[\"" + target + "\",\"" + target +
           "\"]";
    args = "\"mode-a\":\"cached-nvm\",\"mode-b\":\"uncached-nvm\","
           "\"resolve-cache\":\"shared\"";
  } else if (kind == "sweep") {
    args = "\"threads\":\"12,24\",\"jobs\":\"2\",\"csv\":true,"
           "\"resolve-cache\":\"shared\"";
  } else {
    args = "\"budget\":\"35%\"";
  }
  r.line = head + ",\"args\":{" + args + "}}";
  r.key = "serve-mix/" + kind + "/" + target;
  return r;
}

std::string with_client(const std::string& line, int client) {
  return line.substr(0, line.size() - 1) + ",\"client\":\"c" +
         std::to_string(client) + "\"}";
}

/// Seed of one client's shuffle of the mix.
std::uint64_t client_seed(std::uint64_t seed, int client) {
  return splitmix64(seed * 8 + static_cast<std::uint64_t>(client));
}

/// The request mix: every kind against every light-numerics target, CLI
/// defaults otherwise (36 threads; the sweep covers 12 and 24).  Each
/// client sends its own seeded shuffle of it.
std::vector<MixRequest> serve_mix() {
  std::vector<MixRequest> mix;
  for (const char* target : kServeTargets) {
    for (const char* kind : kKinds) mix.push_back(make_request(kind, target));
  }
  return mix;
}

/// The light app the census drives cli/serve/obs probes with.
std::string census_app(std::uint64_t seed) {
  return kServeTargets[seed % std::size(kServeTargets)];
}

// ---------------------------------------------------------------------------
// Library calls shared by the workloads

nvms::PhaseRecording record_app(const std::string& app,
                                const nvms::SystemConfig& sys_cfg,
                                const nvms::AppConfig& cfg) {
  nvms::MemorySystem sys(sys_cfg);
  nvms::TraceCapture capture(sys);
  nvms::AppContext ctx(sys, cfg);
  (void)nvms::lookup_app(app).run(ctx);
  return capture.finish();
}

std::uint64_t replay_digest(const nvms::PhaseRecording& rec,
                            const nvms::SystemConfig& cfg,
                            double* submit_first = nullptr) {
  nvms::MemorySystem sys(cfg);
  if (submit_first != nullptr) {
    *submit_first = -1.0;
    // The observer fires at the top of every submit, so the first call
    // marks where buffer registration ends and the simulator's work
    // begins.
    sys.set_phase_observer([submit_first](const nvms::Phase&) {
      if (*submit_first < 0.0) *submit_first = now_s();
    });
  }
  const double runtime = rec.replay(sys);
  const nvms::HwCounters& c = sys.counters();
  return digest_doubles({runtime, c.instructions, c.cycles_active,
                         c.stall_cycles, c.offcore_wait, c.imc_reads,
                         c.imc_writes});
}

struct CommandOutput {
  int exit = -1;
  std::string out;
};

CommandOutput run_in_process(const std::string& line,
                             nvms::ResolveCache* cache) {
  const nvms::RequestParse p = nvms::parse_request(line);
  if (!p.request) return {};
  const nvms::Options o = nvms::options_from(*p.request);
  std::ostringstream out;
  std::ostringstream err;
  nvms::CommandContext ctx;
  ctx.shared_cache = cache;
  CommandOutput r;
  r.exit = nvms::run_command_guarded(p.request->cmd, o, out, err, &ctx);
  r.out = out.str();
  return r;
}

/// Synchronous line-delimited JSON client over a unix socket.
class Client {
 public:
  explicit Client(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path) {
      close_fd();
      return;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
      close_fd();
    }
  }
  ~Client() { close_fd(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool ok() const { return fd_ >= 0; }

  /// Send one request line and wait for its response line.
  bool call(const std::string& line, std::string* response) {
    const std::string framed = line + "\n";
    std::size_t off = 0;
    while (off < framed.size()) {
      const ssize_t n = ::send(fd_, framed.data() + off, framed.size() - off,
                               MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<std::size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        return false;
      }
    }
    while (true) {
      const std::size_t nl = carry_.find('\n');
      if (nl != std::string::npos) {
        *response = carry_.substr(0, nl);
        carry_.erase(0, nl + 1);
        return true;
      }
      char buf[16384];
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n > 0) {
        carry_.append(buf, static_cast<std::size_t>(n));
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        return false;
      }
    }
  }

 private:
  void close_fd() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }
  int fd_ = -1;
  std::string carry_;
};

/// A served response reduced to what the oracle needs.
struct Response {
  bool ok = false;  ///< executed with exit 0
  std::string out;
};

Response parse_response(const std::string& text) {
  Response r;
  const auto doc = nvms::json_parse(text);
  if (!doc.value || !doc.value->is_object()) return r;
  const nvms::JsonValue* ok = doc.value->find("ok");
  const nvms::JsonValue* exit = doc.value->find("exit");
  const nvms::JsonValue* out = doc.value->find("out");
  r.ok = ok != nullptr && ok->as_bool() && exit != nullptr &&
         exit->as_number() == 0.0;
  if (out != nullptr && out->is_string()) r.out = out->as_string();
  return r;
}

/// An in-process nvmsimd on a unix socket inside the work directory, its
/// IO loop on a thread; stopped and joined on destruction.
class DaemonHost {
 public:
  explicit DaemonHost(const std::string& work_dir)
      : path_(work_dir + "/e2e-" + std::to_string(::getpid()) + "-" +
              std::to_string(next_id_++) + ".sock"),
        daemon_(config(path_)) {}
  ~DaemonHost() {
    daemon_.stop();
    if (io_.joinable()) io_.join();
  }
  DaemonHost(const DaemonHost&) = delete;
  DaemonHost& operator=(const DaemonHost&) = delete;

  bool start(std::string* error) {
    if (!daemon_.start(error)) return false;
    io_ = std::thread([this] { daemon_.run(); });
    return true;
  }
  const std::string& path() const { return path_; }
  nvms::Daemon& daemon() { return daemon_; }

 private:
  static nvms::ServeConfig config(const std::string& path) {
    nvms::ServeConfig cfg;
    cfg.socket_path = path;
    cfg.workers = kDaemonWorkers;
    return cfg;
  }
  static inline int next_id_ = 0;
  std::string path_;
  nvms::Daemon daemon_;
  std::thread io_;
};

/// Sum of the samples whose metric name starts with `prefix` in the
/// daemon's Prometheus exposition.
double prom_value(const std::string& text, const std::string& prefix) {
  double sum = 0.0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, prefix.size(), prefix) != 0) continue;
    sum += std::strtod(line.c_str() + line.rfind(' ') + 1, nullptr);
  }
  return sum;
}

// ---------------------------------------------------------------------------
// Timed-run bookkeeping

/// Peak resident memory per window of the timed region: VmHWM is read,
/// then reset to the current RSS through /proc/self/clear_refs, so each
/// window reports its own peak.  The run reports the smallest window peak:
/// later windows carry residue (allocator arenas, cached thread stacks)
/// whose size depends on thread scheduling, so it differs run to run while
/// the memory one window needs does not.  Where the reset is refused every
/// window sees the process peak.
class RssWindows {
 public:
  RssWindows() { reset(); }
  void sample() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        samples_.push_back(std::strtod(line.c_str() + 6, nullptr) / 1024.0);
      }
    }
    reset();
  }
  double min_mb() const {
    return samples_.empty()
               ? peak_rss_mb()
               : *std::min_element(samples_.begin(), samples_.end());
  }

 private:
  static void reset() { std::ofstream("/proc/self/clear_refs") << "5"; }
  std::vector<double> samples_;
};

/// A timed region: per-op latencies plus per-window throughput and peak
/// memory.  A window is one pass over the workload's ops (one second for
/// the serve loop); the run reports the median window rate, which a burst
/// of interference from other processes on the host moves less than a
/// total.
struct OpLog {
  std::vector<double> latency_s;
  std::vector<double> window_rate;
  RssWindows rss;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Run `pass` until `seconds` are up and at least kMinOps ops ran (or once
/// in quick mode), one window per pass.
template <typename Pass>
double timed_passes(const RunOptions& opt, OpLog& ops, Pass&& pass) {
  const double t0 = now_s();
  std::uint64_t k = 0;
  do {
    const double p0 = now_s();
    const std::uint64_t before = ops.attempted;
    pass(pass_seed(opt.seed, k++));
    ops.window_rate.push_back(static_cast<double>(ops.attempted - before) /
                              (now_s() - p0));
    ops.rss.sample();
  } while (!opt.quick &&
           (now_s() - t0 < opt.seconds || ops.latency_s.size() < kMinOps));
  return now_s() - t0;
}

/// `rate` overrides ops_per_s when positive; otherwise it is the median
/// window rate.
void report_end_to_end(RunResult& res, const OpLog& ops, double elapsed,
                       double setup_s, const std::string& op_name,
                       double rate = 0.0) {
  const std::size_t n = ops.latency_s.size();
  res.attempted += ops.attempted;
  res.failed += ops.failed;
  if (rate <= 0.0) {
    rate = ops.window_rate.empty()
               ? static_cast<double>(ops.attempted) / elapsed
               : median(ops.window_rate);
  }
  res.metrics.set("ops_per_s", rate, "1/s");
  res.metrics.set("op_p50_ms", 1e3 * percentile(ops.latency_s, 50.0), "ms");
  res.metrics.set("op_p90_ms", 1e3 * percentile(ops.latency_s, 90.0), "ms");
  res.metrics.set("setup_s", setup_s, "s");
  res.metrics.set("peak_rss_mb", ops.rss.min_mb(), "MB");
  res.notes.push_back(
      "ops: " + std::to_string(ops.attempted) + " " + op_name + " in " +
      fmt("%.3f", elapsed) + " s, " + std::to_string(ops.window_rate.size()) +
      " windows; failed_ratio " +
      fmt("%.4g", ops.attempted ? static_cast<double>(ops.failed) /
                                      static_cast<double>(ops.attempted)
                                : 0.0));
  res.notes.push_back(
      "op_p90_ms: " + std::to_string(n) + " samples, " +
      std::to_string(samples_beyond(n, 90.0)) +
      " beyond p90; highest percentile with >= 10 beyond: p" +
      fmt("%g", tail_percentile(n)) + " = " +
      fmt("%.4f", 1e3 * percentile(ops.latency_s, tail_percentile(n))) +
      " ms");
}

template <typename Fn>
double median_setup(int reps, Fn&& setup_once) {
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_s();
    setup_once();
    samples.push_back(now_s() - t0);
  }
  return median(samples);
}

// ---------------------------------------------------------------------------
// Traced attribution

/// The traced run's state: the span log plus the per-layer accumulators
/// its probes fill.
class Tracer {
 public:
  Tracer(Oracle& oracle, std::string work_dir)
      : oracle_(oracle), work_dir_(std::move(work_dir)) {}

  SpanLog log;

  /// One app run with its recording captured (the steps of run_app_on
  /// plus a TraceCapture), then the recording round-tripped through text
  /// and replayed on the same configuration.  The replay's submit time is
  /// the simulator's share of the run; the rest is the dwarf's numerics.
  nvms::PhaseRecording cell(const std::string& app,
                            const nvms::SystemConfig& sys_cfg,
                            const nvms::AppConfig& cfg) {
    nvms::PhaseRecording rec;
    int run_span = 0;
    {
      SpanLog::Scope s(log, Layer::kDwarfs, app);
      run_span = s.index();
      rec = record_app(app, sys_cfg, cfg);
    }
    const double submit = roundtrip(rec, sys_cfg, app);
    const double run = duration(run_span);
    const double moved = std::min(submit, run);
    log.reassign(run_span, Layer::kMemsim, moved);
    dwarfs_self_[app] += run - moved;
    if (sys_cfg.mode == Mode::kUncachedNvm && cfg.size_scale == 1.0 &&
        !census_rec_) {
      census_rec_ = rec;
    }
    return rec;
  }

  /// save -> load -> replay; returns the replay's submit seconds.
  double roundtrip(const nvms::PhaseRecording& rec,
                   const nvms::SystemConfig& sys_cfg, const std::string& app) {
    SpanLog::Scope s(log, Layer::kReplay, "roundtrip");
    const std::string text = rec.save();
    nvms::PhaseRecording loaded;
    {
      SpanLog::Scope l(log, Layer::kReplay, "load");
      loaded = nvms::PhaseRecording::load(text);
    }
    load_bytes_ += text.size();
    return replay(loaded, sys_cfg, app, s.index(), nullptr);
  }

  /// Replay under span `parent`; the submit interval becomes a memsim
  /// child span.  Stores the output digest in *digest when non-null.
  double replay(const nvms::PhaseRecording& rec,
                const nvms::SystemConfig& sys_cfg, const std::string& app,
                int parent, std::uint64_t* digest) {
    double first = -1.0;
    const std::uint64_t d = replay_digest(rec, sys_cfg, &first);
    const double end = now_s();
    if (digest != nullptr) *digest = d;
    if (first < 0.0) return 0.0;
    const std::string mode = nvms::to_string(sys_cfg.mode);
    log.add(parent, Layer::kMemsim, mode + "/" + app, first, end);
    const double submit = end - first;
    submit_by_mode_[mode] += submit;
    if (sys_cfg.mode == Mode::kCachedNvm) {
      cached_by_app_[app] += submit;
      if (submit > largest_cached_s_) {
        largest_cached_s_ = submit;
        largest_cached_ = {rec, sys_cfg};
      }
    }
    phases_ += rec.phases.size();
    sim_bytes_ += static_cast<double>(rec.total_bytes());
    return submit;
  }

  /// Telemetry capture, attribution and rendering on one app run.
  void obs(const std::string& app, const nvms::SystemConfig& sys_cfg,
           const nvms::AppConfig& cfg) {
    int plain = 0;
    {
      SpanLog::Scope s(log, Layer::kDwarfs, app + "/plain");
      plain = s.index();
      (void)nvms::run_app_on(app, sys_cfg, cfg);
    }
    nvms::Telemetry telemetry;
    int capture = 0;
    {
      SpanLog::Scope s(log, Layer::kObs, "capture");
      capture = s.index();
      (void)nvms::run_app_on(app, sys_cfg, cfg, &telemetry);
    }
    // The same run without telemetry is the part that is not capture.
    const double base = std::min(duration(plain), duration(capture));
    log.reassign(capture, Layer::kDwarfs, base);
    plain_run_s_ += duration(plain);
    nvms::RunProfile profile;
    {
      SpanLog::Scope s(log, Layer::kObs, "analyze");
      profile = nvms::build_run_profile(
          telemetry, nvms::analyze_context(sys_cfg, app));
    }
    SpanLog::Scope s(log, Layer::kObs, "render");
    (void)nvms::render_run_profile(profile);
    (void)nvms::run_profile_json(profile).dump(2);
    (void)nvms::chrome_trace_json(telemetry, app);
    (void)nvms::metrics_csv(telemetry, app);
  }

  /// Trace-driven placement on one recording (CLI defaults: 35% budget).
  void placement(const nvms::PhaseRecording& rec) {
    const nvms::SystemConfig sys_cfg =
        nvms::SystemConfig::testbed(Mode::kUncachedNvm);
    std::string why;
    const auto budget =
        nvms::parse_budget_spec("35%", sys_cfg.dram.capacity, &why);
    SpanLog::Scope s(log, Layer::kPlacement, "optimize");
    const auto r = nvms::optimize_placement(
        rec, budget.value_or(0),
        [&sys_cfg] { return nvms::MemorySystem(sys_cfg); });
    evals_ += r.stats.evals;
    phase_hits_ += r.stats.phase_cache.hits;
    phase_lookups_ += r.stats.phase_cache.hits + r.stats.phase_cache.misses;
  }

  /// One request through run_command in-process against the shared cache.
  /// A `warm` call fills the cache and is not counted as service time.
  void cli(const MixRequest& req, bool warm) {
    CommandOutput r;
    int span = 0;
    {
      SpanLog::Scope s(log, Layer::kCli, warm ? "warm" : req.kind);
      span = s.index();
      r = run_in_process(req.line, &cli_cache_);
    }
    const double ms = 1e3 * duration(span);
    if (!warm) {
      cli_ms_[req.kind].push_back(ms);
      service_ms_[req.line] = ms;
    }
    check(req.key, r.exit == 0, fnv1a(r.out));
  }

  /// Round trips of `reqs` through one connection to `host`, each checked
  /// against the golden digest its in-process run must also match.
  void serve(DaemonHost& host, const std::vector<MixRequest>& reqs,
             bool warm) {
    Client client(host.path());
    for (const MixRequest& req : reqs) {
      std::string text;
      bool sent = false;
      int span = 0;
      {
        SpanLog::Scope s(log, Layer::kServe, warm ? "warm" : req.kind);
        span = s.index();
        sent = client.ok() && client.call(with_client(req.line, 0), &text);
      }
      const double ms = 1e3 * duration(span);
      const Response r = parse_response(text);
      check(req.key, sent && r.ok, fnv1a(r.out));
      if (warm) continue;
      ++served_;
      served_s_ += ms / 1e3;
      const auto it = service_ms_.find(req.line);
      if (it != service_ms_.end()) overhead_ms_.push_back(ms - it->second);
    }
    if (!warm) metrics_text_ = host.daemon().metrics_text();
  }

  /// Fill every layer the workload's own pass did not reach.
  void census(std::uint64_t seed) {
    const std::string app = census_app(seed);
    const std::vector<MixRequest> mix = serve_mix();
    std::vector<MixRequest> reqs;
    for (const auto& r : mix) {
      if (r.target == app) reqs.push_back(r);
    }
    nvms::AppConfig cfg;
    cfg.threads = kThreadChoices[0];
    cfg.seed = kRunSeed;
    for (const auto& a : nvms::app_names()) {
      if (!cached_by_app_.count(a) || !dwarfs_self_.count(a)) {
        (void)cell(a, nvms::SystemConfig::testbed(Mode::kCachedNvm), cfg);
      }
    }
    if (!census_rec_) {
      (void)cell(app, nvms::SystemConfig::testbed(Mode::kUncachedNvm), cfg);
    }
    for (const Mode m : kModes) {
      if (!submit_by_mode_.count(nvms::to_string(m))) {
        SpanLog::Scope s(log, Layer::kReplay, "census");
        (void)replay(*census_rec_, nvms::SystemConfig::testbed(m), app,
                     s.index(), nullptr);
      }
    }
    if (log.count(Layer::kObs) == 0) {
      obs(app, nvms::SystemConfig::testbed(Mode::kUncachedNvm), cfg);
    }
    if (log.count(Layer::kPlacement) == 0) placement(*census_rec_);
    bool need_cli = false;
    for (const char* kind : kKinds) need_cli |= !cli_ms_.count(kind);
    if (need_cli) {
      for (const auto& r : reqs) cli(r, /*warm=*/true);
      for (const auto& r : reqs) cli(r, /*warm=*/false);
    }
    if (served_ == 0) {
      std::optional<DaemonHost> host;
      {
        SpanLog::Scope s(log, Layer::kServe, "start");
        host.emplace(work_dir_);
        std::string error;
        if (!host->start(&error)) {
          failed_ += 1;
          return;
        }
      }
      serve(*host, reqs, /*warm=*/true);
      serve(*host, reqs, /*warm=*/false);
      SpanLog::Scope s(log, Layer::kServe, "stop");
      host.reset();
    }
  }

  /// Lanes-1 over lanes-4 wall time of the largest cached replay seen.
  double intra_speedup() const {
    if (!largest_cached_) return 0.0;
    std::vector<double> t1;
    std::vector<double> t4;
    for (int rep = 0; rep < 3; ++rep) {
      for (const int lanes : {1, 4}) {
        nvms::SystemConfig cfg = largest_cached_->second;
        cfg.intra_jobs = lanes;
        const double t0 = now_s();
        (void)replay_digest(largest_cached_->first, cfg);
        (lanes == 1 ? t1 : t4).push_back(now_s() - t0);
      }
    }
    return median(t1) / median(t4);
  }

  void check(const std::string& key, bool ok, std::uint64_t digest) {
    ++attempted_;
    if (!oracle_.check(key, digest) || !ok) ++failed_;
  }

  /// Every per-layer metric, in catalogue order.
  void report(RunResult& res, const nvms::ExecutorStats& harness,
              double traced_rate, double untraced_rate) const {
    MetricSet& m = res.metrics;
    auto get = [](const std::map<std::string, double>& from,
                  const std::string& k) {
      const auto it = from.find(k);
      return it == from.end() ? 0.0 : it->second;
    };
    for (const auto& app : nvms::app_names()) {
      m.set("dwarfs." + app + ".self_s", get(dwarfs_self_, app), "s");
    }
    double submit_total = 0.0;
    for (const Mode mode : kModes) {
      const double s = get(submit_by_mode_, nvms::to_string(mode));
      submit_total += s;
      m.set(std::string("memsim.") + nvms::to_string(mode) + ".submit_s", s,
            "s");
    }
    for (const auto& app : nvms::app_names()) {
      m.set("memsim.cached." + app + ".submit_s", get(cached_by_app_, app),
            "s");
    }
    m.set("memsim.phases", static_cast<double>(phases_), "count");
    m.set("memsim.ns_per_phase",
          phases_ ? 1e9 * submit_total / static_cast<double>(phases_) : 0.0,
          "ns");
    m.set("memsim.sim_gb_per_s",
          submit_total > 0.0 ? sim_bytes_ / submit_total / 1e9 : 0.0, "GB/s");
    m.set("memsim.intra_w4_speedup", intra_speedup(), "x");
    m.set("replay.load_s", log.total(Layer::kReplay, "load"), "s");
    m.set("replay.load_bytes", static_cast<double>(load_bytes_), "bytes");
    m.set("harness.batch_wall_s", harness.batch_wall_s, "s");
    m.set("harness.task_s", harness.total_task_s(), "s");
    double wait = 0.0;
    for (const auto& t : harness.tasks) wait += t.queue_wait_s;
    m.set("harness.queue_wait_s", wait, "s");
    m.set("harness.worker_utilization", harness.worker_utilization(),
          "ratio");
    m.set("harness.skipped", static_cast<double>(harness.skipped()), "count");
    const nvms::ResolveCacheStats rc = cli_cache_.stats();
    m.set("resolve_cache.hit_rate", rc.hit_rate(), "ratio");
    m.set("stream_memo.hit_rate", cli_cache_.stream_stats().hit_rate(),
          "ratio");
    m.set("resolve_cache.entries", static_cast<double>(rc.entries), "count");
    m.set("resolve_cache.evictions", static_cast<double>(rc.evictions),
          "count");
    m.set("obs.capture_s",
          log.total(Layer::kObs, "capture") - plain_run_s_, "s");
    m.set("obs.analyze_s", log.total(Layer::kObs, "analyze"), "s");
    m.set("obs.render_s", log.total(Layer::kObs, "render"), "s");
    m.set("placement.optimize_s", log.total(Layer::kPlacement), "s");
    m.set("placement.evals", static_cast<double>(evals_), "count");
    m.set("placement.phase_cache_hit_rate",
          phase_lookups_ ? static_cast<double>(phase_hits_) /
                               static_cast<double>(phase_lookups_)
                         : 0.0,
          "ratio");
    for (const char* kind : kKinds) {
      const auto it = cli_ms_.find(kind);
      m.set(std::string("cli.") + kind + ".service_ms",
            it == cli_ms_.end() ? 0.0 : median(it->second), "ms");
    }
    auto mean_of = [this](const std::string& name) {
      const double n = prom_value(metrics_text_, name + "_count");
      return n > 0.0 ? prom_value(metrics_text_, name + "_sum") / n : 0.0;
    };
    m.set("serve.wait_admission_ms", mean_of("nvms_serve_wait_admission_ms"),
          "ms");
    m.set("serve.wait_execution_ms", mean_of("nvms_serve_wait_execution_ms"),
          "ms");
    m.set("serve.overhead_ms", median(overhead_ms_), "ms");
    m.set("serve.rejected", prom_value(metrics_text_, "nvms_serve_rejected_"),
          "count");

    const auto self = log.layer_self();
    double sum = 0.0;
    for (const auto& [layer, s] : self) {
      sum += s;
      if (layer != Layer::kRoot) {
        m.set(std::string("layer.") + layer_name(layer) + ".self_s", s, "s");
      }
    }
    const double wall = log.wall();
    m.set("other.self_s", self.at(Layer::kRoot), "s");
    m.set("traced.wall_s", wall, "s");
    const double gap = wall > 0.0 ? std::abs(sum - wall) / wall : 1.0;
    m.set("accounting.gap_ratio", gap, "ratio");
    m.set("tracing.overhead_ratio",
          untraced_rate > 0.0 ? traced_rate / untraced_rate : 0.0, "ratio");

    res.attempted += attempted_;
    res.failed += failed_;
    res.notes.push_back("accounting: layers + other = " + fmt("%.4f", sum) +
                        " s of traced wall " + fmt("%.4f", wall) +
                        " s (gap " + fmt("%.2f%%", 100.0 * gap) + ")");
    if (gap > 0.03) {
      res.correct = false;
      res.notes.push_back("accounting: gap above 3%");
    }
  }

  double served_seconds() const { return served_s_; }
  std::size_t served() const { return served_; }

 private:
  double duration(int span) const {
    return log.spans()[static_cast<std::size_t>(span)].duration();
  }

  Oracle& oracle_;
  std::string work_dir_;
  std::map<std::string, double> dwarfs_self_;
  std::map<std::string, double> submit_by_mode_;
  std::map<std::string, double> cached_by_app_;
  std::uint64_t phases_ = 0;
  double sim_bytes_ = 0.0;
  std::uint64_t load_bytes_ = 0;
  std::optional<nvms::PhaseRecording> census_rec_;
  std::optional<std::pair<nvms::PhaseRecording, nvms::SystemConfig>>
      largest_cached_;
  double largest_cached_s_ = 0.0;
  double plain_run_s_ = 0.0;  ///< obs(): the runs without telemetry
  std::uint64_t evals_ = 0;
  std::uint64_t phase_hits_ = 0;
  std::uint64_t phase_lookups_ = 0;
  nvms::ResolveCache cli_cache_;
  std::map<std::string, std::vector<double>> cli_ms_;
  std::map<std::string, double> service_ms_;
  std::vector<double> overhead_ms_;
  std::size_t served_ = 0;
  double served_s_ = 0.0;
  std::string metrics_text_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Executor statistics of one run_sweep over the census app's default grid
/// (the harness probe of the workloads that do not sweep).
nvms::ExecutorStats harness_probe(std::uint64_t seed) {
  return nvms::run_sweep(grid_spec(census_app(seed))).stats;
}

// ---------------------------------------------------------------------------
// fig2-grid

/// One pass over the grid: a run_sweep per app, each CSV checked.
void grid_pass(const std::vector<std::string>& apps, Oracle& oracle,
               OpLog& ops, nvms::ExecutorStats* total) {
  constexpr std::size_t cells = std::size(kModes) * std::size(kThreadChoices);
  for (const auto& app : apps) {
    try {
      const nvms::SweepResult r = nvms::run_sweep(grid_spec(app));
      const bool ok = oracle.check(grid_key(app), fnv1a(nvms::sweep_csv(r)));
      for (const auto& t : r.stats.tasks) ops.latency_s.push_back(t.wall_s);
      ops.attempted += r.stats.tasks.size();
      if (!ok) {
        ops.failed += r.stats.tasks.size();
      } else {
        ops.failed += r.stats.skipped();
      }
      if (total != nullptr) {
        total->jobs = r.stats.jobs;
        total->batch_wall_s += r.stats.batch_wall_s;
        total->tasks.insert(total->tasks.end(), r.stats.tasks.begin(),
                            r.stats.tasks.end());
      }
    } catch (const std::exception&) {
      ops.attempted += cells;
      ops.failed += cells;
    }
  }
}

/// Set-up after registry init: one small cell per app, so each dwarf's
/// code and allocator state are warm before the timed region.
void grid_warmup() {
  nvms::init_registry();
  for (const auto& app : nvms::app_names()) {
    nvms::AppConfig cfg;
    cfg.threads = kThreadChoices[0];
    (void)nvms::run_app_on(app, nvms::SystemConfig::testbed(Mode::kDramOnly),
                           cfg);
  }
}

RunResult run_fig2(const RunOptions& opt, Oracle& oracle) {
  RunResult res;
  const double setup_s =
      median_setup(opt.quick ? 1 : kSetupReps, [] { grid_warmup(); });

  if (!opt.trace) {
    OpLog ops;
    const double elapsed = timed_passes(opt, ops, [&](std::uint64_t seed) {
      grid_pass(grid_inputs(seed), oracle, ops, nullptr);
    });
    report_end_to_end(res, ops, elapsed, setup_s, "grid cells");
    return res;
  }

  // Harness probe and untraced reference rate: one untraced pass.
  const std::vector<std::string> apps = grid_inputs(pass_seed(opt.seed, 0));
  OpLog untraced;
  nvms::ExecutorStats harness;
  const double u0 = now_s();
  grid_pass(apps, oracle, untraced, &harness);
  const double untraced_rate =
      static_cast<double>(untraced.attempted) / (now_s() - u0);
  res.attempted += untraced.attempted;
  res.failed += untraced.failed;

  Tracer tr(oracle, opt.work_dir);
  double traced_rate = 0.0;
  {
    SpanLog::Scope root(tr.log, Layer::kRoot, "fig2-grid");
    const double p0 = now_s();
    std::size_t cells = 0;
    for (const auto& app : apps) {
      std::size_t index = 0;
      for (const Mode mode : kModes) {
        for (const int threads : kThreadChoices) {
          nvms::SystemConfig sys = nvms::SystemConfig::testbed(mode);
          nvms::AppConfig cfg;
          cfg.threads = threads;
          cfg.seed = nvms::derive_task_seed(kRunSeed, index++);
          (void)tr.cell(app, sys, cfg);
          ++cells;
        }
      }
    }
    traced_rate = static_cast<double>(cells) / (now_s() - p0);
    tr.census(opt.seed);
  }
  tr.report(res, harness, traced_rate, untraced_rate);
  return res;
}

// ---------------------------------------------------------------------------
// whatif-replay

struct WhatIfState {
  WhatIfInputs in;
  std::vector<std::string> texts;  ///< nvmstrace v1 text per recording
};

void whatif_record(WhatIfState& st) {
  st.texts.clear();
  const nvms::SystemConfig rec_sys =
      nvms::SystemConfig::testbed(Mode::kUncachedNvm);
  for (const auto& r : st.in.recs) {
    st.texts.push_back(
        record_app(r.app, rec_sys, whatif_app_config(r)).save());
  }
}

/// One op: load the recording's text and replay it on a fresh system.
bool whatif_op(const WhatIfState& st, const WhatIfInputs::Op& op,
               Oracle& oracle) {
  const WhatIfConfig& c = kWhatIfConfigs[op.config];
  const auto rec = nvms::PhaseRecording::load(st.texts[op.rec]);
  return oracle.check(whatif_key(st.in.recs[op.rec], c),
                      replay_digest(rec, whatif_system(c)));
}

/// Index of `op` among the pass's distinct ops (recording x config).
std::size_t whatif_op_index(const WhatIfInputs::Op& op) {
  return op.rec * std::size(kWhatIfConfigs) + op.config;
}

/// Runs `order` serially.  When `best_s` is given, each op's fastest
/// latency so far is kept at whatif_op_index(op).
void whatif_pass(const WhatIfState& st,
                 const std::vector<WhatIfInputs::Op>& order, Oracle& oracle,
                 OpLog& ops, std::vector<double>* best_s = nullptr) {
  for (const auto& op : order) {
    const double t0 = now_s();
    bool ok = false;
    try {
      ok = whatif_op(st, op, oracle);
    } catch (const std::exception&) {
      ok = false;
    }
    const double latency = now_s() - t0;
    ops.latency_s.push_back(latency);
    ++ops.attempted;
    if (!ok) ++ops.failed;
    if (best_s != nullptr) {
      double& best = (*best_s)[whatif_op_index(op)];
      best = std::min(best, latency);
    }
  }
}

/// Ops per second of a pass in which every op takes its fastest latency of
/// the run.  The ops repeat exactly, so an op's repeats differ only in what
/// the host did meanwhile: on a shared host the simulator's branchy code
/// runs up to 2x slower while other tenants are busy, for minutes at a
/// time, and an op's fastest repeat is the figure that stays put.
double best_pass_rate(const std::vector<double>& best_s) {
  double sum = 0.0;
  for (const double b : best_s) sum += b;
  return sum > 0.0 ? static_cast<double>(best_s.size()) / sum : 0.0;
}

RunResult run_whatif(const RunOptions& opt, Oracle& oracle) {
  RunResult res;
  WhatIfState st;
  const double setup_s = median_setup(opt.quick ? 1 : kSetupReps, [&] {
    st.in = whatif_inputs(pass_seed(opt.seed, 0));
    whatif_record(st);
  });

  if (!opt.trace) {
    OpLog ops;
    std::vector<double> best_s(st.in.ops.size(),
                               std::numeric_limits<double>::infinity());
    const double elapsed = timed_passes(opt, ops, [&](std::uint64_t seed) {
      whatif_pass(st, whatif_inputs(seed).ops, oracle, ops, &best_s);
    });
    report_end_to_end(res, ops, elapsed, setup_s, "replays",
                      best_pass_rate(best_s));
    res.notes.push_back("ops_per_s: " + std::to_string(best_s.size()) +
                        " distinct replays at their fastest of " +
                        std::to_string(ops.window_rate.size()) + " passes");
    return res;
  }

  OpLog untraced;
  const double u0 = now_s();
  whatif_pass(st, st.in.ops, oracle, untraced);
  const double untraced_rate =
      static_cast<double>(untraced.attempted) / (now_s() - u0);
  res.attempted += untraced.attempted;
  res.failed += untraced.failed;
  const nvms::ExecutorStats harness = harness_probe(opt.seed);

  Tracer tr(oracle, opt.work_dir);
  // Set-up's recordings, attributed outside the traced wall time: this is
  // where the dwarfs work, and it moves setup_s only.
  const nvms::SystemConfig rec_sys =
      nvms::SystemConfig::testbed(Mode::kUncachedNvm);
  for (const auto& r : st.in.recs) {
    (void)tr.cell(r.app, rec_sys, whatif_app_config(r));
  }
  double traced_rate = 0.0;
  {
    SpanLog::Scope root(tr.log, Layer::kRoot, "whatif-replay");
    const double p0 = now_s();
    for (const auto& op : st.in.ops) {
      const WhatIfConfig& c = kWhatIfConfigs[op.config];
      const auto& r = st.in.recs[op.rec];
      SpanLog::Scope s(tr.log, Layer::kReplay, "op");
      nvms::PhaseRecording rec;
      {
        SpanLog::Scope l(tr.log, Layer::kReplay, "load");
        rec = nvms::PhaseRecording::load(st.texts[op.rec]);
      }
      std::uint64_t digest = 0;
      (void)tr.replay(rec, whatif_system(c), r.app, s.index(), &digest);
      tr.check(whatif_key(r, c), true, digest);
    }
    traced_rate = static_cast<double>(st.in.ops.size()) / (now_s() - p0);
    tr.census(opt.seed);
  }
  tr.report(res, harness, traced_rate, untraced_rate);
  return res;
}

// ---------------------------------------------------------------------------
// serve-mix

/// What one client saw for one request (checked after the clients join).
struct Sample {
  std::size_t request = 0;
  double latency_s = 0.0;
  double done_s = 0.0;  ///< completion time
  bool ok = false;
  std::uint64_t digest = 0;
};

/// One client's closed loop: send a fresh seeded shuffle of the mix each
/// round, one request in flight, until `deadline` (or one round when
/// deadline < 0).
std::vector<Sample> client_loop(const std::string& path,
                                const std::vector<MixRequest>& mix,
                                int client, std::uint64_t seed,
                                double deadline) {
  std::vector<Sample> samples;
  Client c(path);
  std::vector<std::string> lines;
  for (const auto& r : mix) lines.push_back(with_client(r.line, client));
  std::uint64_t round = 0;
  do {
    for (const std::size_t i :
         seeded_order(mix.size(), pass_seed(client_seed(seed, client),
                                            round++))) {
      Sample s;
      s.request = i;
      const double t0 = now_s();
      std::string text;
      const bool sent = c.ok() && c.call(lines[i], &text);
      s.done_s = now_s();
      s.latency_s = s.done_s - t0;
      const Response r = parse_response(text);
      s.ok = sent && r.ok;
      s.digest = fnv1a(r.out);
      samples.push_back(s);
      if (deadline >= 0.0 && now_s() >= deadline) break;
    }
  } while (deadline >= 0.0 && now_s() < deadline);
  return samples;
}

/// Serial pass of the whole mix through one connection (set-up warm-up
/// and the traced run's untraced reference); returns the failed count.
std::uint64_t serve_serial(const std::string& path,
                           const std::vector<MixRequest>& mix,
                           Oracle& oracle) {
  std::uint64_t failed = 0;
  for (const Sample& s : client_loop(path, mix, 0, 0, -1.0)) {
    if (!s.ok || !oracle.check(mix[s.request].key, s.digest)) ++failed;
  }
  return failed;
}

RunResult run_serve(const RunOptions& opt, Oracle& oracle) {
  RunResult res;
  const std::vector<MixRequest> mix = serve_mix();
  std::optional<DaemonHost> host;
  bool setup_ok = true;
  const double setup_s = median_setup(opt.quick ? 1 : kSetupReps, [&] {
    host.reset();
    host.emplace(opt.work_dir);
    std::string error;
    if (!host->start(&error)) {
      res.notes.push_back("serve-mix: daemon failed to start: " + error);
      setup_ok = false;
      return;
    }
    setup_ok &= serve_serial(host->path(), mix, oracle) == 0;
  });
  if (!setup_ok) {
    res.correct = false;
    res.notes.push_back("serve-mix: set-up warm-up failed its oracle");
  }

  if (!opt.trace) {
    OpLog ops;
    const double t0 = now_s();
    const double deadline = opt.quick ? -1.0 : t0 + opt.seconds;
    std::vector<std::vector<Sample>> per_client(kClients);
    {
      std::atomic<int> running{kClients};
      std::vector<std::thread> clients;
      for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
          per_client[static_cast<std::size_t>(c)] =
              client_loop(host->path(), mix, c, opt.seed, deadline);
          --running;
        });
      }
      // One memory window per second while the clients run.
      double next = t0 + 1.0;
      while (running > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        if (now_s() >= next) {
          ops.rss.sample();
          next += 1.0;
        }
      }
      for (auto& t : clients) t.join();
    }
    const double elapsed = now_s() - t0;
    // Completion rate within each whole one-second window of the timed
    // region, measured between the window's first and last completion.
    const auto windows = static_cast<std::size_t>(elapsed);
    std::vector<std::vector<double>> done(windows);
    for (const auto& samples : per_client) {
      for (const Sample& s : samples) {
        const auto w = static_cast<std::size_t>(s.done_s - t0);
        if (w < windows) done[w].push_back(s.done_s);
      }
    }
    for (auto& times : done) {
      if (times.size() < 2) continue;
      const auto [lo, hi] = std::minmax_element(times.begin(), times.end());
      ops.window_rate.push_back(static_cast<double>(times.size() - 1) /
                                (*hi - *lo));
    }
    const std::string metrics = host->daemon().metrics_text();
    host.reset();
    for (const auto& samples : per_client) {
      for (const Sample& s : samples) {
        ops.latency_s.push_back(s.latency_s);
        ++ops.attempted;
        if (!s.ok || !oracle.check(mix[s.request].key, s.digest)) {
          ++ops.failed;
        }
      }
    }
    // The served bytes must also equal in-process run_command stdout.
    nvms::ResolveCache cache;
    for (const MixRequest& r : mix) {
      const CommandOutput local = run_in_process(r.line, &cache);
      if (local.exit != 0 || !oracle.check(r.key, fnv1a(local.out))) {
        res.correct = false;
        res.notes.push_back("serve-mix: in-process mismatch for " + r.key);
      }
    }
    res.notes.push_back(
        "serve-mix: closed loop, " + std::to_string(kClients) +
        " clients, " + std::to_string(kDaemonWorkers) + " workers, " +
        fmt("%.0f", prom_value(metrics, "nvms_serve_rejected_")) +
        " rejected");
    report_end_to_end(res, ops, elapsed, setup_s, "requests");
    return res;
  }

  // Untraced reference: one serial pass on the warm daemon.
  const double u0 = now_s();
  res.failed += serve_serial(host->path(), mix, oracle);
  res.attempted += mix.size();
  const double untraced_rate =
      static_cast<double>(mix.size()) / (now_s() - u0);
  const nvms::ExecutorStats harness = harness_probe(opt.seed);

  Tracer tr(oracle, opt.work_dir);
  double traced_rate = 0.0;
  {
    SpanLog::Scope root(tr.log, Layer::kRoot, "serve-mix");
    for (const char* target : kServeTargets) {
      nvms::AppConfig cfg;  // the mix's CLI defaults: 36 threads
      cfg.seed = kRunSeed;
      const auto rec = tr.cell(
          target, nvms::SystemConfig::testbed(Mode::kUncachedNvm), cfg);
      (void)tr.cell(target, nvms::SystemConfig::testbed(Mode::kCachedNvm),
                    cfg);
      tr.obs(target, nvms::SystemConfig::testbed(Mode::kUncachedNvm), cfg);
      tr.placement(rec);
    }
    for (const auto& r : mix) tr.cli(r, /*warm=*/true);
    for (const auto& r : mix) tr.cli(r, /*warm=*/false);
    tr.serve(*host, mix, /*warm=*/false);
    traced_rate = static_cast<double>(tr.served()) / tr.served_seconds();
    tr.census(opt.seed);
  }
  host.reset();
  tr.report(res, harness, traced_rate, untraced_rate);
  return res;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"fig2-grid", "whatif-replay",
                                                 "serve-mix"};
  return names;
}

std::string input_fingerprint(const std::string& workload,
                              std::uint64_t seed) {
  std::string fp;
  if (workload == "fig2-grid") {
    for (const auto& a : grid_inputs(pass_seed(seed, 0))) fp += " " + a;
  } else if (workload == "whatif-replay") {
    for (const auto& op : whatif_inputs(pass_seed(seed, 0)).ops) {
      fp += " " + std::to_string(op.rec) + ":" + std::to_string(op.config);
    }
  } else {
    for (int c = 0; c < kClients; ++c) {
      for (const std::size_t i :
           seeded_order(serve_mix().size(),
                        pass_seed(client_seed(seed, c), 0))) {
        fp += " " + std::to_string(i);
      }
    }
  }
  return fp;
}

RunResult run_workload(const RunOptions& opt, Oracle& oracle) {
  std::filesystem::create_directories(opt.work_dir);
  if (opt.workload == "fig2-grid") return run_fig2(opt, oracle);
  if (opt.workload == "whatif-replay") return run_whatif(opt, oracle);
  if (opt.workload == "serve-mix") return run_serve(opt, oracle);
  RunResult bad;
  bad.correct = false;
  bad.notes.push_back("unknown workload '" + opt.workload + "'");
  return bad;
}

void record_golden(Oracle& oracle) {
  oracle.start_recording();
  OpLog ops;
  grid_pass(nvms::app_names(), oracle, ops, nullptr);
  WhatIfState st;
  st.in = whatif_inputs(0);
  whatif_record(st);
  for (std::size_t rec = 0; rec < st.in.recs.size(); ++rec) {
    for (std::size_t c = 0; c < std::size(kWhatIfConfigs); ++c) {
      (void)whatif_op(st, {rec, c}, oracle);
    }
  }
  nvms::ResolveCache cache;
  for (const MixRequest& r : serve_mix()) {
    const CommandOutput local = run_in_process(r.line, &cache);
    if (local.exit == 0) (void)oracle.check(r.key, fnv1a(local.out));
  }
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace e2e
