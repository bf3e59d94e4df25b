// NVMS_LINT(allow-file: DET-002, load generator measures real request latency)
//
// bench_serve_load: load-generate nvmsimd with concurrent synthetic
// clients and record BENCH_serve.json — the service-layer perf snapshot
// CI compares with tools/bench-snapshot (generic gate.*/parity.* schema,
// same machine normalization as BENCH_epoch/BENCH_sweep: work per
// calibrated spin-unit, never raw seconds).
//
// Default: 1000 concurrent clients x 2 requests each against an
// in-process daemon on a unix socket, every request the same warm-cache
// query (`run stream --mode cached-nvm --resolve-cache shared --json`) so
// the process-lifetime shared stream memo demonstrates its point: the
// gate requires a warm stream-memo hit rate above 80%.  --quick drops to
// 128 clients for smoke use.  Latency percentiles (p50/p99) and
// saturation throughput are recorded; throughput is gated per
// calibration unit.
//
// Parity flags (required unconditionally by the compare gate):
//   responses_match_cli        daemon "out" bytes == one-shot CLI stdout
//   malformed_structured_errors  a fuzz batch of garbage requests all got
//                              structured error responses (zero crashes,
//                              zero hangs, daemon still answers after)
//   clean_shutdown             a `shutdown` request stopped the IO loop
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/driver.hpp"
#include "harness/kernel_bench.hpp"
#include "serve/daemon.hpp"
#include "serve/jsonv.hpp"
#include "simcore/json.hpp"

namespace {

using namespace nvms;
using Clock = std::chrono::steady_clock;

constexpr int kSchemaVersion = 1;

// ---------------------------------------------------------------------------
// Minimal synchronous JSONL client over a unix socket.

class Client {
 public:
  explicit Client(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool ok() const { return fd_ >= 0; }

  bool send_line(const std::string& line) {
    const std::string framed = line + "\n";
    std::size_t off = 0;
    while (off < framed.size()) {
      const ssize_t n = ::send(fd_, framed.data() + off, framed.size() - off,
                               MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    return true;
  }

  bool recv_line(std::string* line) {
    while (true) {
      const std::size_t nl = carry_.find('\n');
      if (nl != std::string::npos) {
        *line = carry_.substr(0, nl);
        carry_.erase(0, nl + 1);
        return true;
      }
      char buf[16384];
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n > 0) {
        carry_.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
  }

 private:
  int fd_ = -1;
  std::string carry_;
};

/// One-shot CLI stdout for the same query (the byte-identity oracle).
std::string cli_stdout(const std::vector<std::string>& args) {
  std::vector<std::string> full = {"nvmsim"};
  full.insert(full.end(), args.begin(), args.end());
  std::vector<std::vector<char>> storage;
  std::vector<char*> argv;
  for (const auto& a : full) {
    storage.emplace_back(a.begin(), a.end());
    storage.back().push_back('\0');
    argv.push_back(storage.back().data());
  }
  std::ostringstream out, err;
  (void)cli_main(static_cast<int>(argv.size()), argv.data(), out, err);
  return out.str();
}

/// Extract a response string field; "" when absent / response malformed.
std::string field_of(const std::string& response, const char* key) {
  const auto doc = json_parse(response);
  if (!doc.value) return "";
  const JsonValue* f = doc.value->find(key);
  return f != nullptr && f->is_string() ? f->as_string() : "";
}

// ---------------------------------------------------------------------------
// Phases

bool check_byte_identity(const std::string& socket_path) {
  Client c(socket_path);
  if (!c.ok()) return false;
  struct Pair {
    const char* request;
    std::vector<std::string> cli;
  };
  const std::vector<Pair> pairs = {
      {R"({"cmd":"list"})", {"list"}},
      {R"({"cmd":"run","target":"stream","args":{"scale":0.25,)"
       R"("threads":12,"mode":"dram-only","json":true}})",
       {"run", "stream", "--scale", "0.25", "--threads", "12", "--mode",
        "dram-only", "--json"}},
      {R"({"cmd":"explain","target":"stream","args":{"scale":0.25,)"
       R"("threads":12,"resolve-cache":"shared","format":"json"}})",
       {"explain", "stream", "--scale", "0.25", "--threads", "12",
        "--resolve-cache", "shared", "--format", "json"}},
  };
  for (const Pair& p : pairs) {
    if (!c.send_line(p.request)) return false;
    std::string resp;
    if (!c.recv_line(&resp)) return false;
    if (field_of(resp, "out") != cli_stdout(p.cli)) {
      std::fprintf(stderr, "bench_serve_load: byte mismatch for %s\n",
                   p.request);
      return false;
    }
  }
  return true;
}

bool run_malformed_fuzz(const std::string& socket_path) {
  Client c(socket_path);
  if (!c.ok()) return false;
  std::vector<std::string> batch = {
      "this is not json",
      "[]",
      "{}",
      R"({"cmd":42})",
      R"({"cmd":"record","target":"stream"})",
      R"({"cmd":"run","target":"../etc/passwd"})",
      R"({"cmd":"run","target":"stream","args":{"trace-out":"/tmp/x"}})",
      R"({"cmd":"sweep","target":"stream","args":{"threads":"12,abc"}})",
      R"({"cmd":"run","target":"stream","args":{"scale":"1.5q"}})",
      R"({"cmd":"list","priority":"urgent"})",
      R"({"id":[1,2],"cmd":"list"})",
  };
  // Deterministic garbage on top of the curated rows (seeded: the batch
  // is identical on every run of the bench).
  std::mt19937 rng(0xC0FFEE);
  const std::string alphabet = "{}[]\":,abcdefXYZ0123456789\\ ";
  std::uniform_int_distribution<std::size_t> pick(0, alphabet.size() - 1);
  std::uniform_int_distribution<int> len(1, 120);
  for (int i = 0; i < 96; ++i) {
    std::string junk;
    const int n = len(rng);
    for (int k = 0; k < n; ++k) junk += alphabet[pick(rng)];
    if (junk.find_first_not_of(" \t") == std::string::npos) junk += "x";
    batch.push_back(junk);
  }
  for (const auto& line : batch) {
    if (!c.send_line(line)) return false;
    std::string resp;
    if (!c.recv_line(&resp)) {
      std::fprintf(stderr, "bench_serve_load: no response to fuzz line: %s\n",
                   line.c_str());
      return false;
    }
    // Structured: either a protocol rejection with a machine code, or a
    // valid request whose execution failed with the CLI's diagnostic.
    const auto doc = json_parse(resp);
    if (!doc.value || !doc.value->is_object()) return false;
    const JsonValue* ok = doc.value->find("ok");
    if (ok == nullptr) return false;
    if (!ok->as_bool() && field_of(resp, "code").empty()) return false;
  }
  // The daemon survived the whole batch and still answers.
  if (!c.send_line(R"({"cmd":"ping"})")) return false;
  std::string pong;
  return c.recv_line(&pong) && field_of(pong, "out") == "pong";
}

struct LoadResult {
  std::vector<double> latencies_ms;  // every request, all clients
  double seconds = 0.0;              // wall time of the whole phase
  std::size_t sent = 0;
  std::size_t answered = 0;  // responses with ok:true
};

LoadResult run_load(const std::string& socket_path, int clients,
                    int requests_per_client) {
  // The warm-cache query every synthetic client repeats: Memory mode, so
  // its DRAM-cache walks go through the shared stream memo.  Each client
  // carries its own id so the budget/stats side sees distinct tenants.
  const std::string query_prefix =
      R"({"cmd":"run","target":"stream","args":{"scale":0.25,"threads":12,)"
      R"("mode":"cached-nvm","resolve-cache":"shared","json":true},)"
      R"("client":"c)";
  LoadResult result;
  std::vector<std::thread> threads;
  std::vector<std::vector<double>> lat(static_cast<std::size_t>(clients));
  std::vector<std::size_t> good(static_cast<std::size_t>(clients), 0);
  const auto t0 = Clock::now();
  threads.reserve(static_cast<std::size_t>(clients));
  for (int i = 0; i < clients; ++i) {
    threads.emplace_back([&, i] {
      Client c(socket_path);
      if (!c.ok()) return;
      const std::string query =
          query_prefix + std::to_string(i) + R"("})";
      for (int k = 0; k < requests_per_client; ++k) {
        const auto s0 = Clock::now();
        if (!c.send_line(query)) return;
        std::string resp;
        if (!c.recv_line(&resp)) return;
        lat[static_cast<std::size_t>(i)].push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - s0)
                .count());
        const auto doc = json_parse(resp);
        const JsonValue* ok = doc.value ? doc.value->find("ok") : nullptr;
        if (ok != nullptr && ok->as_bool()) {
          ++good[static_cast<std::size_t>(i)];
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  result.seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  for (int i = 0; i < clients; ++i) {
    result.answered += good[static_cast<std::size_t>(i)];
    for (const double ms : lat[static_cast<std::size_t>(i)]) {
      result.latencies_ms.push_back(ms);
    }
  }
  result.sent = static_cast<std::size_t>(clients) *
                static_cast<std::size_t>(requests_per_client);
  return result;
}

double percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_serve_load [--quick] [--clients N] "
               "[--requests N] [--workers N] [--out DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  int clients = 0;  // default depends on --quick
  int requests_per_client = 2;
  int workers = 0;  // 0 -> hardware concurrency
  std::string out_dir = ".";
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--clients" && a + 1 < argc) {
      clients = std::atoi(argv[++a]);
    } else if (arg == "--requests" && a + 1 < argc) {
      requests_per_client = std::atoi(argv[++a]);
    } else if (arg == "--workers" && a + 1 < argc) {
      workers = std::atoi(argv[++a]);
    } else if (arg == "--out" && a + 1 < argc) {
      out_dir = argv[++a];
    } else {
      return usage();
    }
  }
  if (clients <= 0) clients = quick ? 128 : 1000;
  if (requests_per_client <= 0) return usage();
  if (workers <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    workers = static_cast<int>(hw > 2 ? hw : 2);
  }

  std::signal(SIGPIPE, SIG_IGN);
  std::fprintf(stderr, "bench_serve_load: calibrating baseline unit...\n");
  const double unit_s = calibrate_baseline();

  ServeConfig cfg;
  cfg.socket_path = "/tmp/nvms_bench_serve_" +
                    std::to_string(::getpid()) + ".sock";
  cfg.workers = workers;
  // Every client keeps at most one request in flight; size the queue so
  // overload control never distorts the latency numbers.
  cfg.queue_capacity = static_cast<std::size_t>(clients) + 64;
  Daemon daemon(cfg);
  std::string error;
  if (!daemon.start(&error)) {
    std::fprintf(stderr, "bench_serve_load: %s\n", error.c_str());
    return 1;
  }
  std::thread io([&daemon] { daemon.run(); });

  std::fprintf(stderr, "bench_serve_load: byte-identity parity...\n");
  const bool responses_match_cli = check_byte_identity(cfg.socket_path);
  std::fprintf(stderr, "bench_serve_load: malformed fuzz batch...\n");
  const bool malformed_ok = run_malformed_fuzz(cfg.socket_path);

  std::fprintf(stderr,
               "bench_serve_load: load phase (%d clients x %d requests, "
               "%d workers)...\n",
               clients, requests_per_client, workers);
  const LoadResult load =
      run_load(cfg.socket_path, clients, requests_per_client);

  // Warm stream-memo hit rate, straight from the daemon's stats view.
  double warm_hit_rate = 0.0;
  {
    Client c(cfg.socket_path);
    std::string resp;
    if (c.ok() && c.send_line(R"({"cmd":"stats"})") && c.recv_line(&resp)) {
      const auto inner = json_parse(field_of(resp, "out"));
      if (inner.value) {
        if (const JsonValue* rc = inner.value->find("stream_memo")) {
          if (const JsonValue* hr = rc->find("hit_rate")) {
            warm_hit_rate = hr->as_number();
          }
        }
      }
    }
  }

  // Clean shutdown through the protocol itself.
  bool clean_shutdown = false;
  {
    Client c(cfg.socket_path);
    std::string resp;
    if (c.ok() && c.send_line(R"({"cmd":"shutdown"})") &&
        c.recv_line(&resp)) {
      clean_shutdown = field_of(resp, "out") == "shutting down";
    }
  }
  io.join();  // run() returns once the shutdown request lands

  std::vector<double> sorted = load.latencies_ms;
  std::sort(sorted.begin(), sorted.end());
  const double p50 = percentile(sorted, 0.50);
  const double p99 = percentile(sorted, 0.99);
  const double rps =
      load.seconds > 0.0 ? static_cast<double>(load.answered) / load.seconds
                         : 0.0;
  const bool all_answered = load.answered == load.sent;

  Json doc;
  doc.set("schema_version", kSchemaVersion);
  doc.set("kind", "nvms-bench-serve");
  doc.set("corpus", "serve-load");
  doc.set("clients", clients);
  doc.set("requests_per_client", requests_per_client);
  doc.set("workers", workers);
  doc.set("baseline_unit_s", unit_s);
  {
    Json lat;
    lat.set("p50_ms", p50);
    lat.set("p99_ms", p99);
    lat.set("max_ms", sorted.empty() ? 0.0 : sorted.back());
    doc.set("latency", lat);
  }
  {
    Json thr;
    thr.set("requests", static_cast<std::uint64_t>(load.answered));
    thr.set("seconds", load.seconds);
    thr.set("requests_per_s", rps);
    doc.set("throughput", thr);
  }
  {
    // Gate metrics are higher-is-better and machine-normalized; the
    // parity flags are required unconditionally by the compare gate.
    Json gate;
    gate.set("requests_per_unit", rps * unit_s);
    gate.set("warm_hit_rate", warm_hit_rate);
    doc.set("gate", gate);
  }
  {
    Json parity;
    parity.set("responses_match_cli", responses_match_cli);
    parity.set("malformed_structured_errors", malformed_ok);
    parity.set("all_requests_answered", all_answered);
    parity.set("clean_shutdown", clean_shutdown);
    doc.set("parity", parity);
  }

  const std::string sep =
      out_dir.empty() || out_dir.back() == '/' ? "" : "/";
  const std::string path = out_dir + sep + "BENCH_serve.json";
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "bench_serve_load: cannot write %s\n", path.c_str());
    return 1;
  }
  out << doc.dump(2) << "\n";

  std::printf(
      "serve-load: %d clients x %d req, %zu/%zu answered in %.2fs "
      "(%.0f req/s, %.1f req/unit), p50 %.2fms p99 %.2fms, warm hit rate "
      "%.1f%%, parity %s/%s/%s/%s\n",
      clients, requests_per_client, load.answered, load.sent, load.seconds,
      rps, rps * unit_s, p50, p99, 100.0 * warm_hit_rate,
      responses_match_cli ? "bytes-ok" : "BYTES-DIVERGED",
      malformed_ok ? "fuzz-ok" : "FUZZ-FAILED",
      all_answered ? "answers-ok" : "ANSWERS-MISSING",
      clean_shutdown ? "shutdown-ok" : "SHUTDOWN-FAILED");
  const bool pass = responses_match_cli && malformed_ok && all_answered &&
                    clean_shutdown && warm_hit_rate > 0.8;
  if (!pass) {
    std::fprintf(stderr, "bench_serve_load: FAILED gates\n");
    return 1;
  }
  return 0;
}
