// nvmsimd: simulation-as-a-service.  A long-running daemon that answers
// line-delimited JSON requests (serve/request.hpp) over a unix-domain
// socket and/or a loopback TCP port, reusing the CLI's run_command
// dispatch so responses are byte-identical on stdout to the one-shot
// `nvmsim <cmd> ...` for the same query.  Full protocol: docs/SERVICE.md.
//
// Architecture (one process):
//   * one IO thread (Daemon::run) — poll()-driven accept + line framing,
//     with per-connection idle timeouts and an input-size cap so a
//     hostile client can neither wedge nor balloon the process;
//   * a bounded multi-priority AdmissionQueue (harness/admission.hpp) in
//     front of N worker threads — overload surfaces as structured
//     "queue_full" rejections, never unbounded memory;
//   * per-client lifetime TokenBudgets — one tenant cannot starve the
//     rest;
//   * one process-lifetime shared ResolveCache (the DRAM-cache stream
//     memo) — requests that opt into --resolve-cache=shared warm it across
//     clients, so repeated Memory-mode queries over the same applications
//     skip their DRAM-cache walks.  The daemon publishes the memo's
//     hit/miss/eviction gauges process-wide through the `metrics` command
//     (Prometheus text), lifting the per-task-telemetry exclusion
//     documented in memsim/resolve_cache.hpp: process scope has no
//     per-task byte-identity constraint.
//
// Failure containment: every write uses MSG_NOSIGNAL (no SIGPIPE), every
// request runs under run_command_guarded's exception net, and a
// malformed or oversized line produces a structured error response —
// one bad tenant must never take down every other tenant's warm cache.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <istream>
#include <memory>
#include <string>

namespace nvms {

class Options;

struct ServeConfig {
  /// Unix-domain listener when non-empty (an existing socket file at the
  /// path is replaced; the daemon unlinks it on clean shutdown).
  std::string socket_path;
  /// Loopback TCP listener when >= 0; 0 binds an ephemeral port
  /// (Daemon::tcp_port reports the actual one).  At least one of
  /// socket_path / port must be given.
  int port = -1;
  std::string host = "127.0.0.1";
  int workers = 2;
  std::size_t queue_capacity = 256;
  /// Lifetime token allowance per client id; 0 = unlimited.  Costs:
  /// run/inspect/explain/profile 1, diff 2, optimize 4, sweep = grid
  /// cells (modes x threads).
  std::uint64_t client_budget = 0;
  /// Longest accepted request line; longer input gets a structured
  /// "oversized" error and the rest of the line is discarded.
  std::size_t max_line_bytes = 1 << 20;
  /// Idle connections (no pending work) are closed after this long.
  int idle_timeout_ms = 30000;
  /// A response write blocked longer than this drops the connection
  /// (slow-consumer protection).
  int write_timeout_ms = 10000;
};

class Daemon {
 public:
  explicit Daemon(ServeConfig cfg);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Bind listeners and spawn the worker pool.  False (with *error set)
  /// on any setup failure; no threads are left running then.
  bool start(std::string* error);

  /// The bound TCP port (after start); -1 without a TCP listener.
  int tcp_port() const;
  const std::string& unix_path() const;

  /// The IO loop: blocks until stop() (or a client `shutdown` request),
  /// then drains the queue, flushes pending responses and joins the
  /// workers before returning.
  void run();

  /// Request shutdown from any thread.  Idempotent.
  void stop();

  /// Prometheus exposition of the serve.* metrics plus the shared
  /// stream-memo gauges (same text the `metrics` request returns).
  std::string metrics_text();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// `nvmsim serve ...`: build a ServeConfig from argv, run a Daemon until
/// shutdown.  Prints one "nvmsimd listening on ..." line to `out` (and
/// flushes) once ready — supervisors wait for it.
int serve_main(int argc, char** argv, std::ostream& out, std::ostream& err);

/// `nvmsim client ...`: connect to a daemon, send each line of `in` as a
/// request and print each response line to `out` (synchronous: one
/// in-flight request at a time, so output order matches input order).
/// With --extract out|err the named response field is decoded and printed
/// raw instead — the byte-compare hook CI uses against the one-shot CLI.
int client_main(int argc, char** argv, std::istream& in, std::ostream& out,
                std::ostream& err);

}  // namespace nvms
