#include "serve/daemon.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "cli/driver.hpp"
#include "cli/options.hpp"
#include "harness/admission.hpp"
#include "harness/executor.hpp"
#include "memsim/resolve_cache.hpp"
#include "simcore/thread_pool.hpp"
#include "obs/export.hpp"
#include "obs/telemetry.hpp"
#include "serve/jsonv.hpp"
#include "serve/request.hpp"
#include "simcore/error.hpp"
#include "simcore/json.hpp"

namespace nvms {
namespace {

using SteadyClock = std::chrono::steady_clock;

double ms_since(SteadyClock::time_point t0) {
  return std::chrono::duration<double, std::milli>(SteadyClock::now() - t0)
      .count();
}

/// One client connection.  The IO thread owns inbuf/framing state; the
/// write mutex serializes response writes (workers and the IO thread);
/// `dead` is the one-way tombstone either side can set.
struct Conn {
  int fd = -1;
  std::string inbuf;
  std::mutex write_mu;
  std::atomic<bool> dead{false};
  /// Requests admitted but not yet responded to.  A half-closed
  /// connection (client sent EOF after its batch) is kept alive until
  /// this drains, so the batch-then-read client pattern works.
  std::atomic<int> pending{0};
  bool reads_done = false;     // IO thread only
  bool discarding = false;     // IO thread only: skipping an oversized line
  SteadyClock::time_point last_activity;  // IO thread only

  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
};

using ConnPtr = std::shared_ptr<Conn>;

struct Job {
  ConnPtr conn;
  ServeRequest req;
  SteadyClock::time_point received;
  SteadyClock::time_point admitted;
};

std::string exec_response(const std::string& id, int exit_code,
                          const std::string& out, const std::string& err) {
  Json j;
  j.set("id", id.empty() ? Json() : Json(id))
      .set("ok", true)
      .set("exit", exit_code)
      .set("out", out)
      .set("err", err);
  return j.dump(0) + "\n";
}

std::string error_response(const std::string& id, const std::string& code,
                           const std::string& error) {
  Json j;
  j.set("id", id.empty() ? Json() : Json(id))
      .set("ok", false)
      .set("code", code)
      .set("error", error);
  return j.dump(0) + "\n";
}

int set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return -1;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

std::string errno_text(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

struct Daemon::Impl {
  explicit Impl(ServeConfig c)
      : cfg(std::move(c)),
        queue(cfg.queue_capacity),
        budget(cfg.client_budget),
        cache(static_cast<std::size_t>(cfg.workers)) {
    auto& m = tel.metrics();
    // Registered up front in a fixed order, so the exposition layout is
    // stable across runs regardless of which event fires first.
    id_requests = m.counter("serve.requests");
    id_responses = m.counter("serve.responses");
    id_rej_malformed = m.counter("serve.rejected.malformed");
    id_rej_forbidden = m.counter("serve.rejected.forbidden");
    id_rej_queue_full = m.counter("serve.rejected.queue_full");
    id_rej_budget = m.counter("serve.rejected.budget");
    id_rej_oversized = m.counter("serve.rejected.oversized");
    id_queue_depth = m.gauge("serve.queue.depth");
    id_connections = m.gauge("serve.connections");
    id_queue_wait = m.histogram("serve.queue_wait_ms");
    id_latency = m.histogram("serve.latency_ms");
    // Exact decomposition of latency: intake (receive -> admitted) +
    // queue_wait (admitted -> worker pop) + execution (pop -> response
    // written).
    id_wait_admission = m.histogram("serve.wait_admission_ms");
    id_wait_execution = m.histogram("serve.wait_execution_ms");
    id_intra_leased = m.gauge("serve.intra_lanes_leased");
    id_bytes_in = m.counter("serve.bytes_in");
    id_bytes_out = m.counter("serve.bytes_out");
    // Intra-run lanes and request workers share one machine: size the
    // process-wide lane budget once, so a lone big request can borrow
    // every idle lane while a saturated daemon degrades to 1 lane per
    // request (worker-lease model, harness/executor.hpp).
    IntraBudget::global().set_total(
        std::max(1, ThreadPool::default_jobs()));
  }

  ServeConfig cfg;
  int unix_fd = -1;
  int tcp_fd = -1;
  int bound_port = -1;

  std::map<int, ConnPtr> conns;  // IO thread only
  AdmissionQueue<Job> queue;
  TokenBudget budget;
  ResolveCache cache;
  std::vector<std::thread> workers;
  std::atomic<bool> stopping{false};

  // MetricsRegistry is not thread-safe; every touch goes through this
  // mutex.  Events are cheap scalar updates, never contended for long.
  std::mutex metrics_mu;
  Telemetry tel;
  MetricId id_requests, id_responses, id_rej_malformed, id_rej_forbidden,
      id_rej_queue_full, id_rej_budget, id_rej_oversized, id_queue_depth,
      id_connections, id_queue_wait, id_latency, id_wait_admission,
      id_wait_execution, id_intra_leased, id_bytes_in, id_bytes_out;

  /// Requests currently executing on workers (not merely admitted) —
  /// the divisor for handing idle intra-run lanes to requests.
  std::atomic<int> busy_workers{0};

  void count(MetricId id, double delta = 1.0) {
    std::lock_guard<std::mutex> lock(metrics_mu);
    tel.metrics().add(id, delta);
  }
  void set_gauge(MetricId id, double value) {
    std::lock_guard<std::mutex> lock(metrics_mu);
    tel.metrics().set(id, value);
  }
  void observe(MetricId id, double value) {
    std::lock_guard<std::mutex> lock(metrics_mu);
    tel.metrics().observe(id, value);
  }

  std::string metrics_text() {
    std::lock_guard<std::mutex> lock(metrics_mu);
    cache.publish(tel.metrics());
    tel.metrics().set(id_intra_leased,
                      static_cast<double>(IntraBudget::global().in_use()));
    return prometheus_text(tel, "nvmsimd");
  }

  std::string stats_text() {
    const ResolveCacheStats sm = cache.stats();
    Json j;
    j.set("queue_depth", static_cast<std::uint64_t>(queue.depth()))
        .set("queue_capacity", static_cast<std::uint64_t>(queue.capacity()))
        .set("connections", static_cast<std::uint64_t>(conns_count.load()))
        .set("workers", cfg.workers)
        .set("clients", static_cast<std::uint64_t>(budget.clients()))
        .set("client_budget", cfg.client_budget);
    Json memo;
    memo.set("hits", sm.hits)
        .set("misses", sm.misses)
        .set("evictions", sm.evictions)
        .set("entries", static_cast<std::uint64_t>(sm.entries))
        .set("hit_rate", sm.hit_rate());
    j.set("stream_memo", memo);
    return j.dump(0) + "\n";
  }

  std::atomic<std::size_t> conns_count{0};

  // ---- listeners --------------------------------------------------------

  bool bind_unix(std::string* error) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (cfg.socket_path.size() >= sizeof addr.sun_path) {
      *error = "socket path too long: " + cfg.socket_path;
      return false;
    }
    std::memcpy(addr.sun_path, cfg.socket_path.c_str(),
                cfg.socket_path.size() + 1);
    unix_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (unix_fd < 0) {
      *error = errno_text("socket(AF_UNIX)");
      return false;
    }
    ::unlink(cfg.socket_path.c_str());  // replace a stale socket file
    if (::bind(unix_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
            0 ||
        ::listen(unix_fd, 512) < 0 || set_nonblocking(unix_fd) < 0) {
      *error = errno_text(("bind/listen " + cfg.socket_path).c_str());
      ::close(unix_fd);
      unix_fd = -1;
      return false;
    }
    return true;
  }

  bool bind_tcp(std::string* error) {
    tcp_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (tcp_fd < 0) {
      *error = errno_text("socket(AF_INET)");
      return false;
    }
    const int one = 1;
    ::setsockopt(tcp_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(cfg.port));
    if (::inet_pton(AF_INET, cfg.host.c_str(), &addr.sin_addr) != 1) {
      *error = "bad --host address: " + cfg.host;
      ::close(tcp_fd);
      tcp_fd = -1;
      return false;
    }
    socklen_t len = sizeof addr;
    if (::bind(tcp_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
        ::listen(tcp_fd, 512) < 0 || set_nonblocking(tcp_fd) < 0 ||
        ::getsockname(tcp_fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
      *error = errno_text("bind/listen tcp");
      ::close(tcp_fd);
      tcp_fd = -1;
      return false;
    }
    bound_port = static_cast<int>(ntohs(addr.sin_port));
    return true;
  }

  // ---- response writes --------------------------------------------------

  /// Serialized, SIGPIPE-safe, bounded-blocking write.  `timeout_ms` 0
  /// means best-effort: a write that would block drops the connection
  /// (used by the IO thread, which must never stall on one client).
  bool write_line(Conn& c, const std::string& s, int timeout_ms) {
    if (c.dead.load(std::memory_order_relaxed)) return false;
    std::lock_guard<std::mutex> lock(c.write_mu);
    std::size_t off = 0;
    while (off < s.size()) {
      const ssize_t n =
          ::send(c.fd, s.data() + off, s.size() - off, MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (timeout_ms <= 0) break;  // would block: IO thread gives up
        pollfd p{c.fd, POLLOUT, 0};
        const int pr = ::poll(&p, 1, timeout_ms);
        if (pr <= 0) break;  // slow consumer
        continue;
      }
      break;  // EPIPE / ECONNRESET / ...
    }
    if (off < s.size()) {
      c.dead.store(true, std::memory_order_relaxed);
      // Wake the poll loop out of its sleep so the sweep reaps this
      // connection promptly.
      ::shutdown(c.fd, SHUT_RDWR);
      return false;
    }
    count(id_bytes_out, static_cast<double>(s.size()));
    return true;
  }

  // ---- request intake (IO thread) ---------------------------------------

  void handle_line(const ConnPtr& c, const std::string& line) {
    const SteadyClock::time_point received = SteadyClock::now();
    count(id_requests);
    const RequestParse parsed = parse_request(line);
    if (!parsed.request) {
      count(parsed.code == "forbidden" ? id_rej_forbidden
                                       : id_rej_malformed);
      write_line(*c, error_response(parsed.id, parsed.code, parsed.error),
                 /*timeout_ms=*/0);
      return;
    }
    const ServeRequest& r = *parsed.request;

    // Daemon-internal commands answer inline: they must stay responsive
    // even when the queue is saturated (that is when you scrape metrics).
    if (r.cmd == "ping") {
      write_line(*c, exec_response(r.id, 0, "pong", ""), 0);
      return;
    }
    if (r.cmd == "metrics") {
      write_line(*c, exec_response(r.id, 0, metrics_text(), ""), 0);
      return;
    }
    if (r.cmd == "stats") {
      write_line(*c, exec_response(r.id, 0, stats_text(), ""), 0);
      return;
    }
    if (r.cmd == "shutdown") {
      write_line(*c, exec_response(r.id, 0, "shutting down", ""), 0);
      stopping.store(true);
      return;
    }

    if (!budget.charge(r.client, r.cost)) {
      count(id_rej_budget);
      write_line(*c,
                 error_response(
                     r.id, "budget",
                     "client '" + r.client + "' exhausted its budget (" +
                         std::to_string(budget.allowance()) + " tokens)"),
                 0);
      return;
    }
    Job job{c, r, received, SteadyClock::now()};
    if (!queue.try_push(job, r.priority)) {
      budget.refund(r.client, r.cost);
      count(id_rej_queue_full);
      write_line(*c,
                 error_response(r.id, "queue_full",
                                "admission queue is full (capacity " +
                                    std::to_string(queue.capacity()) +
                                    "); retry later"),
                 0);
      return;
    }
    c->pending.fetch_add(1);
    observe(id_wait_admission, ms_since(received));
    set_gauge(id_queue_depth, static_cast<double>(queue.depth()));
  }

  void read_from(const ConnPtr& c) {
    char buf[16384];
    while (true) {
      const ssize_t n = ::recv(c->fd, buf, sizeof buf, 0);
      if (n > 0) {
        c->last_activity = SteadyClock::now();
        count(id_bytes_in, static_cast<double>(n));
        c->inbuf.append(buf, static_cast<std::size_t>(n));
        std::size_t nl;
        while ((nl = c->inbuf.find('\n')) != std::string::npos) {
          std::string line = c->inbuf.substr(0, nl);
          c->inbuf.erase(0, nl + 1);
          if (!line.empty() && line.back() == '\r') line.pop_back();
          if (c->discarding) {
            c->discarding = false;  // the bad line finally ended
            continue;
          }
          if (line.empty()) continue;  // blank keepalive
          handle_line(c, line);
          if (c->dead.load(std::memory_order_relaxed)) return;
        }
        if (!c->discarding && c->inbuf.size() > cfg.max_line_bytes) {
          count(id_rej_oversized);
          write_line(*c,
                     error_response(
                         "", "oversized",
                         "request line exceeds " +
                             std::to_string(cfg.max_line_bytes) + " bytes"),
                     0);
          c->inbuf.clear();
          c->inbuf.shrink_to_fit();
          c->discarding = true;
        }
        continue;
      }
      if (n == 0) {
        c->reads_done = true;
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      c->dead.store(true, std::memory_order_relaxed);
      return;
    }
  }

  void accept_from(int listener) {
    while (true) {
      const int fd = ::accept(listener, nullptr, nullptr);
      if (fd < 0) return;  // EAGAIN / transient — next poll retries
      if (set_nonblocking(fd) < 0) {
        ::close(fd);
        continue;
      }
      auto c = std::make_shared<Conn>();
      c->fd = fd;
      c->last_activity = SteadyClock::now();
      conns.emplace(fd, std::move(c));
      conns_count.store(conns.size());
      set_gauge(id_connections, static_cast<double>(conns.size()));
    }
  }

  // ---- worker side ------------------------------------------------------

  void worker_loop() {
    while (auto job = queue.pop()) {
      const SteadyClock::time_point popped = SteadyClock::now();
      const int active = 1 + busy_workers.fetch_add(1);
      set_gauge(id_queue_depth, static_cast<double>(queue.depth()));
      observe(id_queue_wait, ms_since(job->admitted));
      // Hand idle intra-run lanes to this request: a command that runs
      // the simulator without picking a width gets the lane budget split
      // over the requests executing right now (the whole machine when it
      // is alone).  The response bytes never depend on the width, so the
      // grant can vary freely with load.
      std::ostringstream sout, serr;
      CommandContext ctx;
      ctx.shared_cache = &cache;
      ctx.intra_jobs = resolve_auto_intra_jobs(active);
      const int rc = run_command_guarded(job->req.cmd,
                                         options_from(job->req), sout, serr,
                                         &ctx);
      write_line(*job->conn,
                 exec_response(job->req.id, rc, sout.str(), serr.str()),
                 cfg.write_timeout_ms);
      job->conn->pending.fetch_sub(1);
      busy_workers.fetch_sub(1);
      count(id_responses);
      observe(id_wait_execution, ms_since(popped));
      observe(id_latency, ms_since(job->received));
    }
  }

  // ---- IO loop ----------------------------------------------------------

  void run() {
    std::vector<pollfd> pfds;
    while (!stopping.load()) {
      pfds.clear();
      if (unix_fd >= 0) pfds.push_back({unix_fd, POLLIN, 0});
      if (tcp_fd >= 0) pfds.push_back({tcp_fd, POLLIN, 0});
      const std::size_t first_conn = pfds.size();
      std::vector<int> polled;
      polled.reserve(conns.size());
      for (const auto& [fd, c] : conns) {
        if (c->reads_done || c->dead.load(std::memory_order_relaxed)) {
          continue;
        }
        pfds.push_back({fd, POLLIN, 0});
        polled.push_back(fd);
      }
      const int pr = ::poll(pfds.data(), pfds.size(), /*timeout=*/100);
      if (pr < 0 && errno != EINTR) break;  // poll itself failed — bail
      if (pr > 0) {
        std::size_t i = 0;
        if (unix_fd >= 0) {
          if (pfds[i].revents != 0) accept_from(unix_fd);
          ++i;
        }
        if (tcp_fd >= 0) {
          if (pfds[i].revents != 0) accept_from(tcp_fd);
          ++i;
        }
        for (std::size_t k = 0; k < polled.size(); ++k) {
          const short re = pfds[first_conn + k].revents;
          if (re == 0) continue;
          const auto it = conns.find(polled[k]);
          if (it == conns.end()) continue;
          if ((re & (POLLIN | POLLHUP)) != 0) read_from(it->second);
          if ((re & (POLLERR | POLLNVAL)) != 0) {
            it->second->dead.store(true, std::memory_order_relaxed);
          }
        }
      }
      sweep_connections();
    }
    drain_and_join();
  }

  void sweep_connections() {
    const auto now = SteadyClock::now();
    for (auto it = conns.begin(); it != conns.end();) {
      Conn& c = *it->second;
      const bool idle = c.pending.load() == 0;
      const bool timed_out =
          idle && std::chrono::duration<double, std::milli>(
                      now - c.last_activity)
                          .count() > cfg.idle_timeout_ms;
      if (c.dead.load(std::memory_order_relaxed) ||
          (c.reads_done && idle) || timed_out) {
        it = conns.erase(it);  // fd closes when the last Job ref drops
      } else {
        ++it;
      }
    }
    conns_count.store(conns.size());
    set_gauge(id_connections, static_cast<double>(conns.size()));
  }

  void drain_and_join() {
    // Stop accepting, let the workers finish everything already admitted
    // (their responses still flush: the Jobs hold the connections), then
    // join.
    if (unix_fd >= 0) {
      ::close(unix_fd);
      unix_fd = -1;
      ::unlink(cfg.socket_path.c_str());
    }
    if (tcp_fd >= 0) {
      ::close(tcp_fd);
      tcp_fd = -1;
    }
    queue.close();
    for (auto& w : workers) {
      if (w.joinable()) w.join();
    }
    conns.clear();
    conns_count.store(0);
  }
};

Daemon::Daemon(ServeConfig cfg) : impl_(std::make_unique<Impl>(std::move(cfg))) {}

Daemon::~Daemon() {
  // run() normally performs this teardown; the destructor repeats it so
  // a daemon that was started but never run (or whose run() already
  // returned) still joins its workers and releases its listeners.
  // Destroying while run() executes on another thread is caller misuse.
  stop();
  impl_->queue.close();
  for (auto& w : impl_->workers) {
    if (w.joinable()) w.join();
  }
  if (impl_->unix_fd >= 0) {
    ::close(impl_->unix_fd);
    ::unlink(impl_->cfg.socket_path.c_str());
  }
  if (impl_->tcp_fd >= 0) ::close(impl_->tcp_fd);
}

bool Daemon::start(std::string* error) {
  Impl& d = *impl_;
  if (d.cfg.socket_path.empty() && d.cfg.port < 0) {
    *error = "need --socket PATH and/or --port N";
    return false;
  }
  if (!d.cfg.socket_path.empty() && !d.bind_unix(error)) return false;
  if (d.cfg.port >= 0 && !d.bind_tcp(error)) {
    if (d.unix_fd >= 0) {
      ::close(d.unix_fd);
      d.unix_fd = -1;
      ::unlink(d.cfg.socket_path.c_str());
    }
    return false;
  }
  d.workers.reserve(static_cast<std::size_t>(d.cfg.workers));
  for (int i = 0; i < d.cfg.workers; ++i) {
    d.workers.emplace_back([&d] { d.worker_loop(); });
  }
  return true;
}

int Daemon::tcp_port() const { return impl_->bound_port; }
const std::string& Daemon::unix_path() const {
  return impl_->cfg.socket_path;
}

void Daemon::run() { impl_->run(); }

void Daemon::stop() { impl_->stopping.store(true); }

std::string Daemon::metrics_text() { return impl_->metrics_text(); }

// ---- CLI frontends ------------------------------------------------------

int serve_main(int argc, char** argv, std::ostream& out, std::ostream& err) {
  // Writes to a vanished client are reported via send()'s EPIPE, never a
  // process-killing signal.
  std::signal(SIGPIPE, SIG_IGN);
  ServeConfig cfg;
  try {
    const Options opt = Options::parse(argc, argv, 2);
    cfg.socket_path = opt.get("socket", "");
    cfg.port = opt.has("port") ? opt.get_int_at_least("port", 0, 0) : -1;
    cfg.host = opt.get("host", "127.0.0.1");
    const unsigned hw = std::thread::hardware_concurrency();
    cfg.workers =
        opt.get_int_at_least("workers", hw > 2 ? static_cast<int>(hw) : 2, 1);
    cfg.queue_capacity = static_cast<std::size_t>(
        opt.get_int_at_least("queue", 256, 1));
    cfg.client_budget = static_cast<std::uint64_t>(
        opt.get_int_at_least("client-budget", 0, 0));
    cfg.max_line_bytes = static_cast<std::size_t>(
        opt.get_int_at_least("max-line-bytes", 1 << 20, 64));
    cfg.idle_timeout_ms = opt.get_int_at_least("idle-timeout-ms", 30000, 100);
    cfg.write_timeout_ms =
        opt.get_int_at_least("write-timeout-ms", 10000, 100);
    for (const auto& key : opt.unused()) {
      err << "warning: unused option --" << key << "\n";
    }
  } catch (const Error& e) {
    err << "error: " << e.what() << "\n";
    return 2;
  }
  Daemon daemon(cfg);
  std::string error;
  if (!daemon.start(&error)) {
    err << "serve: " << error << "\n";
    return cfg.socket_path.empty() && cfg.port < 0 ? 2 : 1;
  }
  out << "nvmsimd listening on";
  if (!daemon.unix_path().empty()) out << " unix:" << daemon.unix_path();
  if (daemon.tcp_port() >= 0) {
    out << " tcp:" << cfg.host << ":" << daemon.tcp_port();
  }
  out << " (workers=" << cfg.workers << " queue=" << cfg.queue_capacity
      << " budget=" << cfg.client_budget << ")\n";
  out.flush();
  daemon.run();
  out << "nvmsimd: clean shutdown\n";
  return 0;
}

namespace {

/// Connect per the client options; -1 + message on failure.
int client_connect(const Options& opt, std::ostream& err) {
  const std::string socket_path = opt.get("socket", "");
  const int port = opt.get_int("port", -1);
  if (!socket_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof addr.sun_path) {
      err << "client: socket path too long\n";
      return -1;
    }
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0 ||
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
      err << "client: cannot connect to unix:" << socket_path << ": "
          << std::strerror(errno) << "\n";
      if (fd >= 0) ::close(fd);
      return -1;
    }
    return fd;
  }
  if (port >= 0) {
    const std::string host = opt.get("host", "127.0.0.1");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
      err << "client: bad --host address: " << host << "\n";
      return -1;
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0 ||
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
      err << "client: cannot connect to tcp:" << host << ":" << port << ": "
          << std::strerror(errno) << "\n";
      if (fd >= 0) ::close(fd);
      return -1;
    }
    return fd;
  }
  err << "client: need --socket PATH or --port N\n";
  return -1;
}

bool send_all(int fd, const std::string& s) {
  std::size_t off = 0;
  while (off < s.size()) {
    const ssize_t n = ::send(fd, s.data() + off, s.size() - off,
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

/// Read one '\n'-terminated line (without the newline); false on EOF or
/// error before a full line arrived.
bool recv_line(int fd, std::string& carry, std::string& line) {
  while (true) {
    const std::size_t nl = carry.find('\n');
    if (nl != std::string::npos) {
      line = carry.substr(0, nl);
      carry.erase(0, nl + 1);
      return true;
    }
    char buf[16384];
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n > 0) {
      carry.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
}

}  // namespace

int client_main(int argc, char** argv, std::istream& in, std::ostream& out,
                std::ostream& err) {
  std::signal(SIGPIPE, SIG_IGN);
  std::string extract;
  int fd = -1;
  try {
    const Options opt = Options::parse(argc, argv, 2);
    extract = opt.get("extract", "");
    if (!extract.empty() && extract != "out" && extract != "err") {
      err << "client: --extract wants out|err\n";
      return 2;
    }
    fd = client_connect(opt, err);
    for (const auto& key : opt.unused()) {
      err << "warning: unused option --" << key << "\n";
    }
  } catch (const Error& e) {
    err << "error: " << e.what() << "\n";
    return 2;
  }
  if (fd < 0) return 1;

  // Synchronous request/response: one in flight, so responses print in
  // input order (the concurrency story lives in bench_serve_load).
  int rc = 0;
  std::string carry;
  std::string reqline;
  while (std::getline(in, reqline)) {
    if (reqline.empty()) continue;
    if (!send_all(fd, reqline + "\n")) {
      err << "client: connection lost while sending\n";
      rc = 1;
      break;
    }
    std::string resp;
    if (!recv_line(fd, carry, resp)) {
      err << "client: connection closed before a response arrived\n";
      rc = 1;
      break;
    }
    if (extract.empty()) {
      out << resp << "\n";
      continue;
    }
    const JsonParseResult doc = json_parse(resp);
    const JsonValue* field =
        doc.value ? doc.value->find(extract) : nullptr;
    if (field != nullptr && field->is_string()) {
      out << field->as_string();
    } else {
      // Rejected requests carry no out/err; surface the whole response
      // on stderr so byte-compares fail loudly, not silently.
      err << "client: response without '" << extract << "': " << resp
          << "\n";
      rc = 1;
    }
  }
  ::close(fd);
  out.flush();
  return rc;
}

}  // namespace nvms
