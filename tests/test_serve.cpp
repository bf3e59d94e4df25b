// nvmsimd service-layer tests (ctest label `serve`): admission control,
// the JSON reader, request validation, and the daemon end-to-end over a
// unix-domain socket — including the contract the whole layer exists
// for: a daemon response's "out" field is byte-identical to the one-shot
// CLI's stdout for the same query, and malformed input always comes back
// as a structured error, never a dead process.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cli/driver.hpp"
#include "harness/admission.hpp"
#include "serve/daemon.hpp"
#include "serve/jsonv.hpp"
#include "serve/request.hpp"

namespace nvms {
namespace {

// ---------- AdmissionQueue ---------------------------------------------------

TEST(AdmissionQueue, UrgentLanesDrainFirstFifoWithin) {
  AdmissionQueue<int> q(/*capacity=*/8);
  int a = 1, b = 2, c = 3, d = 4;
  EXPECT_TRUE(q.try_push(a, /*priority=*/5));
  EXPECT_TRUE(q.try_push(b, 5));
  EXPECT_TRUE(q.try_push(c, 0));  // urgent: jumps the batch lane
  EXPECT_TRUE(q.try_push(d, 9));
  EXPECT_EQ(q.depth(), 4u);
  EXPECT_EQ(q.pop().value(), 3);
  EXPECT_EQ(q.pop().value(), 1);  // FIFO within lane 5
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_EQ(q.pop().value(), 4);
}

TEST(AdmissionQueue, FullQueueRejectsWithoutConsuming) {
  AdmissionQueue<std::string> q(/*capacity=*/1);
  std::string first = "first", second = "second";
  EXPECT_TRUE(q.try_push(first, 5));
  EXPECT_FALSE(q.try_push(second, 0));
  // The rejected item must stay intact — the daemon reuses it to build
  // the structured "queue_full" response (and to refund the budget).
  EXPECT_EQ(second, "second");
  EXPECT_EQ(q.pop().value(), "first");
}

TEST(AdmissionQueue, OutOfRangePrioritiesClampIntoLanes) {
  AdmissionQueue<int> q(/*capacity=*/4);
  int a = 1, b = 2;
  EXPECT_TRUE(q.try_push(a, -100));
  EXPECT_TRUE(q.try_push(b, 100));
  EXPECT_EQ(q.pop().value(), 1);  // clamped to lane 0
  EXPECT_EQ(q.pop().value(), 2);  // clamped to lane 9
}

TEST(AdmissionQueue, CloseDrainsThenSignalsShutdown) {
  AdmissionQueue<int> q(/*capacity=*/4);
  int a = 7;
  EXPECT_TRUE(q.try_push(a, 5));
  q.close();
  int rejected = 8;
  EXPECT_FALSE(q.try_push(rejected, 5));  // no admission after close
  EXPECT_EQ(q.pop().value(), 7);          // already-admitted work drains
  EXPECT_FALSE(q.pop().has_value());      // closed + empty -> worker exit
}

TEST(AdmissionQueue, PopBlocksUntilPushFromAnotherThread) {
  AdmissionQueue<int> q(/*capacity=*/2);
  std::thread producer([&q] {
    int v = 42;
    ASSERT_TRUE(q.try_push(v, 3));
  });
  EXPECT_EQ(q.pop().value(), 42);  // blocks until the producer lands
  producer.join();
}

// ---------- TokenBudget ------------------------------------------------------

TEST(TokenBudget, ChargesAtomicallyUpToTheAllowance) {
  TokenBudget b(/*per_client=*/10);
  EXPECT_TRUE(b.charge("alice", 6));
  EXPECT_FALSE(b.charge("alice", 5));  // all-or-nothing: 6+5 > 10
  EXPECT_TRUE(b.charge("alice", 4));
  EXPECT_EQ(b.remaining("alice"), 0u);
  EXPECT_FALSE(b.charge("alice", 1));
  // Tenancy is per client id: bob is untouched by alice's spend.
  EXPECT_TRUE(b.charge("bob", 10));
  EXPECT_EQ(b.clients(), 2u);
}

TEST(TokenBudget, RefundRestoresAllowance) {
  TokenBudget b(/*per_client=*/5);
  EXPECT_TRUE(b.charge("c", 5));
  b.refund("c", 2);
  EXPECT_EQ(b.remaining("c"), 2u);
  EXPECT_TRUE(b.charge("c", 2));
  b.refund("c", 100);  // clamped at zero, never underflows
  EXPECT_EQ(b.remaining("c"), 5u);
  b.refund("nobody", 3);  // unknown client: no-op
}

TEST(TokenBudget, ZeroAllowanceMeansUnlimited) {
  TokenBudget b(/*per_client=*/0);
  EXPECT_TRUE(b.charge("c", 1u << 30));
  EXPECT_TRUE(b.charge("c", 1u << 30));
  EXPECT_EQ(b.remaining("c"), UINT64_MAX);
}

// ---------- jsonv ------------------------------------------------------------

TEST(Jsonv, ParsesObjectsArraysAndScalars) {
  const auto r = json_parse(
      R"({"s":"hi","n":-1.5,"b":true,"z":null,"a":[1,2,3],"o":{"k":"v"}})");
  ASSERT_TRUE(r.value.has_value()) << r.error;
  const JsonValue& v = *r.value;
  EXPECT_EQ(v.find("s")->as_string(), "hi");
  EXPECT_DOUBLE_EQ(v.find("n")->as_number(), -1.5);
  EXPECT_TRUE(v.find("b")->as_bool());
  EXPECT_TRUE(v.find("z")->is_null());
  ASSERT_EQ(v.find("a")->elements().size(), 3u);
  EXPECT_DOUBLE_EQ(v.find("a")->elements()[1].as_number(), 2.0);
  EXPECT_EQ(v.find("o")->find("k")->as_string(), "v");
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Jsonv, DecodesEscapesAndSurrogatePairs) {
  const auto r = json_parse(R"({"k":"a\"b\\c\né😀"})");
  ASSERT_TRUE(r.value.has_value()) << r.error;
  // é -> U+00E9 (2 UTF-8 bytes); the surrogate pair -> U+1F600 (4).
  EXPECT_EQ(r.value->find("k")->as_string(),
            std::string("a\"b\\c\n\xc3\xa9\xf0\x9f\x98\x80"));
}

TEST(Jsonv, DuplicateKeysKeepTheLastValue) {
  const auto r = json_parse(R"({"k":1,"k":2})");
  ASSERT_TRUE(r.value.has_value());
  EXPECT_DOUBLE_EQ(r.value->find("k")->as_number(), 2.0);
}

TEST(Jsonv, FailuresAreDiagnosticsNotExceptions) {
  for (const char* bad :
       {"", "not json", "{", "[1,", R"({"k":)", R"({"k":"\q"})",
        R"({"k":"\ud83d"})",  // lone surrogate
        "{} trailing", "1e999", "nulll"}) {
    const auto r = json_parse(bad);
    EXPECT_FALSE(r.value.has_value()) << bad;
    EXPECT_NE(r.error.find("at offset"), std::string::npos) << bad;
  }
}

TEST(Jsonv, DepthLimitStopsHostileNesting) {
  std::string deep;
  for (int i = 0; i < 40; ++i) deep += "[";
  EXPECT_FALSE(json_parse(deep, /*max_depth=*/32).value.has_value());
  EXPECT_TRUE(json_parse("[[[[1]]]]", /*max_depth=*/5).value.has_value());
  EXPECT_FALSE(json_parse("[[[[1]]]]", /*max_depth=*/3).value.has_value());
}

// ---------- parse_request ----------------------------------------------------

TEST(ParseRequest, AcceptsAFullRequestAndComputesCost) {
  const auto p = parse_request(
      R"({"id":"r1","cmd":"sweep","target":"stream",)"
      R"("args":{"threads":"12,24","modes":"dram-only,uncached-nvm",)"
      R"("scale":0.25,"csv":true},"client":"alice","priority":2})");
  ASSERT_TRUE(p.request.has_value()) << p.error;
  const ServeRequest& r = *p.request;
  EXPECT_EQ(r.id, "r1");
  EXPECT_EQ(r.cmd, "sweep");
  ASSERT_EQ(r.positionals.size(), 1u);
  EXPECT_EQ(r.positionals[0], "stream");
  EXPECT_EQ(r.client, "alice");
  EXPECT_EQ(r.priority, 2);
  EXPECT_EQ(r.cost, 4u);  // 2 modes x 2 threads
  // JSON scalars arrive exactly as the CLI would have seen them in argv.
  const Options opt = options_from(r);
  EXPECT_EQ(opt.get("threads", ""), "12,24");
  EXPECT_DOUBLE_EQ(opt.get_double("scale", 0.0), 0.25);
  EXPECT_TRUE(opt.has("csv"));
}

TEST(ParseRequest, CostScalesWithTheCommand) {
  auto cost = [](const std::string& line) {
    const auto p = parse_request(line);
    EXPECT_TRUE(p.request.has_value()) << p.error;
    return p.request ? p.request->cost : ~0ull;
  };
  EXPECT_EQ(cost(R"({"cmd":"list"})"), 0u);
  EXPECT_EQ(cost(R"({"cmd":"run","target":"stream"})"), 1u);
  EXPECT_EQ(cost(R"({"cmd":"diff","targets":["stream","gups"]})"), 2u);
  EXPECT_EQ(cost(R"({"cmd":"optimize","target":"stream"})"), 4u);
  // Sweep defaults: 3 modes x 4 threads.
  EXPECT_EQ(cost(R"({"cmd":"sweep","target":"stream"})"), 12u);
  // Malformed CSV still costs its (lenient) cell count — the request is
  // admitted and then fails in the shared checked parser downstream.
  EXPECT_EQ(cost(R"({"cmd":"sweep","target":"stream",)"
                 R"("args":{"threads":"12,abc","modes":"dram-only"}})"),
            2u);
}

TEST(ParseRequest, PriorityClampsIntoTheLaneRange) {
  const auto lo = parse_request(R"({"cmd":"list","priority":-7})");
  ASSERT_TRUE(lo.request.has_value());
  EXPECT_EQ(lo.request->priority, 0);
  const auto hi = parse_request(R"({"cmd":"list","priority":99})");
  ASSERT_TRUE(hi.request.has_value());
  EXPECT_EQ(hi.request->priority, 9);
}

TEST(ParseRequest, MalformedShapesAreRejectedWithTheRecoveredId) {
  struct Case {
    const char* line;
    const char* code;
  };
  const std::vector<Case> cases = {
      {"not json at all", "malformed"},
      {"[1,2,3]", "malformed"},
      {"{}", "malformed"},                          // no cmd
      {R"({"cmd":42})", "malformed"},               // cmd not a string
      {R"({"cmd":"run","args":[1]})", "malformed"}, // args not an object
      {R"({"cmd":"run","args":{"k":[1]}})", "malformed"},  // non-scalar arg
      {R"({"cmd":"run","target":7})", "malformed"},
      {R"({"cmd":"run","targets":"stream"})", "malformed"},
      {R"({"cmd":"list","client":""})", "malformed"},
      {R"({"cmd":"list","priority":"high"})", "malformed"},
      {R"({"id":[1],"cmd":"list"})", "malformed"},  // id not a scalar
  };
  for (const Case& c : cases) {
    const auto p = parse_request(c.line);
    EXPECT_FALSE(p.request.has_value()) << c.line;
    EXPECT_EQ(p.code, c.code) << c.line;
    EXPECT_FALSE(p.error.empty()) << c.line;
  }
  // A rejected request still echoes the id it managed to recover.
  const auto p = parse_request(R"({"id":"r9","cmd":"run","target":7})");
  EXPECT_EQ(p.id, "r9");
}

TEST(ParseRequest, HostFileAccessIsForbidden) {
  // record/replay read+write host paths; never served.
  for (const char* line :
       {R"({"cmd":"record","target":"stream","args":{"out":"/tmp/x"}})",
        R"({"cmd":"replay","target":"stream"})",
        R"({"cmd":"frobnicate"})"}) {
    const auto p = parse_request(line);
    EXPECT_FALSE(p.request.has_value()) << line;
    EXPECT_EQ(p.code, "forbidden") << line;
  }
  // Server-side file options are stripped at the door...
  for (const char* key :
       {"trace", "trace-out", "metrics-out", "jsonl", "stats", "out"}) {
    EXPECT_TRUE(is_forbidden_option(key)) << key;
    const auto p = parse_request(std::string(R"({"cmd":"run","target":)") +
                                 R"("stream","args":{")" + key +
                                 R"(":"/tmp/x"}})");
    EXPECT_FALSE(p.request.has_value()) << key;
    EXPECT_EQ(p.code, "forbidden") << key;
  }
  // ...and so are targets that are not registered apps (no path probing).
  const auto p = parse_request(R"({"cmd":"run","target":"../etc/passwd"})");
  EXPECT_FALSE(p.request.has_value());
  EXPECT_EQ(p.code, "forbidden");
}

// ---------- daemon end-to-end ------------------------------------------------

/// Raw synchronous JSONL client over a unix socket.
class RawClient {
 public:
  explicit RawClient(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~RawClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool ok() const { return fd_ >= 0; }

  bool send_raw(const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
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

  /// Read one newline-terminated response (newline stripped).
  bool recv_response(std::string* line) {
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

  /// One request line in, one parsed response out.
  JsonValue roundtrip(const std::string& request) {
    EXPECT_TRUE(send_raw(request + "\n"));
    std::string line;
    EXPECT_TRUE(recv_response(&line)) << "no response to: " << request;
    const auto doc = json_parse(line);
    EXPECT_TRUE(doc.value.has_value()) << line;
    return doc.value.value_or(JsonValue());
  }

 private:
  int fd_ = -1;
  std::string carry_;
};

/// A live daemon on a unique /tmp unix socket, IO loop on its own thread.
class DaemonFixture {
 public:
  explicit DaemonFixture(ServeConfig cfg) {
    // SIGPIPE is ignored by serve_main in production; tests drive the
    // Daemon class directly, so set the disposition here.
    std::signal(SIGPIPE, SIG_IGN);
    path_ = "/tmp/nvms_test_serve_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++) + ".sock";
    cfg.socket_path = path_;
    daemon_ = std::make_unique<Daemon>(std::move(cfg));
    std::string error;
    started_ = daemon_->start(&error);
    EXPECT_TRUE(started_) << error;
    if (started_) io_ = std::thread([this] { daemon_->run(); });
  }

  ~DaemonFixture() { shutdown(); }

  /// Stop the IO loop and join it (idempotent).
  void shutdown() {
    if (io_.joinable()) {
      daemon_->stop();
      io_.join();
    }
  }

  const std::string& path() const { return path_; }
  Daemon& daemon() { return *daemon_; }

 private:
  static int counter_;
  std::string path_;
  std::unique_ptr<Daemon> daemon_;
  std::thread io_;
  bool started_ = false;
};

int DaemonFixture::counter_ = 0;

/// One-shot CLI stdout for the same query — the byte-identity oracle.
/// `err_text`, when given, receives the CLI's stderr.
std::string cli_stdout(const std::vector<std::string>& args, int expect_rc,
                       std::string* err_text = nullptr) {
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
  EXPECT_EQ(cli_main(static_cast<int>(argv.size()), argv.data(), out, err),
            expect_rc)
      << err.str();
  if (err_text != nullptr) *err_text = err.str();
  return out.str();
}

TEST(ServeDaemon, InlineCommandsAnswerWithoutTouchingTheQueue) {
  DaemonFixture d(ServeConfig{});
  RawClient c(d.path());
  ASSERT_TRUE(c.ok());

  const JsonValue pong = c.roundtrip(R"({"id":"p1","cmd":"ping"})");
  EXPECT_EQ(pong.find("id")->as_string(), "p1");
  EXPECT_TRUE(pong.find("ok")->as_bool());
  EXPECT_DOUBLE_EQ(pong.find("exit")->as_number(), 0.0);
  EXPECT_EQ(pong.find("out")->as_string(), "pong");

  const JsonValue stats = c.roundtrip(R"({"cmd":"stats"})");
  ASSERT_TRUE(stats.find("ok")->as_bool());
  const auto inner = json_parse(stats.find("out")->as_string());
  ASSERT_TRUE(inner.value.has_value()) << inner.error;
  EXPECT_DOUBLE_EQ(inner.value->find("workers")->as_number(), 2.0);
  EXPECT_NE(inner.value->find("stream_memo"), nullptr);

  const JsonValue metrics = c.roundtrip(R"({"cmd":"metrics"})");
  ASSERT_TRUE(metrics.find("ok")->as_bool());
  const std::string text = metrics.find("out")->as_string();
  // serve.* counters and the process-wide shared-cache gauges are both
  // in the exposition (stream_memo.* is published at process scope —
  // the per-task exclusion does not apply to the daemon).
  EXPECT_NE(text.find("nvms_serve_requests_total"), std::string::npos);
  EXPECT_NE(text.find("nvms_serve_queue_depth"), std::string::npos);
  EXPECT_NE(text.find("stream_memo"), std::string::npos);
}

TEST(ServeDaemon, ResponsesAreByteIdenticalToTheOneShotCli) {
  DaemonFixture d(ServeConfig{});
  RawClient c(d.path());
  ASSERT_TRUE(c.ok());

  // `list` — static output, the pure framing check.
  const JsonValue list = c.roundtrip(R"({"id":"l","cmd":"list"})");
  ASSERT_TRUE(list.find("ok")->as_bool());
  EXPECT_EQ(list.find("out")->as_string(), cli_stdout({"list"}, 0));

  // A real simulation with JSON output — the full executor path.
  const JsonValue run = c.roundtrip(
      R"({"id":"r","cmd":"run","target":"stream",)"
      R"("args":{"scale":0.25,"threads":12,"mode":"dram-only","json":true}})");
  ASSERT_TRUE(run.find("ok")->as_bool());
  EXPECT_DOUBLE_EQ(run.find("exit")->as_number(), 0.0);
  EXPECT_EQ(run.find("out")->as_string(),
            cli_stdout({"run", "stream", "--scale", "0.25", "--threads",
                        "12", "--mode", "dram-only", "--json"},
                       0));
}

TEST(ServeDaemon, MalformedRequestsGetStructuredErrorsNeverACrash) {
  DaemonFixture d(ServeConfig{});
  RawClient c(d.path());
  ASSERT_TRUE(c.ok());

  // The exact reproducer from the bug report: a malformed --threads CSV
  // reaches the executor and must come back as the CLI's own exit-2
  // diagnostic inside an ok:true envelope (the *request* was valid).
  const JsonValue sweep = c.roundtrip(
      R"({"id":"b","cmd":"sweep","target":"stream",)"
      R"("args":{"threads":"12,abc"}})");
  ASSERT_TRUE(sweep.find("ok")->as_bool());
  EXPECT_DOUBLE_EQ(sweep.find("exit")->as_number(), 2.0);
  EXPECT_NE(sweep.find("err")->as_string().find("not an integer"),
            std::string::npos);

  // An integer option outside int gets the CLI's diagnostic too.
  const JsonValue run = c.roundtrip(
      R"({"cmd":"run","target":"stream","args":{"threads":"4294967308"}})");
  ASSERT_TRUE(run.find("ok")->as_bool());
  EXPECT_DOUBLE_EQ(run.find("exit")->as_number(), 2.0);
  EXPECT_NE(run.find("err")->as_string().find(
                "option --threads is out of range"),
            std::string::npos);

  // Protocol-level garbage -> ok:false envelopes with machine codes.
  const JsonValue bad = c.roundtrip("this is not json");
  EXPECT_FALSE(bad.find("ok")->as_bool());
  EXPECT_EQ(bad.find("code")->as_string(), "malformed");

  const JsonValue rec = c.roundtrip(R"({"cmd":"record","target":"stream"})");
  EXPECT_FALSE(rec.find("ok")->as_bool());
  EXPECT_EQ(rec.find("code")->as_string(), "forbidden");

  const JsonValue probe =
      c.roundtrip(R"({"cmd":"run","target":"../etc/passwd"})");
  EXPECT_FALSE(probe.find("ok")->as_bool());
  EXPECT_EQ(probe.find("code")->as_string(), "forbidden");

  // After the whole fuzz batch the daemon still answers — nothing died.
  EXPECT_EQ(c.roundtrip(R"({"cmd":"ping"})").find("out")->as_string(),
            "pong");
}

TEST(ServeDaemon, OversizedLinesAreRejectedAndTheStreamResyncs) {
  ServeConfig cfg;
  cfg.max_line_bytes = 256;
  DaemonFixture d(cfg);
  RawClient c(d.path());
  ASSERT_TRUE(c.ok());

  // Feed 1 KiB of a single line *without* its newline: the reader's
  // buffer cap trips and answers before the line ever completes.
  ASSERT_TRUE(c.send_raw(std::string(1024, 'x')));
  std::string line;
  ASSERT_TRUE(c.recv_response(&line));
  const auto resp = json_parse(line);
  ASSERT_TRUE(resp.value.has_value());
  EXPECT_FALSE(resp.value->find("ok")->as_bool());
  EXPECT_EQ(resp.value->find("code")->as_string(), "oversized");

  // Finish the bad line; the next line parses normally again.
  ASSERT_TRUE(c.send_raw("yyy\n"));
  EXPECT_EQ(c.roundtrip(R"({"cmd":"ping"})").find("out")->as_string(),
            "pong");
}

TEST(ServeDaemon, ClientBudgetsExhaustPerTenant) {
  ServeConfig cfg;
  cfg.client_budget = 2;
  DaemonFixture d(cfg);
  RawClient c(d.path());
  ASSERT_TRUE(c.ok());

  const std::string run_alice =
      R"({"cmd":"run","target":"stream",)"
      R"("args":{"scale":0.25,"threads":12},"client":"alice"})";
  EXPECT_TRUE(c.roundtrip(run_alice).find("ok")->as_bool());
  EXPECT_TRUE(c.roundtrip(run_alice).find("ok")->as_bool());
  const JsonValue third = c.roundtrip(run_alice);
  EXPECT_FALSE(third.find("ok")->as_bool());
  EXPECT_EQ(third.find("code")->as_string(), "budget");

  // Budgets are per tenant: bob still has his own allowance, and
  // cost-0 commands (list/ping) stay free for alice.
  const std::string run_bob =
      R"({"cmd":"run","target":"stream",)"
      R"("args":{"scale":0.25,"threads":12},"client":"bob"})";
  EXPECT_TRUE(c.roundtrip(run_bob).find("ok")->as_bool());
  EXPECT_TRUE(
      c.roundtrip(R"({"cmd":"list","client":"alice"})").find("ok")->as_bool());
}

TEST(ServeDaemon, SharedResolveCacheWarmsAcrossRequests) {
  DaemonFixture d(ServeConfig{});
  RawClient c(d.path());
  ASSERT_TRUE(c.ok());

  // Memory mode: the request's DRAM-cache walks go through the shared
  // stream memo, and the second identical request replays them.
  const std::string explain =
      R"({"cmd":"explain","target":"stream",)"
      R"("args":{"scale":0.25,"threads":12,"mode":"cached-nvm",)"
      R"("resolve-cache":"shared","format":"json"}})";
  const JsonValue cold = c.roundtrip(explain);
  ASSERT_TRUE(cold.find("ok")->as_bool());
  EXPECT_DOUBLE_EQ(cold.find("exit")->as_number(), 0.0);
  const JsonValue warm = c.roundtrip(explain);
  ASSERT_TRUE(warm.find("ok")->as_bool());

  // Byte-identity is cache-independent (the determinism invariant)...
  EXPECT_EQ(cold.find("out")->as_string(), warm.find("out")->as_string());
  // ...and identical to the one-shot CLI run of the same query.
  EXPECT_EQ(cold.find("out")->as_string(),
            cli_stdout({"explain", "stream", "--scale", "0.25", "--threads",
                        "12", "--mode", "cached-nvm", "--resolve-cache",
                        "shared", "--format", "json"},
                       0));

  // The second request hit the process-lifetime stream memo.
  const JsonValue stats = c.roundtrip(R"({"cmd":"stats"})");
  const auto inner = json_parse(stats.find("out")->as_string());
  ASSERT_TRUE(inner.value.has_value());
  const JsonValue* memo = inner.value->find("stream_memo");
  ASSERT_NE(memo, nullptr);
  EXPECT_GT(memo->find("hits")->as_number(), 0.0);
}

TEST(ServeDaemon, CommandsWithoutLanesAnswerWithTheCliStderr) {
  // The daemon grants epoch-kernel lanes through the command context, not
  // by adding --intra-jobs to the request: commands that never read it
  // (list, inspect, ...) must not warn about an unused option.
  DaemonFixture d(ServeConfig{});
  RawClient c(d.path());
  ASSERT_TRUE(c.ok());

  struct Case {
    const char* request;
    std::vector<std::string> cli;
  };
  const std::vector<Case> cases = {
      {R"({"cmd":"list"})", {"list"}},
      {R"({"cmd":"inspect","target":"stream",)"
       R"("args":{"scale":0.25,"threads":12}})",
       {"inspect", "stream", "--scale", "0.25", "--threads", "12"}},
  };
  for (const Case& k : cases) {
    const JsonValue r = c.roundtrip(k.request);
    ASSERT_TRUE(r.find("ok")->as_bool()) << k.request;
    std::string cli_err;
    const std::string cli_out = cli_stdout(k.cli, 0, &cli_err);
    EXPECT_EQ(r.find("out")->as_string(), cli_out) << k.request;
    EXPECT_EQ(r.find("err")->as_string(), cli_err) << k.request;
    EXPECT_EQ(r.find("err")->as_string().find("unused option"),
              std::string::npos)
        << k.request;
  }
}

TEST(ServeDaemon, ConcurrentClientsAllGetTheSameBytes) {
  ServeConfig cfg;
  cfg.workers = 4;
  DaemonFixture d(cfg);

  const std::string expected = cli_stdout({"list"}, 0);
  constexpr int kClients = 8;
  constexpr int kRequests = 4;
  std::vector<std::thread> threads;
  std::vector<int> good(kClients, 0);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      RawClient c(d.path());
      if (!c.ok()) return;
      for (int k = 0; k < kRequests; ++k) {
        const JsonValue r = c.roundtrip(R"({"cmd":"list"})");
        const JsonValue* ok = r.find("ok");
        const JsonValue* out = r.find("out");
        if (ok != nullptr && ok->as_bool() && out != nullptr &&
            out->as_string() == expected) {
          ++good[i];
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(good[i], kRequests) << "client " << i;
  }
}

TEST(ServeDaemon, ShutdownRequestStopsTheLoopAndUnlinksTheSocket) {
  DaemonFixture d(ServeConfig{});
  {
    RawClient c(d.path());
    ASSERT_TRUE(c.ok());
    const JsonValue bye = c.roundtrip(R"({"id":"s","cmd":"shutdown"})");
    EXPECT_TRUE(bye.find("ok")->as_bool());
    EXPECT_EQ(bye.find("out")->as_string(), "shutting down");
  }
  // run() observes the stop flag within one poll tick and returns.
  d.shutdown();
  // The socket file is gone: new connections are refused.
  RawClient late(d.path());
  EXPECT_FALSE(late.ok());
}

TEST(ServeDaemon, MetricsTextCountsTraffic) {
  DaemonFixture d(ServeConfig{});
  {
    RawClient c(d.path());
    ASSERT_TRUE(c.ok());
    (void)c.roundtrip(R"({"cmd":"ping"})");
    (void)c.roundtrip("garbage");
  }
  const std::string text = d.daemon().metrics_text();
  // Two requests seen, one of them malformed.
  EXPECT_NE(text.find("nvms_serve_requests_total"), std::string::npos);
  EXPECT_NE(text.find("nvms_serve_rejected_malformed_total"),
            std::string::npos);
}

}  // namespace
}  // namespace nvms
