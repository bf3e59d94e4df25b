// Tests for the option parser and the nvmsim command-line driver.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <vector>

#include "cli/driver.hpp"
#include "cli/options.hpp"
#include "cli/parse.hpp"
#include "simcore/error.hpp"
#include "simcore/units.hpp"

namespace nvms {
namespace {

/// argv helper: keeps the strings alive for the call.
struct Argv {
  explicit Argv(std::vector<std::string> args) : strings(std::move(args)) {
    for (auto& s : strings) ptrs.push_back(s.data());
  }
  int argc() const { return static_cast<int>(ptrs.size()); }
  char** argv() { return ptrs.data(); }
  std::vector<std::string> strings;
  std::vector<char*> ptrs;
};

int run_cli(std::vector<std::string> args, std::string* out_text = nullptr,
            std::string* err_text = nullptr) {
  args.insert(args.begin(), "nvmsim");
  Argv a(std::move(args));
  std::ostringstream out;
  std::ostringstream err;
  const int rc = cli_main(a.argc(), a.argv(), out, err);
  if (out_text != nullptr) *out_text = out.str();
  if (err_text != nullptr) *err_text = err.str();
  return rc;
}

// ---------- option parser -------------------------------------------------

TEST(Options, PositionalAndKeyValue) {
  Argv a({"prog", "run", "xsbench", "--threads", "24", "--flag"});
  const auto opt = Options::parse(a.argc(), a.argv(), 1);
  ASSERT_EQ(opt.positional().size(), 2u);
  EXPECT_EQ(opt.positional()[0], "run");
  EXPECT_EQ(opt.get_int("threads", 0), 24);
  EXPECT_TRUE(opt.has("flag"));
  EXPECT_EQ(opt.get("flag", ""), "true");
}

TEST(Options, TypedAccessorsAndDefaults) {
  Argv a({"prog", "--scale", "2.5"});
  const auto opt = Options::parse(a.argc(), a.argv(), 1);
  EXPECT_DOUBLE_EQ(opt.get_double("scale", 1.0), 2.5);
  EXPECT_EQ(opt.get_int("missing", 7), 7);
  EXPECT_EQ(opt.get("missing", "x"), "x");
}

TEST(Options, RejectsMalformedNumbers) {
  Argv a({"prog", "--threads", "many"});
  const auto opt = Options::parse(a.argc(), a.argv(), 1);
  EXPECT_THROW(opt.get_int("threads", 0), ConfigError);
}

TEST(Options, RejectsTrailingGarbage) {
  // std::strtol/strtod stop at the first bad byte; the checked parsers
  // must treat a partial match as an error, not a silent truncation.
  Argv a({"prog", "--threads", "10xyz", "--scale", "1.5q"});
  const auto opt = Options::parse(a.argc(), a.argv(), 1);
  EXPECT_THROW(opt.get_int("threads", 0), ConfigError);
  EXPECT_THROW(opt.get_double("scale", 1.0), ConfigError);
}

TEST(Options, FromMapMatchesParse) {
  const auto opt = Options::from_map(
      {{"threads", "24"}, {"flag", "true"}}, {"xsbench"});
  ASSERT_EQ(opt.positional().size(), 1u);
  EXPECT_EQ(opt.positional()[0], "xsbench");
  EXPECT_EQ(opt.get_int("threads", 0), 24);
  EXPECT_TRUE(opt.has("flag"));
}

TEST(Options, TracksUnusedKeys) {
  Argv a({"prog", "--used", "1", "--typo", "2"});
  const auto opt = Options::parse(a.argc(), a.argv(), 1);
  (void)opt.get_int("used", 0);
  const auto unused = opt.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

// ---------- checked scalar parsers (cli/parse.hpp) ------------------------

TEST(Parse, LongIsTotal) {
  EXPECT_EQ(parse_long("12"), 12);
  EXPECT_EQ(parse_long("-3"), -3);
  EXPECT_EQ(parse_long("0"), 0);
  for (const char* bad :
       {"", " 12", "12 ", "12x", "x12", "1.5", "999999999999999999999"}) {
    EXPECT_FALSE(parse_long(bad).has_value()) << bad;
  }
}

TEST(Parse, DoubleIsTotal) {
  EXPECT_DOUBLE_EQ(parse_double("1.5").value(), 1.5);
  EXPECT_DOUBLE_EQ(parse_double("-2e3").value(), -2000.0);
  for (const char* bad : {"", " 1", "1.5q", "q1.5", "inf", "nan", "1e999"}) {
    EXPECT_FALSE(parse_double(bad).has_value()) << bad;
  }
}

TEST(Parse, IntCsvReportsTheBadCell) {
  std::string why;
  const auto ok = parse_int_csv("12,24,36", 1, &why);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(*ok, (std::vector<int>{12, 24, 36}));
  struct Case {
    const char* input;
    const char* reason;
  };
  for (const Case& c : {Case{"12,abc", "'abc' is not an integer"},
                        Case{"12,,24", "empty cell"},
                        Case{"0", "below the minimum"},
                        Case{"-3", "below the minimum"},
                        Case{"12,", "trailing comma"},
                        Case{"", "empty list"}}) {
    EXPECT_FALSE(parse_int_csv(c.input, 1, &why).has_value()) << c.input;
    EXPECT_NE(why.find(c.reason), std::string::npos)
        << c.input << " -> " << why;
  }
}

TEST(Parse, BudgetSpecHandlesSuffixesAndRejectsGarbage) {
  const std::uint64_t cap = 1000;
  EXPECT_EQ(parse_budget_spec("35%", cap, nullptr).value(), 350u);
  EXPECT_EQ(parse_budget_spec("512", cap, nullptr).value(), 512u);
  EXPECT_EQ(parse_budget_spec("10KiB", cap, nullptr).value(), 10 * KiB);
  EXPECT_EQ(parse_budget_spec("2MiB", cap, nullptr).value(), 2 * MiB);
  EXPECT_EQ(parse_budget_spec("1GiB", cap, nullptr).value(), 1 * GiB);
  std::string why;
  for (const char* bad :
       {"10xyz", "1.5q", "-1", "0%", "101%", "inf", "nan", "", "KiB"}) {
    EXPECT_FALSE(parse_budget_spec(bad, cap, &why).has_value()) << bad;
    EXPECT_FALSE(why.empty()) << bad;
  }
}

// ---------- driver ----------------------------------------------------------

TEST(Cli, ListShowsAllApps) {
  std::string out;
  EXPECT_EQ(run_cli({"list"}, &out), 0);
  for (const char* app : {"hacc", "laghos", "scalapack", "xsbench", "hypre",
                          "superlu", "boxlib", "ft"}) {
    EXPECT_NE(out.find(app), std::string::npos) << app;
  }
}

TEST(Cli, DevicesShowsCalibration) {
  std::string out;
  EXPECT_EQ(run_cli({"devices"}, &out), 0);
  EXPECT_NE(out.find("304.0 ns"), std::string::npos);
  EXPECT_NE(out.find("39.00 GB/s"), std::string::npos);
}

TEST(Cli, RunProducesReport) {
  std::string out;
  EXPECT_EQ(run_cli({"run", "hacc", "--threads", "12"}, &out), 0);
  EXPECT_NE(out.find("hacc"), std::string::npos);
  EXPECT_NE(out.find("runtime"), std::string::npos);
  EXPECT_NE(out.find("uncached-nvm"), std::string::npos);
}

TEST(Cli, RunWritesTraceCsv) {
  const std::string path = "/tmp/nvms_cli_test_trace.csv";
  std::remove(path.c_str());
  std::string out;
  EXPECT_EQ(run_cli({"run", "laghos", "--trace", path}, &out), 0);
  FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char header[80] = {};
  ASSERT_NE(std::fgets(header, sizeof header, f), nullptr);
  EXPECT_NE(std::string(header).find("t_s,dram_read_gbs"),
            std::string::npos);
  std::fclose(f);
  std::remove(path.c_str());
}

TEST(Cli, SweepRunsMatrix) {
  std::string out;
  EXPECT_EQ(run_cli({"sweep", "hacc", "--threads", "12,36", "--modes",
                     "dram-only,uncached-nvm"},
                    &out),
            0);
  // header + separator + 4 rows + blank + executor summary
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 8);
  EXPECT_NE(out.find("executor: 4 task(s)"), std::string::npos);
}

TEST(Cli, SweepJobsKeepsCsvByteIdentical) {
  std::string serial, parallel, err;
  EXPECT_EQ(run_cli({"sweep", "xsbench", "--threads", "12,36", "--modes",
                     "dram-only,uncached-nvm", "--jobs", "1", "--csv"},
                    &serial, &err),
            0);
  // in CSV mode the executor summary goes to stderr, stdout stays pure
  EXPECT_EQ(serial.find("executor:"), std::string::npos);
  EXPECT_NE(err.find("executor:"), std::string::npos);
  EXPECT_EQ(run_cli({"sweep", "xsbench", "--threads", "12,36", "--modes",
                     "dram-only,uncached-nvm", "--jobs", "3", "--csv"},
                    &parallel),
            0);
  EXPECT_EQ(serial, parallel);
}

TEST(Cli, SweepReportsSkippedConfigurations) {
  std::string out, err;
  EXPECT_EQ(run_cli({"sweep", "hypre", "--threads", "36", "--modes",
                     "dram-only,cached-nvm", "--scale", "3.0"},
                    &out, &err),
            0);
  EXPECT_NE(err.find("skipped 1 configuration"), std::string::npos);
  EXPECT_NE(err.find("dram-only threads=36"), std::string::npos);
}

TEST(Cli, SweepWritesStatsCsv) {
  const std::string path = "/tmp/nvms_cli_test_stats.csv";
  std::remove(path.c_str());
  std::string out;
  EXPECT_EQ(run_cli({"sweep", "hacc", "--threads", "12", "--modes",
                     "dram-only", "--jobs", "2", "--stats", path},
                    &out),
            0);
  FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char header[80] = {};
  ASSERT_NE(std::fgets(header, sizeof header, f), nullptr);
  EXPECT_NE(std::string(header).find("task,label,worker,queue_wait_s"),
            std::string::npos);
  std::fclose(f);
  std::remove(path.c_str());
}

TEST(Cli, SweepRejectsNegativeJobs) {
  std::string err;
  // Bad input is a usage error (exit 2) since the serve/CLI hardening pass.
  EXPECT_EQ(run_cli({"sweep", "hacc", "--jobs", "-2"}, nullptr, &err), 2);
  EXPECT_NE(err.find("--jobs"), std::string::npos);
}

namespace {
std::string slurp(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return "";
  std::string content;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) content.append(buf, n);
  std::fclose(f);
  return content;
}
}  // namespace

TEST(Cli, RunWritesChromeTraceAndMetrics) {
  const std::string trace = "/tmp/nvms_cli_obs_trace.json";
  const std::string metrics = "/tmp/nvms_cli_obs_metrics.csv";
  std::remove(trace.c_str());
  std::remove(metrics.c_str());
  std::string out;
  EXPECT_EQ(run_cli({"run", "hacc", "--threads", "12", "--trace-out", trace,
                     "--metrics-out", metrics},
                    &out),
            0);
  const std::string json = slurp(trace);
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"phase\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"resolve\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"device\""), std::string::npos);
  EXPECT_NE(json.find("wpq.util"), std::string::npos);
  const std::string csv = slurp(metrics);
  EXPECT_EQ(csv.rfind("part,metric,labels,t_s,value", 0), 0u);
  EXPECT_NE(csv.find("throttle.read"), std::string::npos);
  std::remove(trace.c_str());
  std::remove(metrics.c_str());
}

TEST(Cli, SweepTraceOutIsByteIdenticalAcrossJobs) {
  const std::string t1 = "/tmp/nvms_cli_obs_sweep1.json";
  const std::string t4 = "/tmp/nvms_cli_obs_sweep4.json";
  std::remove(t1.c_str());
  std::remove(t4.c_str());
  EXPECT_EQ(run_cli({"sweep", "hacc", "--threads", "12,24", "--modes",
                     "dram-only,uncached-nvm", "--jobs", "1", "--trace-out",
                     t1}),
            0);
  EXPECT_EQ(run_cli({"sweep", "hacc", "--threads", "12,24", "--modes",
                     "dram-only,uncached-nvm", "--jobs", "4", "--trace-out",
                     t4}),
            0);
  const std::string serial = slurp(t1);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, slurp(t4));
  // one merged part per grid cell
  EXPECT_NE(serial.find("\"name\":\"dram-only/12/1\""), std::string::npos);
  EXPECT_NE(serial.find("\"name\":\"uncached-nvm/24/1\""), std::string::npos);
  std::remove(t1.c_str());
  std::remove(t4.c_str());
}

TEST(Cli, InspectSummarizesSpansAndMetrics) {
  std::string out;
  EXPECT_EQ(run_cli({"inspect", "hacc", "--threads", "12"}, &out), 0);
  EXPECT_NE(out.find("span(s)"), std::string::npos);
  EXPECT_NE(out.find("category"), std::string::npos);
  EXPECT_NE(out.find("resolve"), std::string::npos);
  EXPECT_NE(out.find("wpq.util"), std::string::npos);
  EXPECT_NE(out.find("gauge"), std::string::npos);

  std::string err;
  EXPECT_EQ(run_cli({"inspect"}, nullptr, &err), 2);
  EXPECT_NE(err.find("missing application"), std::string::npos);
}

TEST(Cli, InspectHumanIncludesAttributionVerdict) {
  std::string out;
  EXPECT_EQ(run_cli({"inspect", "ft", "--threads", "12", "--format",
                     "human"},
                    &out),
            0);
  EXPECT_NE(out.find("(score "), std::string::npos);  // verdict headline
  EXPECT_NE(out.find("evidence:"), std::string::npos);
}

TEST(Cli, InspectJsonIsByteStableWithSortedKeys) {
  std::string a, b;
  EXPECT_EQ(
      run_cli({"inspect", "xsbench", "--threads", "12", "--format", "json"},
              &a),
      0);
  EXPECT_EQ(
      run_cli({"inspect", "xsbench", "--threads", "12", "--format", "json"},
              &b),
      0);
  EXPECT_EQ(a, b);  // byte-stable for scripting
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a.front(), '{');
  for (const char* key :
       {"\"app\"", "\"mode\"", "\"profile\"", "\"spans\"", "\"metrics\"",
        "\"runtime_s\"", "\"verdict\""}) {
    EXPECT_NE(a.find(key), std::string::npos) << key;
  }
  // Top-level keys arrive recursively sorted: "app" < "metric_count" <
  // "metrics" < "mode" < ... in document order.
  EXPECT_LT(a.find("\"app\""), a.find("\"metric_count\""));
  EXPECT_LT(a.find("\"metric_count\""), a.find("\"mode\""));

  std::string err;
  EXPECT_EQ(run_cli({"inspect", "xsbench", "--format", "yaml"}, nullptr,
                    &err),
            2);
  EXPECT_NE(err.find("unknown --format"), std::string::npos);
}

TEST(Cli, ExplainClassifiesAndDiffCompares) {
  std::string out;
  EXPECT_EQ(run_cli({"explain", "ft", "--mode", "uncached-nvm", "--scale",
                     "0.25"},
                    &out),
            0);
  EXPECT_NE(out.find("wpq-saturated"), std::string::npos);
  EXPECT_NE(out.find("evidence"), std::string::npos);

  std::string diff_out;
  EXPECT_EQ(run_cli({"diff", "ft", "ft", "--mode-a", "cached-nvm",
                     "--mode-b", "uncached-nvm", "--scale", "0.25"},
                    &diff_out),
            0);
  EXPECT_NE(diff_out.find("cached-nvm"), std::string::npos);
  EXPECT_NE(diff_out.find("uncached-nvm"), std::string::npos);

  std::string err;
  EXPECT_EQ(run_cli({"explain", "no-such-app"}, nullptr, &err), 2);
  EXPECT_EQ(run_cli({"diff", "ft"}, nullptr, &err), 2);
}

TEST(Cli, ProfileEmitsPlan) {
  std::string out;
  EXPECT_EQ(run_cli({"profile", "scalapack", "--budget", "35"}, &out), 0);
  EXPECT_NE(out.find("write-aware plan"), std::string::npos);
  EXPECT_NE(out.find("mat_c"), std::string::npos);
}

TEST(Cli, ErrorsAreReported) {
  std::string err;
  EXPECT_EQ(run_cli({"frobnicate"}, nullptr, &err), 2);
  EXPECT_NE(err.find("unknown command"), std::string::npos);
  EXPECT_EQ(run_cli({"run"}, nullptr, &err), 2);
  // An unknown app is a ConfigError — bad input, so a usage error (2).
  EXPECT_EQ(run_cli({"run", "nope"}, nullptr, &err), 2);
  EXPECT_EQ(run_cli({"run", "hacc", "--mode", "weird"}, nullptr, &err), 2);
  EXPECT_EQ(run_cli({}, nullptr, &err), 2);  // usage
}

// The negative-path table: every subcommand driven with malformed input
// must exit 2 with a diagnostic on stderr — and must never terminate the
// process via an uncaught exception (the `sweep --threads 12,abc` row is
// the exact reproducer that used to throw std::invalid_argument straight
// through cli_main; under nvmsimd that was a daemon-killer).
TEST(Cli, MalformedInputsAreUsageErrorsAcrossAllCommands) {
  struct Case {
    std::vector<std::string> args;
    const char* diagnostic;  ///< expected substring on stderr
  };
  const std::vector<Case> cases = {
      {{"sweep", "hacc", "--threads", "12,abc"}, "not an integer"},
      {{"sweep", "hacc", "--threads", "12,,24"}, "empty cell"},
      {{"sweep", "hacc", "--threads", "0"}, "below the minimum"},
      {{"sweep", "hacc", "--threads", "-3,12"}, "below the minimum"},
      {{"sweep", "hacc", "--threads", "12,"}, "trailing comma"},
      {{"sweep", "hacc", "--modes", "weird"}, "unknown mode"},
      {{"sweep", "hacc", "--jobs", "2x"}, "--jobs"},
      {{"sweep", "hacc", "--resolve-cache", "sometimes"}, "--resolve-cache"},
      {{"sweep", "hacc", "--resolve-cache=run"}, "--resolve-cache"},
      {{"run", "hacc", "--threads", "1.5"}, "--threads"},
      {{"run", "hacc", "--threads", "10xyz"}, "--threads"},
      {{"run", "hacc", "--scale", "1.5q"}, "--scale"},
      {{"run", "hacc", "--iters", "ten"}, "--iters"},
      // Values outside int: each used to wrap in a narrowing cast (12
      // threads, the app's default iterations, 1 iteration) and run.
      {{"run", "stream", "--threads", "4294967308", "--json"},
       "option --threads is out of range"},
      {{"run", "hacc", "--iters", "4294967296"},
       "option --iters is out of range"},
      {{"run", "hacc", "--iters", "4294967297"},
       "option --iters is out of range"},
      {{"run", "hacc", "--intra-jobs", "4294967297"},
       "option --intra-jobs is out of range"},
      {{"sweep", "hacc", "--jobs", "4294967297"},
       "option --jobs is out of range"},
      {{"sweep", "hacc", "--threads", "4294967308"}, "out of range"},
      {{"explain", "ft", "--threads", "4294967308"},
       "option --threads is out of range"},
      {{"diff", "ft", "ft", "--jobs", "4294967297"},
       "option --jobs is out of range"},
      {{"inspect", "hacc", "--iters", "-4294967296"},
       "option --iters is out of range"},
      {{"optimize", "ft", "--scale", "0.25", "--jobs", "4294967297"},
       "option --jobs is out of range"},
      {{"run", "hacc", "--mode", "bogus"}, "unknown mode"},
      {{"run", "hacc", "--numa", "diagonal"}, "--numa"},
      {{"inspect", "hacc", "--format", "yaml"}, "--format"},
      {{"inspect", "hacc", "--mode", "bogus"}, "unknown mode"},
      {{"explain", "no-such-app"}, "neither"},
      {{"explain", "ft", "--scale", "0.25", "--format", "xml"}, "--format"},
      {{"diff", "ft"}, "need two"},
      // --scale 0.25 keeps the (pre-budget-check) recording run cheap.
      {{"optimize", "ft", "--scale", "0.25", "--budget", "10xyz"}, "--budget"},
      {{"optimize", "ft", "--scale", "0.25", "--budget", "1.5q"}, "--budget"},
      {{"optimize", "ft", "--scale", "0.25", "--budget", "-5"}, "--budget"},
      {{"optimize", "ft", "--scale", "0.25", "--budget", "200%"}, "--budget"},
      {{"optimize", "hacc", "--mode", "bogus"}, "unknown mode"},
      {{"profile", "nope", "--budget", "35"}, "unknown app"},
      {{"profile", "hacc", "--budget", "0"}, "--budget"},
      {{"record", "hacc"}, "--out"},
      {{"replay"}, "missing trace file"},
  };
  for (const Case& c : cases) {
    std::string label;
    for (const auto& a : c.args) label += a + " ";
    std::string err;
    // run_cli reaching this EXPECT at all proves no exception escaped.
    EXPECT_EQ(run_cli(c.args, nullptr, &err), 2) << label;
    EXPECT_NE(err.find(c.diagnostic), std::string::npos)
        << label << "stderr was: " << err;
  }
}

// The stream memo is attached only where it can hit.  A multi-cell
// Memory-mode grid replays one DRAM-cache trajectory across its thread
// dimension, so a shared cache reports hits there — and the rows stay
// byte-identical.  A one-shot run and a single-cell sweep can never hit
// their own inserts, so they attach nothing and report no memo line.
//
// Only a serial grid has an exact hit count.  Concurrent cells each miss
// every key the other has not inserted yet, so at --jobs 2 the count
// depends on how the two cells interleave, and two cells that stay within
// one walk of each other miss every lookup.  At --jobs 1 the second cell
// replays the first cell's whole trajectory: xsbench's 17 lookup batches
// walk two random streams each, so 34 misses are followed by 34 hits.
TEST(Cli, SharedResolveCacheAttachesOnlyWhereItCanHit) {
  const std::vector<std::string> grid = {"sweep",   "xsbench",    "--modes",
                                         "cached-nvm", "--threads", "12,24",
                                         "--csv"};
  const auto with = [&grid](const char* jobs, const char* cache) {
    auto args = grid;
    args.insert(args.end(), {"--jobs", jobs, "--resolve-cache", cache});
    return args;
  };
  std::string off_csv, off_err;
  ASSERT_EQ(run_cli(with("2", "off"), &off_csv, &off_err), 0) << off_err;
  EXPECT_EQ(off_err.find("stream-memo"), std::string::npos);

  std::string concurrent_csv, concurrent_err;
  ASSERT_EQ(run_cli(with("2", "shared"), &concurrent_csv, &concurrent_err), 0)
      << concurrent_err;
  EXPECT_EQ(concurrent_csv, off_csv);
  EXPECT_NE(concurrent_err.find("stream-memo: "), std::string::npos)
      << concurrent_err;

  std::string serial_csv, serial_err;
  ASSERT_EQ(run_cli(with("1", "shared"), &serial_csv, &serial_err), 0)
      << serial_err;
  EXPECT_EQ(serial_csv, off_csv);
  EXPECT_NE(serial_err.find("stream-memo: 34 hit(s), 34 miss(es)"),
            std::string::npos)
      << serial_err;

  for (const std::vector<std::string>& lone :
       {std::vector<std::string>{"run", "xsbench", "--mode", "cached-nvm",
                                 "--threads", "12", "--resolve-cache",
                                 "shared"},
        std::vector<std::string>{"sweep", "xsbench", "--modes", "cached-nvm",
                                 "--threads", "12", "--resolve-cache",
                                 "shared"}}) {
    std::string err;
    EXPECT_EQ(run_cli(lone, nullptr, &err), 0) << err;
    EXPECT_EQ(err.find("stream-memo"), std::string::npos)
        << lone[0] << ": " << err;
  }
}

TEST(Cli, WarnsOnUnusedOptions) {
  std::string err;
  EXPECT_EQ(run_cli({"list", "--bogus", "1"}, nullptr, &err), 0);
  EXPECT_NE(err.find("unused option --bogus"), std::string::npos);
}

TEST(Cli, RemoteNvmIsSlower) {
  std::string local_out;
  std::string remote_out;
  EXPECT_EQ(run_cli({"run", "xsbench"}, &local_out), 0);
  EXPECT_EQ(run_cli({"run", "xsbench", "--remote-nvm"}, &remote_out), 0);
  auto fom = [](const std::string& s) {
    const auto pos = s.find("FoM");
    return std::stod(s.substr(pos + 3));
  };
  EXPECT_GT(fom(local_out), fom(remote_out));
}

TEST(Cli, RecordAndReplayRoundTrip) {
  const std::string path = "/tmp/nvms_cli_test.trace";
  std::remove(path.c_str());
  std::string out;
  EXPECT_EQ(run_cli({"record", "hacc", "--out", path, "--threads", "12"},
                    &out),
            0);
  EXPECT_NE(out.find("recorded"), std::string::npos);
  std::string replay_out;
  EXPECT_EQ(run_cli({"replay", path, "--mode", "dram-only"}, &replay_out), 0);
  EXPECT_NE(replay_out.find("replayed runtime"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, ReplayWhatIfChangesOutcome) {
  const std::string path = "/tmp/nvms_cli_whatif.trace";
  std::remove(path.c_str());
  EXPECT_EQ(run_cli({"record", "ft", "--out", path}), 0);
  std::string base;
  std::string boosted;
  EXPECT_EQ(run_cli({"replay", path}, &base), 0);
  EXPECT_EQ(run_cli({"replay", path, "--nvm-write-bw", "26"}, &boosted), 0);
  EXPECT_NE(base, boosted);
  std::remove(path.c_str());
}

TEST(Cli, RecordRequiresOutFile) {
  std::string err;
  EXPECT_EQ(run_cli({"record", "hacc"}, nullptr, &err), 2);
  EXPECT_NE(err.find("--out"), std::string::npos);
  EXPECT_EQ(run_cli({"replay", "/nonexistent/file"}, nullptr, &err), 1);
}

}  // namespace
}  // namespace nvms
