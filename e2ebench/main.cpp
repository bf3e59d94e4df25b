// e2ebench command line.
//
//   e2ebench run --workload W --seed N --seconds S --trace 0|1
//                [--golden FILE] [--work-dir DIR]
//   e2ebench record-golden [--golden FILE]
//   e2ebench selftest [--golden FILE] [--work-dir DIR] [--benchmark FILE]
//
// `run` prints a host line, notes, and as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>

#include "bench.hpp"
#include "harness/kernel_bench.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: e2ebench run --workload W --seed N --seconds S "
               "--trace 0|1 [--golden FILE] [--work-dir DIR]\n"
               "       e2ebench record-golden [--golden FILE]\n"
               "       e2ebench selftest [--golden FILE] [--work-dir DIR] "
               "[--benchmark FILE]\n");
  return 2;
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Host facts printed with every result, so results from different hosts
/// are never compared silently.
void print_host(const e2e::RunOptions& opt) {
  std::printf(
      "host: {\"nproc\": %u, \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"baseline_unit_s\": %s, \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %s, \"trace\": %d}\n",
      std::thread::hardware_concurrency(), E2E_COMPILER, E2E_BUILD_TYPE,
      json_number(nvms::calibrate_baseline()).c_str(), opt.workload.c_str(),
      static_cast<unsigned long long>(opt.seed),
      json_number(opt.seconds).c_str(), opt.trace ? 1 : 0);
}

void print_result(const e2e::RunResult& res) {
  bool finite = true;
  std::string metrics;
  for (const auto& m : res.metrics.items()) {
    finite &= std::isfinite(m.value);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " +
               json_number(std::isfinite(m.value) ? m.value : 0.0) +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  const bool correct = res.correct && finite && res.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed), metrics.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  e2e::RunOptions opt;
  std::string benchmark = "BENCHMARK.json";
  std::map<std::string, std::string> kv;
  for (int a = 2; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg.rfind("--", 0) != 0 || a + 1 >= argc) return usage();
    kv[arg.substr(2)] = argv[++a];
  }
  for (const auto& [key, value] : kv) {
    char* end = nullptr;
    if (key == "workload") {
      opt.workload = value;
    } else if (key == "seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
    } else if (key == "trace") {
      opt.trace = value == "1";
      if (value != "0" && value != "1") return usage();
    } else if (key == "golden") {
      opt.golden_path = value;
    } else if (key == "work-dir") {
      opt.work_dir = value;
    } else if (key == "benchmark") {
      benchmark = value;
    } else {
      return usage();
    }
    if (end != nullptr && *end != '\0') return usage();
  }

  if (cmd == "record-golden") {
    e2e::Oracle oracle;
    e2e::record_golden(oracle);
    if (!oracle.save(opt.golden_path)) {
      std::fprintf(stderr, "e2ebench: cannot write %s\n",
                   opt.golden_path.c_str());
      return 1;
    }
    std::printf("e2ebench: %zu golden digests written to %s\n", oracle.size(),
                opt.golden_path.c_str());
    return 0;
  }
  if (cmd == "selftest") {
    return e2e::run_selftest(opt.golden_path, opt.work_dir, benchmark);
  }
  if (cmd != "run" || opt.workload.empty()) return usage();

  e2e::Oracle oracle;
  if (!oracle.load(opt.golden_path)) {
    std::fprintf(stderr, "e2ebench: cannot read golden digests %s\n",
                 opt.golden_path.c_str());
    return 2;
  }
  print_host(opt);
  const e2e::RunResult res = e2e::run_workload(opt, oracle);
  for (const auto& note : res.notes) std::printf("%s\n", note.c_str());
  if (res.attempted == 0) {
    std::fprintf(stderr, "e2ebench: no op ran\n");
    return 1;
  }
  print_result(res);
  return 0;
}
