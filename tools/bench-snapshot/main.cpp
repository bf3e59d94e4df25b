// bench-snapshot: record and compare epoch-kernel performance snapshots.
//
// `record` replays the harvested Fig. 2 corpora (harness/kernel_bench)
// through the pre-SoA scalar kernels and the SoA kernels, plus the
// stream-memoized hot path (--resolve-cache off vs shared), and writes
// two schema-versioned JSON documents:
//
//   BENCH_epoch.json  — scalar-vs-SoA kernel throughput + speedup
//   BENCH_sweep.json  — replay throughput per resolve-cache mode
//
// Raw seconds do not survive a change of host, so every gated metric is
// *machine-normalized*: work per calibration unit, where one unit is the
// measured duration of a fixed integer spin loop (calibrate_baseline()).
// Host speed cancels out of the ratio; kernel regressions do not.
//
// `compare` reads the gate block of a committed baseline and a freshly
// recorded snapshot and fails (exit 1) when any gated metric drops more
// than --tolerance percent below the baseline, or when a parity flag
// (identical resolution folds across kernels/modes) is false.  CI runs
// this against the committed snapshots on every push.
#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness/kernel_bench.hpp"
#include "memsim/resolve.hpp"
#include "simcore/json.hpp"
#include "simcore/thread_pool.hpp"

namespace {

using namespace nvms;

constexpr int kSchemaVersion = 1;

// ---------------------------------------------------------------------------
// Minimal JSON reader: flattens objects into dotted-path -> scalar maps.
// Only what the snapshot schema needs (objects, numbers, bools, strings);
// arrays are rejected, which doubles as a schema check.

struct FlatDoc {
  std::map<std::string, double> nums;
  std::map<std::string, bool> bools;
  std::map<std::string, std::string> strs;
};

struct Parser {
  const std::string& s;
  std::size_t i = 0;
  std::string err;

  void skip_ws() {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  }
  bool fail(const std::string& m) {
    if (err.empty()) err = m + " at offset " + std::to_string(i);
    return false;
  }
  bool parse_string(std::string* out) {
    if (s[i] != '"') return fail("expected string");
    ++i;
    out->clear();
    while (i < s.size() && s[i] != '"') {
      if (s[i] == '\\') {
        ++i;
        if (i >= s.size()) return fail("bad escape");
        switch (s[i]) {
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          default: out->push_back(s[i]); break;
        }
      } else {
        out->push_back(s[i]);
      }
      ++i;
    }
    if (i >= s.size()) return fail("unterminated string");
    ++i;
    return true;
  }
  bool parse_value(const std::string& path, FlatDoc* doc) {
    skip_ws();
    if (i >= s.size()) return fail("unexpected end");
    const char c = s[i];
    if (c == '{') return parse_object(path, doc);
    if (c == '"') {
      std::string v;
      if (!parse_string(&v)) return false;
      doc->strs[path] = v;
      return true;
    }
    if (std::strncmp(s.c_str() + i, "true", 4) == 0) {
      doc->bools[path] = true;
      i += 4;
      return true;
    }
    if (std::strncmp(s.c_str() + i, "false", 5) == 0) {
      doc->bools[path] = false;
      i += 5;
      return true;
    }
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      char* end = nullptr;
      const double v = std::strtod(s.c_str() + i, &end);
      if (end == s.c_str() + i) return fail("bad number");
      doc->nums[path] = v;
      i = static_cast<std::size_t>(end - s.c_str());
      return true;
    }
    return fail("unsupported JSON value (arrays are not part of the schema)");
  }
  bool parse_object(const std::string& path, FlatDoc* doc) {
    ++i;  // '{'
    skip_ws();
    if (i < s.size() && s[i] == '}') {
      ++i;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(&key)) return false;
      skip_ws();
      if (i >= s.size() || s[i] != ':') return fail("expected ':'");
      ++i;
      if (!parse_value(path.empty() ? key : path + "." + key, doc)) {
        return false;
      }
      skip_ws();
      if (i < s.size() && s[i] == ',') {
        ++i;
        continue;
      }
      if (i < s.size() && s[i] == '}') {
        ++i;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }
};

bool read_snapshot(const std::string& path, FlatDoc* doc, std::string* err) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *err = "cannot open " + path;
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  Parser p{text, 0, {}};
  p.skip_ws();
  if (!p.parse_value("", doc)) {
    *err = path + ": " + p.err;
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// record

Json result_json(const ReplayResult& r) {
  Json j;
  j.set("seconds", r.seconds);
  j.set("epochs", r.epochs);
  j.set("epochs_per_s", r.epochs_per_s());
  j.set("sim_gb_per_s", r.stream_gbs());
  j.set("time_fold", r.time_fold);
  return j;
}

bool write_doc(const std::string& path, const Json& doc) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "bench-snapshot: cannot write %s\n", path.c_str());
    return false;
  }
  out << doc.dump(2) << "\n";
  return out.good();
}

// One timed replay is vulnerable to scheduler noise, and noise only
// ever slows a run — so every recorded number is the fastest of
// `attempts` independent replays.  Determinism makes the pick safe:
// the resolution fold is byte-identical across attempts (fresh systems,
// same seeds), only the wall time varies.
template <typename Replay>
ReplayResult best_of(int attempts, Replay&& replay) {
  ReplayResult best = replay();
  for (int a = 1; a < attempts; ++a) {
    const ReplayResult r = replay();
    if (r.seconds < best.seconds) best = r;
  }
  return best;
}

int cmd_record(bool quick, int repeat, int attempts,
               const std::string& out_dir) {
  const std::string corpus_name = quick ? "fig2-quick" : "fig2";
  std::fprintf(stderr, "bench-snapshot: harvesting %s corpora...\n",
               corpus_name.c_str());
  const auto corpora = fig2_corpora(quick);
  std::fprintf(stderr, "bench-snapshot: calibrating baseline unit...\n");
  const double unit_s = calibrate_baseline();

  // Epoch snapshot: scalar reference vs SoA kernels, raw (no memo).
  std::fprintf(stderr,
               "bench-snapshot: replaying kernels (repeat %d, best of %d)...\n",
               repeat, attempts);
  set_reference_kernels(true);
  const ReplayResult ref =
      best_of(attempts, [&] { return replay_corpora(corpora, repeat); });
  set_reference_kernels(false);
  const ReplayResult soa =
      best_of(attempts, [&] { return replay_corpora(corpora, repeat); });
  const bool epoch_parity = ref.time_fold == soa.time_fold;

  // Intra-run lane scaling of the SoA kernel over the same corpora.
  // Recorded per width as nested objects (the snapshot schema has no
  // arrays).  The speedup gate is downside-only: on a small host the
  // wide replays are oversubscribed threads and the recorded ratio
  // hovers near 1.0, a floor any host can match; the parity flag is
  // host-independent — folds must be byte-identical at every width.
  std::fprintf(stderr, "bench-snapshot: replaying intra-lane widths...\n");
  Json intra;
  intra.set("host_cores", ThreadPool::default_jobs());
  double intra_w1_s = 0.0;
  double intra_w8_s = 0.0;
  bool intra_parity = true;
  for (const int w : {1, 2, 4, 8}) {
    const ReplayResult r = best_of(attempts, [&] {
      return replay_corpora(corpora, repeat, ResolveCacheMode::kOff, w);
    });
    if (w == 1) intra_w1_s = r.seconds;
    if (w == 8) intra_w8_s = r.seconds;
    intra_parity = intra_parity && r.time_fold == soa.time_fold;
    intra.set("w" + std::to_string(w), result_json(r));
  }

  Json epoch;
  epoch.set("schema_version", kSchemaVersion);
  epoch.set("kind", "nvms-bench-epoch");
  epoch.set("corpus", corpus_name);
  epoch.set("repeat", repeat);
  epoch.set("attempts", attempts);
  epoch.set("baseline_unit_s", unit_s);
  epoch.set("reference", result_json(ref));
  epoch.set("soa", result_json(soa));
  epoch.set("intra", intra);
  {
    Json gate;
    gate.set("speedup_vs_reference", ref.seconds / soa.seconds);
    gate.set("soa_epochs_per_unit", soa.epochs_per_s() * unit_s);
    gate.set("soa_gb_per_unit", soa.stream_gbs() * unit_s);
    gate.set("intra_speedup_w8",
             intra_w8_s > 0.0 ? intra_w1_s / intra_w8_s : 0.0);
    epoch.set("gate", gate);
  }
  {
    Json parity;
    parity.set("time_fold_identical", epoch_parity);
    parity.set("intra_fold_identical", intra_parity);
    epoch.set("parity", parity);
  }

  // Sweep snapshot: the stream-memoized hot path per resolve-cache mode
  // (SoA kernels).  With a shared cache the first repeat fills the memo
  // and the later repeats replay its trajectories, as a sweep's cells do.
  std::fprintf(stderr, "bench-snapshot: replaying resolve-cache modes...\n");
  const ReplayResult off = best_of(attempts, [&] {
    return replay_corpora(corpora, repeat, ResolveCacheMode::kOff);
  });
  const ReplayResult shared = best_of(attempts, [&] {
    return replay_corpora(corpora, repeat, ResolveCacheMode::kShared);
  });
  const bool sweep_parity = off.time_fold == shared.time_fold;

  Json sweep;
  sweep.set("schema_version", kSchemaVersion);
  sweep.set("kind", "nvms-bench-sweep");
  sweep.set("corpus", corpus_name);
  sweep.set("repeat", repeat);
  sweep.set("attempts", attempts);
  sweep.set("baseline_unit_s", unit_s);
  sweep.set("off", result_json(off));
  sweep.set("shared", result_json(shared));
  {
    Json gate;
    gate.set("epochs_per_unit_off", off.epochs_per_s() * unit_s);
    gate.set("epochs_per_unit_shared", shared.epochs_per_s() * unit_s);
    sweep.set("gate", gate);
  }
  {
    Json parity;
    parity.set("time_fold_identical", sweep_parity);
    sweep.set("parity", parity);
  }

  const std::string sep = out_dir.empty() || out_dir.back() == '/' ? "" : "/";
  if (!write_doc(out_dir + sep + "BENCH_epoch.json", epoch) ||
      !write_doc(out_dir + sep + "BENCH_sweep.json", sweep)) {
    return 1;
  }
  std::printf(
      "recorded %s: speedup %.2fx, soa %.1f epochs/unit, parity %s; "
      "intra w8 %.2fx, parity %s; "
      "sweep off/shared %.1f/%.1f epochs/unit, parity %s\n",
      corpus_name.c_str(), ref.seconds / soa.seconds,
      soa.epochs_per_s() * unit_s, epoch_parity ? "ok" : "DIVERGED",
      intra_w8_s > 0.0 ? intra_w1_s / intra_w8_s : 0.0,
      intra_parity ? "ok" : "DIVERGED", off.epochs_per_s() * unit_s,
      shared.epochs_per_s() * unit_s, sweep_parity ? "ok" : "DIVERGED");
  return (epoch_parity && intra_parity && sweep_parity) ? 0 : 1;
}

// ---------------------------------------------------------------------------
// compare

int cmd_compare(const std::string& baseline_path,
                const std::string& current_path, double tolerance_pct) {
  FlatDoc baseline, current;
  std::string err;
  if (!read_snapshot(baseline_path, &baseline, &err) ||
      !read_snapshot(current_path, &current, &err)) {
    std::fprintf(stderr, "bench-snapshot: %s\n", err.c_str());
    return 2;
  }
  for (const char* key : {"schema_version", "kind", "corpus"}) {
    const std::string k = key;
    const bool same = k == "schema_version"
                          ? baseline.nums[k] == current.nums[k]
                          : baseline.strs[k] == current.strs[k];
    if (!same) {
      std::fprintf(stderr,
                   "bench-snapshot: %s mismatch between %s and %s — "
                   "snapshots are not comparable\n",
                   key, baseline_path.c_str(), current_path.c_str());
      return 2;
    }
  }

  int violations = 0;
  // Every gated metric is work-per-unit or a pure ratio: higher is
  // better, and the tolerance band only guards the downside (a faster
  // kernel should never fail the gate).
  for (const auto& [path, base] : baseline.nums) {
    if (path.rfind("gate.", 0) != 0) continue;
    const auto it = current.nums.find(path);
    if (it == current.nums.end()) {
      std::printf("MISSING  %-28s baseline %.3f, absent in current\n",
                  path.c_str() + 5, base);
      ++violations;
      continue;
    }
    const double cur = it->second;
    const double floor = base * (1.0 - tolerance_pct / 100.0);
    const bool ok = cur >= floor;
    std::printf("%-8s %-28s baseline %10.3f  current %10.3f  (%+.1f%%)\n",
                ok ? "ok" : "REGRESSED", path.c_str() + 5, base, cur,
                base > 0.0 ? 100.0 * (cur / base - 1.0) : 0.0);
    if (!ok) ++violations;
  }
  for (const auto& [path, val] : current.bools) {
    if (path.rfind("parity.", 0) != 0) continue;
    std::printf("%-8s %-28s %s\n", val ? "ok" : "BROKEN", path.c_str() + 7,
                val ? "true" : "false");
    if (!val) ++violations;
  }
  if (violations != 0) {
    std::printf("bench-snapshot: %d gate violation(s) beyond %.0f%% "
                "tolerance\n",
                violations, tolerance_pct);
    return 1;
  }
  std::printf("bench-snapshot: all gates within %.0f%% tolerance\n",
              tolerance_pct);
  return 0;
}

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  bench-snapshot record [--quick] [--repeat N] [--attempts N]"
      " [--out DIR]\n"
      "  bench-snapshot compare BASELINE CURRENT [--tolerance PCT]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "record") {
    bool quick = false;
    int repeat = 3;
    int attempts = 3;
    std::string out_dir = ".";
    for (int a = 2; a < argc; ++a) {
      const std::string arg = argv[a];
      if (arg == "--quick") {
        quick = true;
      } else if (arg == "--repeat" && a + 1 < argc) {
        repeat = std::atoi(argv[++a]);
      } else if (arg == "--attempts" && a + 1 < argc) {
        attempts = std::atoi(argv[++a]);
      } else if (arg == "--out" && a + 1 < argc) {
        out_dir = argv[++a];
      } else {
        return usage();
      }
    }
    if (repeat < 1 || attempts < 1) return usage();
    return cmd_record(quick, repeat, attempts, out_dir);
  }
  if (cmd == "compare") {
    std::vector<std::string> paths;
    double tolerance = 20.0;
    for (int a = 2; a < argc; ++a) {
      const std::string arg = argv[a];
      if (arg == "--tolerance" && a + 1 < argc) {
        tolerance = std::atof(argv[++a]);
      } else {
        paths.push_back(arg);
      }
    }
    if (paths.size() != 2) return usage();
    return cmd_compare(paths[0], paths[1], tolerance);
  }
  return usage();
}
