// Tests for the telemetry layer (obs/): tracer span hierarchy, the
// metrics registry, null-sink semantics, the exporters, and the wiring
// into MemorySystem / RunRecorder / the parallel executor.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "harness/executor.hpp"
#include "harness/registry.hpp"
#include "harness/sweep.hpp"
#include "mem/buffer.hpp"
#include "memsim/memory_system.hpp"
#include "obs/export.hpp"
#include "obs/telemetry.hpp"
#include "prof/run_recorder.hpp"
#include "simcore/units.hpp"

namespace nvms {
namespace {

// ---------- tracer ----------------------------------------------------------

TEST(Tracer, RecordsHierarchyDepthAndParents) {
  Tracer tr;
  const auto a = tr.begin("phase", "phase", 0.0);
  const auto b = tr.begin("resolve", "resolve", 0.0);
  const auto c = tr.begin("nvm0", "device", 0.0);
  EXPECT_EQ(tr.open_depth(), 3u);
  tr.end(c, 1.0);
  tr.end(b, 2.0);
  tr.end(a, 2.0);
  EXPECT_EQ(tr.open_depth(), 0u);

  const auto& spans = tr.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].depth, 0);
  EXPECT_EQ(spans[0].parent, Tracer::kNone);
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_EQ(spans[1].parent, a);
  EXPECT_EQ(spans[2].depth, 2);
  EXPECT_EQ(spans[2].parent, b);
  for (const auto& s : spans) EXPECT_TRUE(s.closed);
  EXPECT_DOUBLE_EQ(spans[2].t1, 1.0);
  EXPECT_EQ(tr.count("phase"), 1u);
  EXPECT_EQ(tr.count("device"), 1u);
  EXPECT_EQ(tr.count("nope"), 0u);
}

TEST(Tracer, EndClosesAbandonedDeeperScopes) {
  Tracer tr;
  const auto outer = tr.begin("outer", "phase", 0.0);
  (void)tr.begin("inner", "resolve", 0.5);  // never explicitly ended
  tr.end(outer, 2.0);
  EXPECT_EQ(tr.open_depth(), 0u);
  ASSERT_EQ(tr.spans().size(), 2u);
  EXPECT_TRUE(tr.spans()[1].closed);
  EXPECT_DOUBLE_EQ(tr.spans()[1].t1, 2.0);  // closed at the outer end
}

TEST(Tracer, AnnotationsAttachToSpans) {
  Tracer tr;
  const auto id = tr.begin("lane", "device", 0.0);
  tr.annotate(id, "read_gbs", 6.5);
  tr.annotate(id, "wpq_util", 0.8);
  tr.end(id, 1.0);
  ASSERT_EQ(tr.spans()[0].args.size(), 2u);
  EXPECT_EQ(tr.spans()[0].args[0].first, "read_gbs");
  EXPECT_DOUBLE_EQ(tr.spans()[0].args[1].second, 0.8);
}

TEST(Tracer, NullCaptureDropsEverything) {
  Tracer tr(false);
  const auto id = tr.begin("x", "phase", 0.0);
  EXPECT_EQ(id, Tracer::kNone);
  tr.annotate(id, "k", 1.0);
  tr.end(id, 1.0);
  EXPECT_TRUE(tr.spans().empty());
  EXPECT_EQ(tr.open_depth(), 0u);
}

// ---------- metrics registry ------------------------------------------------

TEST(Metrics, RegistrationDedupesOnKindNameLabels) {
  MetricsRegistry reg;
  const auto a = reg.counter("app.read_bytes");
  const auto b = reg.counter("app.read_bytes");
  EXPECT_EQ(a.index, b.index);
  const auto c = reg.counter("app.read_bytes", {{"device", "nvm0"}});
  EXPECT_NE(a.index, c.index);
  // same name, different kind -> distinct instrument
  const auto d = reg.gauge("app.read_bytes");
  EXPECT_NE(a.index, d.index);
  EXPECT_EQ(reg.metrics().size(), 3u);
}

TEST(Metrics, CanonicalLabels) {
  EXPECT_EQ(MetricsRegistry::canon_labels({}), "");
  EXPECT_EQ(MetricsRegistry::canon_labels({{"device", "nvm0"}}),
            "device=nvm0");
  EXPECT_EQ(
      MetricsRegistry::canon_labels({{"device", "nvm0"}, {"mode", "mem"}}),
      "device=nvm0,mode=mem");
}

TEST(Metrics, CounterGaugeHistogramSemantics) {
  MetricsRegistry reg;
  const auto ctr = reg.counter("bytes");
  reg.add(ctr, 100.0);
  reg.add(ctr, 50.0);
  EXPECT_DOUBLE_EQ(reg.metrics()[ctr.index].value, 150.0);
  EXPECT_EQ(reg.metrics()[ctr.index].count, 2u);
  EXPECT_DOUBLE_EQ(reg.metrics()[ctr.index].min, 50.0);
  EXPECT_DOUBLE_EQ(reg.metrics()[ctr.index].max, 100.0);

  const auto g = reg.gauge("util");
  reg.set(g, 0.25);
  reg.sample(g, 1.0, 0.75);
  const Metric& gm = reg.metrics()[g.index];
  EXPECT_DOUBLE_EQ(gm.value, 0.75);        // last wins
  ASSERT_EQ(gm.series.size(), 1u);         // only sample() records points
  EXPECT_DOUBLE_EQ(gm.series[0].t, 1.0);
  EXPECT_DOUBLE_EQ(gm.series[0].value, 0.75);

  const auto h = reg.histogram("dur");
  reg.observe(h, 1.0);
  reg.observe(h, 3.0);
  const Metric& hm = reg.metrics()[h.index];
  EXPECT_EQ(hm.count, 2u);
  EXPECT_DOUBLE_EQ(hm.mean(), 2.0);
  ASSERT_EQ(static_cast<int>(hm.buckets.size()), Metric::kBuckets);
  std::uint64_t total = 0;
  for (const auto b : hm.buckets) total += b;
  EXPECT_EQ(total, 2u);
}

TEST(Metrics, EpochSampleLandsInDeviceLabeledGauge) {
  MetricsRegistry reg;
  EpochProbe& probe = reg;
  probe.epoch_sample("wpq.util", "nvm0", 0.5, 0.9);
  probe.epoch_sample("wpq.util", "nvm0", 1.0, 0.4);
  probe.epoch_sample("wpq.util", "dram0", 1.0, 0.1);
  const Metric* m = reg.find("wpq.util", "device=nvm0");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->kind, MetricKind::kGauge);
  ASSERT_EQ(m->series.size(), 2u);
  EXPECT_DOUBLE_EQ(m->series[1].value, 0.4);
  ASSERT_NE(reg.find("wpq.util", "device=dram0"), nullptr);
  EXPECT_EQ(reg.find("wpq.util", "device=none"), nullptr);
}

TEST(Metrics, NullCaptureIsInert) {
  MetricsRegistry reg(false);
  const auto id = reg.counter("x");
  EXPECT_FALSE(id.valid());
  reg.add(id, 1.0);
  reg.sample(id, 0.0, 1.0);
  reg.epoch_sample("y", "d", 0.0, 1.0);
  EXPECT_TRUE(reg.metrics().empty());
}

// ---------- hardware-counter arithmetic -------------------------------------

TEST(Counters, DifferenceAndScaling) {
  HwCounters after;
  after.instructions = 100.0;
  after.imc_reads = 10.0;
  HwCounters before;
  before.instructions = 40.0;
  before.imc_reads = 4.0;
  const HwCounters d = after - before;
  EXPECT_DOUBLE_EQ(d.instructions, 60.0);
  EXPECT_DOUBLE_EQ(d.imc_reads, 6.0);
  const HwCounters half = d * 0.5;
  EXPECT_DOUBLE_EQ(half.instructions, 30.0);
  HwCounters acc = after;
  acc -= before;
  EXPECT_DOUBLE_EQ(acc.imc_reads, 6.0);
}

// ---------- exporters -------------------------------------------------------

/// Balanced-brace sanity for JSON emitted by the exporters (no strings in
/// our output contain braces except through Json::escape'd names).
void expect_balanced(const std::string& s) {
  int depth = 0;
  for (const char c : s) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

Telemetry make_telemetry() {
  Telemetry t;
  const auto p = t.tracer().begin("ph", "phase", 0.0);
  const auto r = t.tracer().begin("resolve", "resolve", 0.0);
  t.tracer().annotate(r, "read_gbs", 2.5);
  t.tracer().end(r, 1.0);
  t.tracer().end(p, 1.0);
  t.metrics().epoch_sample("wpq.util", "nvm0", 0.5, 0.75);
  const auto c = t.metrics().counter("app.read_bytes");
  t.metrics().add(c, 4096.0);
  return t;
}

TEST(Export, ChromeTraceShape) {
  const Telemetry t = make_telemetry();
  const std::string json = chrome_trace_json(t, "unit");
  expect_balanced(json);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"unit\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("wpq.util[device=nvm0]"), std::string::npos);
  // virtual clock only: span annotations yes, host time no
  EXPECT_NE(json.find("\"read_gbs\""), std::string::npos);
  EXPECT_EQ(json.find("host_s"), std::string::npos);

  ExportOptions opt;
  opt.include_host_time = true;
  const std::string with_host = chrome_trace_json({{"unit", &t}}, opt);
  EXPECT_NE(with_host.find("host_s"), std::string::npos);
}

TEST(Export, ChromeTraceMergesPartsInOrder) {
  const Telemetry a = make_telemetry();
  const Telemetry b = make_telemetry();
  const std::string json = chrome_trace_json({{"first", &a}, {"second", &b}});
  expect_balanced(json);
  const auto first = json.find("\"name\":\"first\"");
  const auto second = json.find("\"name\":\"second\"");
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(second, std::string::npos);
  EXPECT_LT(first, second);
  // two parts -> two pids
  EXPECT_NE(json.find("\"pid\":0"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
}

TEST(Export, JsonlOneObjectPerLine) {
  const Telemetry t = make_telemetry();
  const std::string jsonl = telemetry_jsonl(t, "unit");
  std::istringstream in(jsonl);
  std::string line;
  std::size_t n = 0;
  bool saw_span = false;
  bool saw_point = false;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    expect_balanced(line);
    saw_span |= line.find("\"type\":\"span\"") != std::string::npos;
    saw_point |= line.find("\"type\":\"point\"") != std::string::npos;
    ++n;
  }
  EXPECT_GE(n, 4u);  // part + 2 spans + 1 point
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_point);
}

TEST(Export, MetricsCsvShape) {
  const Telemetry t = make_telemetry();
  const std::string csv = metrics_csv(t, "unit");
  std::istringstream in(csv);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "part,metric,labels,t_s,value");
  std::string line;
  bool saw_series = false;
  bool saw_scalar = false;
  while (std::getline(in, line)) {
    EXPECT_EQ(line.rfind("unit,", 0), 0u) << line;
    saw_series |= line.find("wpq.util") != std::string::npos;
    saw_scalar |= line.find("app.read_bytes") != std::string::npos;
  }
  EXPECT_TRUE(saw_series);
  EXPECT_TRUE(saw_scalar);
}

TEST(Export, EmptyAndNullPartsAreHarmless) {
  const Telemetry empty;
  expect_balanced(chrome_trace_json({}));
  expect_balanced(chrome_trace_json({{"e", &empty}, {"null", nullptr}}));
  EXPECT_EQ(telemetry_jsonl({{"null", nullptr}}), "");
}

TEST(Export, HostileNamesAreJsonEscaped) {
  // Span/metric/part names under user control (trace files, app labels)
  // must never break the JSON documents: quotes, backslashes, newlines
  // and raw control characters all have to leave as escape sequences.
  const std::string hostile = "ph\"as\\e\n\tx\x07";
  Telemetry t;
  const auto id = t.tracer().begin(hostile, "phase", 0.0);
  t.tracer().annotate(id, "read_gbs", 1.0);
  t.tracer().end(id, 1.0);
  t.metrics().epoch_sample(hostile, "nvm\"0", 0.5, 2.0);

  for (const std::string& doc :
       {chrome_trace_json(t, hostile), telemetry_jsonl(t, hostile)}) {
    ASSERT_FALSE(doc.empty());
    // The escaped forms appear...
    EXPECT_NE(doc.find("ph\\\"as\\\\e\\n\\tx\\u0007"), std::string::npos)
        << doc;
    // ...and no raw control byte or unescaped interior quote survives.
    for (const char c : doc) {
      EXPECT_TRUE(static_cast<unsigned char>(c) >= 0x20 || c == '\n') << doc;
    }
    std::size_t quotes = 0;
    for (std::size_t i = 0; i < doc.size(); ++i) {
      if (doc[i] == '"') {
        std::size_t backslashes = 0;
        while (backslashes < i && doc[i - 1 - backslashes] == '\\') {
          ++backslashes;
        }
        if (backslashes % 2 == 0) ++quotes;  // a real string delimiter
      }
    }
    EXPECT_EQ(quotes % 2, 0u) << "unbalanced string quoting: " << doc;
  }
  expect_balanced(chrome_trace_json(t, hostile));
}

// ---------- MemorySystem integration ----------------------------------------

TEST(ObsWiring, SubmitOpensThreeSpanLevelsAndSamplesEpochMetrics) {
  MemorySystem sys(SystemConfig::testbed(Mode::kUncachedNvm));
  Telemetry telemetry;
  sys.set_telemetry(&telemetry);
  const auto id = sys.register_buffer("buf", 32 * MiB);
  const Phase p = PhaseBuilder("work")
                      .threads(36)
                      .flops(1e8)
                      .stream(seq_read(id, 16 * MiB))
                      .stream(seq_write(id, 4 * MiB))
                      .build();
  (void)sys.submit(p);
  (void)sys.submit(p);

  const Tracer& tr = telemetry.tracer();
  EXPECT_EQ(tr.open_depth(), 0u);
  EXPECT_EQ(tr.count("phase"), 2u);
  EXPECT_EQ(tr.count("resolve"), 2u);
  EXPECT_GE(tr.count("device"), 2u);
  int max_depth = 0;
  for (const auto& s : tr.spans()) max_depth = std::max(max_depth, s.depth);
  EXPECT_GE(max_depth, 2);  // phase > resolve > device

  const MetricsRegistry& reg = telemetry.metrics();
  const Metric* wpq = reg.find("wpq.util", "device=nvm0");
  ASSERT_NE(wpq, nullptr);
  EXPECT_EQ(wpq->series.size(), 2u);  // one sample per epoch
  ASSERT_NE(reg.find("throttle.read", "device=nvm0"), nullptr);
  ASSERT_NE(reg.find("bw.read_gbs", "device=nvm0"), nullptr);
  const Metric* hist = reg.find("phase.duration_s");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 2u);
  const Metric* rd = reg.find("app.read_bytes");
  ASSERT_NE(rd, nullptr);
  EXPECT_DOUBLE_EQ(rd->value, 2.0 * 16 * MiB);
}

TEST(ObsWiring, CachedModeEmitsCacheSignals) {
  AppConfig cfg;
  cfg.threads = 12;
  cfg.size_scale = 0.1;
  Telemetry telemetry;
  (void)run_app_on("hypre", SystemConfig::testbed(Mode::kCachedNvm), cfg,
                   &telemetry);
  const MetricsRegistry& reg = telemetry.metrics();
  const Metric* occ = reg.find("cache.occupancy", "device=dram-cache");
  ASSERT_NE(occ, nullptr);
  EXPECT_FALSE(occ->series.empty());
  ASSERT_NE(reg.find("cache.hit_rate", "device=dram-cache"), nullptr);
  ASSERT_NE(reg.find("cache.conflict_rate", "device=dram-cache"), nullptr);
}

TEST(ObsWiring, RunRecorderAttachesSpanAndEpochContext) {
  MemorySystem sys(SystemConfig::testbed(Mode::kUncachedNvm));
  Telemetry telemetry;
  sys.set_telemetry(&telemetry);
  RunRecorder rec(sys);
  const auto id = sys.register_buffer("buf", 32 * MiB);
  const Phase p = PhaseBuilder("work")
                      .threads(36)
                      .flops(1e8)
                      .stream(seq_read(id, 16 * MiB))
                      .build();
  (void)rec.submit(p);
  ASSERT_EQ(rec.samples().size(), 1u);
  const CounterSample& s = rec.samples()[0];
  ASSERT_NE(s.span_id, static_cast<std::size_t>(-1));
  ASSERT_LT(s.span_id, telemetry.tracer().spans().size());
  EXPECT_EQ(telemetry.tracer().spans()[s.span_id].category, "phase");
  EXPECT_GT(s.delta.instructions, 0.0);  // operator- delta, not a raw total
  EXPECT_GE(s.nvm_wpq_util, 0.0);
  EXPECT_GT(s.nvm_throttle, 0.0);
}

TEST(ObsWiring, TelemetryExportIsDeterministicAcrossRuns) {
  auto run = [] {
    AppConfig cfg;
    cfg.threads = 12;
    cfg.size_scale = 0.1;
    Telemetry telemetry;
    (void)run_app_on("hypre", SystemConfig::testbed(Mode::kUncachedNvm), cfg,
                     &telemetry);
    return chrome_trace_json(telemetry, "hypre") + "\n" +
           metrics_csv(telemetry, "hypre");
  };
  EXPECT_EQ(run(), run());
}

// ---------- executor + sweep merge ------------------------------------------

TEST(ObsWiring, ExecutorMergeIsByteIdenticalForAnyJobsCount) {
  std::vector<ExperimentConfig> tasks;
  for (const int threads : {12, 24, 36}) {
    ExperimentConfig t;
    t.app = "hacc";
    t.sys = SystemConfig::testbed(Mode::kUncachedNvm);
    t.cfg.threads = threads;
    t.label = "hacc/" + std::to_string(threads);
    t.telemetry = true;
    tasks.push_back(std::move(t));
  }
  const auto serial = run_experiments(tasks, 1);
  const auto parallel = run_experiments(tasks, 3);
  const auto sp = telemetry_parts(tasks, serial);
  const auto pp = telemetry_parts(tasks, parallel);
  ASSERT_EQ(sp.size(), 3u);
  ASSERT_EQ(pp.size(), 3u);
  EXPECT_EQ(chrome_trace_json(sp), chrome_trace_json(pp));
  EXPECT_EQ(metrics_csv(sp), metrics_csv(pp));
  EXPECT_EQ(telemetry_jsonl(sp), telemetry_jsonl(pp));
}

TEST(ObsWiring, SweepCollectsGridOrderedTelemetry) {
  SweepSpec spec;
  spec.app = "hacc";
  spec.modes = {Mode::kDramOnly, Mode::kUncachedNvm};
  spec.threads = {12, 24};
  spec.scales = {1.0};
  spec.telemetry = true;

  spec.jobs = 1;
  const auto serial = run_sweep(spec);
  spec.jobs = 4;
  const auto parallel = run_sweep(spec);

  ASSERT_EQ(serial.telemetry.size(), 4u);
  ASSERT_EQ(serial.telemetry_labels.size(), 4u);
  EXPECT_EQ(serial.telemetry_labels[0], "dram-only/12/1");
  EXPECT_EQ(sweep_chrome_trace(serial), sweep_chrome_trace(parallel));
  EXPECT_EQ(sweep_metrics_csv(serial), sweep_metrics_csv(parallel));

  // telemetry off -> nothing collected, no overhead surface
  spec.telemetry = false;
  EXPECT_TRUE(run_sweep(spec).telemetry.empty());
}

TEST(ObsWiring, NullTelemetryKeepsSimulationResultsIdentical) {
  AppConfig cfg;
  cfg.threads = 24;
  cfg.size_scale = 0.2;
  Telemetry null_telemetry(Telemetry::Capture::kNull);
  const auto plain =
      run_app_on("xsbench", SystemConfig::testbed(Mode::kUncachedNvm), cfg);
  const auto nulled = run_app_on(
      "xsbench", SystemConfig::testbed(Mode::kUncachedNvm), cfg,
      &null_telemetry);
  Telemetry full;
  const auto traced = run_app_on(
      "xsbench", SystemConfig::testbed(Mode::kUncachedNvm), cfg, &full);
  EXPECT_DOUBLE_EQ(plain.runtime, nulled.runtime);
  EXPECT_DOUBLE_EQ(plain.runtime, traced.runtime);
  EXPECT_TRUE(null_telemetry.tracer().spans().empty());
  EXPECT_TRUE(null_telemetry.metrics().metrics().empty());
  EXPECT_FALSE(full.tracer().spans().empty());
}

}  // namespace
}  // namespace nvms
