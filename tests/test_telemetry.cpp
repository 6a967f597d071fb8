// Telemetry subsystem: registry handle semantics, shard-merge exactness,
// worker-count invariance of the deterministic "stream." counters, trace
// span nesting, and the export formats CI validates.
#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "src/common/stats.h"
#include "src/scout/experiment.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"

namespace scout {
namespace {

using telemetry::MetricsRegistry;
using telemetry::MetricsSnapshot;
using telemetry::TraceRecorder;

TEST(Metrics, RegisterOrFetchAndSnapshot) {
  MetricsRegistry reg{2};
  telemetry::Counter a = reg.counter("x.events");
  telemetry::Counter a2 = reg.counter("x.events");  // same metric
  a.add(0, 3);
  a2.add(1, 4);
  reg.set_gauge("x.level", 2.5);
  telemetry::Histogram h = reg.histogram("x.lat");
  h.record(0, 1.0);
  h.record(1, 2.0);

  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter("x.events"), 7u);
  EXPECT_DOUBLE_EQ(snap.gauge("x.level"), 2.5);
  ASSERT_NE(snap.histogram("x.lat"), nullptr);
  EXPECT_EQ(snap.histogram("x.lat")->count(), 2u);
  // Unknown names are zeros, not errors.
  EXPECT_EQ(snap.counter("no.such"), 0u);
  EXPECT_EQ(snap.histogram("no.such"), nullptr);

  reg.reset();
  const MetricsSnapshot zeroed = reg.snapshot();
  EXPECT_EQ(zeroed.counter("x.events"), 0u);
  EXPECT_EQ(zeroed.histogram("x.lat")->count(), 0u);
  a.add(0, 1);  // handles stay valid across reset
  EXPECT_EQ(reg.snapshot().counter("x.events"), 1u);
}

TEST(Metrics, DefaultHandlesAreNoOps) {
  telemetry::Counter c;
  telemetry::Gauge g;
  telemetry::Histogram h;
  EXPECT_FALSE(static_cast<bool>(c));
  EXPECT_FALSE(static_cast<bool>(g));
  EXPECT_FALSE(static_cast<bool>(h));
  // Must not crash.
  c.add(0, 5);
  c.add(7);
  g.set(1.0);
  g.add(2.0);
  h.record(0, 3.0);
  h.record(4.0);
}

TEST(Metrics, ShardMergeIsExact) {
  // The same samples recorded through 4 shards and through 1 shard must
  // merge to identical histograms (LogHistogram merge is exact on bucket
  // counts) and identical counter totals.
  MetricsRegistry sharded{4};
  MetricsRegistry serial{1};
  telemetry::Histogram hs = sharded.histogram("lat");
  telemetry::Histogram h1 = serial.histogram("lat");
  telemetry::Counter cs = sharded.counter("n");
  telemetry::Counter c1 = serial.counter("n");
  for (int i = 0; i < 1000; ++i) {
    const double v = 0.001 * static_cast<double>(i * i % 9973);
    hs.record(static_cast<std::size_t>(i % 4), v);
    h1.record(0, v);
    cs.inc(static_cast<std::size_t>(i % 4));
    c1.inc(0);
  }
  const MetricsSnapshot a = sharded.snapshot();
  const MetricsSnapshot b = serial.snapshot();
  EXPECT_EQ(a.counter("n"), b.counter("n"));
  ASSERT_NE(a.histogram("lat"), nullptr);
  ASSERT_NE(b.histogram("lat"), nullptr);
  EXPECT_TRUE(*a.histogram("lat") == *b.histogram("lat"));
}

TEST(Metrics, BenchKeyMapsDotsToUnderscores) {
  EXPECT_EQ(telemetry::bench_key("bdd.unique_load"), "bdd_unique_load");
  EXPECT_EQ(telemetry::bench_key("stream.full_rebuilds"),
            "stream_full_rebuilds");
}

TEST(Metrics, BenchKeySanitizesEverySeparatorPrometheusRejects) {
  // bench_key is the single name-mangling rule shared by the bench
  // records and the Prometheus exposition: '.', '-', '/' all flatten.
  EXPECT_EQ(telemetry::bench_key("tcam.evictions.lru-touch"),
            "tcam_evictions_lru_touch");
  EXPECT_EQ(telemetry::bench_key("io/read.bytes"), "io_read_bytes");
}

TEST(Metrics, PrometheusExpositionConformance) {
  MetricsRegistry reg{1};
  reg.add_counter("tcam.evictions.lru-touch", 5);
  reg.add_counter("stream.batches", 3);
  reg.set_gauge("health.status", 1.0);
  reg.histogram("stream.wall_latency_ms").record(2.0);
  const std::string prom = reg.snapshot().to_prometheus();

  // Every series carries a # HELP line and a # TYPE line, in that order,
  // under the sanitized name.
  for (const char* series :
       {"scout_tcam_evictions_lru_touch", "scout_stream_batches",
        "scout_health_status", "scout_stream_wall_latency_ms"}) {
    const std::string help = std::string{"# HELP "} + series + " ";
    const std::string type = std::string{"# TYPE "} + series + " ";
    const std::size_t help_at = prom.find(help);
    const std::size_t type_at = prom.find(type);
    EXPECT_NE(help_at, std::string::npos) << series;
    EXPECT_NE(type_at, std::string::npos) << series;
    EXPECT_LT(help_at, type_at) << series;
  }
  EXPECT_NE(prom.find("# TYPE scout_tcam_evictions_lru_touch counter"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE scout_health_status gauge"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE scout_stream_wall_latency_ms summary"),
            std::string::npos);

  // No exported name may contain a character outside [a-zA-Z0-9_:].
  std::size_t pos = 0;
  while ((pos = prom.find("scout_", pos)) != std::string::npos) {
    std::size_t end = pos;
    while (end < prom.size() &&
           (std::isalnum(static_cast<unsigned char>(prom[end])) != 0 ||
            prom[end] == '_' || prom[end] == ':')) {
      ++end;
    }
    // The name terminates at whitespace, '{', or the line break.
    EXPECT_TRUE(end == prom.size() || prom[end] == ' ' ||
                prom[end] == '{' || prom[end] == '\n')
        << "unsanitized char '" << prom[end] << "' after "
        << prom.substr(pos, end - pos);
    pos = end;
  }
}

// Satellite: per-switch churn gauges are capped at the K busiest switches
// with the remainder conserved in stream.churn.other — cardinality stays
// O(K), not O(fabric), and nothing is silently dropped.
TEST(Telemetry, ChurnGaugeCardinalityCappedWithConservation) {
  MonitoringOptions options;
  options.profile = GeneratorProfile::scaled(16);
  options.profile.target_pairs = 16 * 30;
  options.events = 200;
  options.batch_ops = 12;
  options.seed = 21;
  options.localize_final = false;
  runtime::SerialExecutor executor;

  auto churn_sum = [](const MetricsSnapshot& snap) {
    double total = 0;
    for (const auto& g : snap.gauges) {
      if (g.name.rfind("stream.churn.sw", 0) == 0 ||
          g.name == "stream.churn.other") {
        total += g.value;
      }
    }
    return total;
  };
  auto nonzero_sw_gauges = [](const MetricsSnapshot& snap) {
    std::size_t n = 0;
    for (const auto& g : snap.gauges) {
      if (g.name.rfind("stream.churn.sw", 0) == 0 && g.value > 0) ++n;
    }
    return n;
  };

  MonitoringOptions capped = options;
  capped.churn_top_k = 4;
  const MonitoringReport small = run_continuous_monitoring(capped, executor);
  EXPECT_LE(nonzero_sw_gauges(small.telemetry), 4u);

  MonitoringOptions uncapped = options;
  uncapped.churn_top_k = 1024;  // larger than any fabric here
  const MonitoringReport big = run_continuous_monitoring(uncapped, executor);
  EXPECT_DOUBLE_EQ(big.telemetry.gauge("stream.churn.other"), 0.0);
  EXPECT_GT(nonzero_sw_gauges(big.telemetry), 4u);

  // Same seed, same churn: top-K + other must conserve the total.
  EXPECT_DOUBLE_EQ(churn_sum(small.telemetry), churn_sum(big.telemetry));
  EXPECT_GT(churn_sum(small.telemetry), 0.0);
  EXPECT_GT(small.telemetry.gauge("stream.churn.other"), 0.0);
  // The capped run's digest is the uncapped run's digest: gauge
  // cardinality is pure telemetry.
  EXPECT_EQ(small.verdict_digest, big.verdict_digest);
}

TEST(Metrics, ExportFormats) {
  MetricsRegistry reg{1};
  reg.add_counter("stream.batches", 3);
  reg.set_gauge("bdd.unique_load", 0.5);
  reg.histogram("stream.wall_latency_ms").record(1.5);
  const MetricsSnapshot snap = reg.snapshot();

  const std::string prom = snap.to_prometheus();
  EXPECT_NE(prom.find("scout_stream_batches 3"), std::string::npos);
  EXPECT_NE(prom.find("scout_bdd_unique_load"), std::string::npos);

  const std::string json = snap.to_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"stream.batches\""), std::string::npos);
  EXPECT_NE(json.find("\"stream.wall_latency_ms\""), std::string::npos);
}

// The "stream." counters are pure functions of the event stream: the same
// scenario at 1/2/4 workers, incremental and full mode, must snapshot
// identical deterministic counters (timing histograms are exempt).
TEST(Telemetry, StreamCountersWorkerCountInvariant) {
  MonitoringOptions options;
  options.profile = GeneratorProfile::scaled(10);
  options.profile.target_pairs = 10 * 40;
  options.events = 120;
  options.batch_ops = 12;
  options.seed = 17;
  options.localize_final = false;

  std::vector<MetricsSnapshot::CounterValue> expected;
  bool first = true;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    const auto executor = runtime::make_executor(threads);
    const MonitoringReport report =
        run_continuous_monitoring(options, *executor);
    const auto got = report.telemetry.counters_with_prefix("stream.");
    ASSERT_FALSE(got.empty());
    EXPECT_GT(report.telemetry.counter("stream.events_drained"), 0u);
    if (first) {
      expected = got;
      first = false;
      continue;
    }
    ASSERT_EQ(got.size(), expected.size()) << "threads " << threads;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].name, expected[i].name) << "threads " << threads;
      EXPECT_EQ(got[i].value, expected[i].value)
          << got[i].name << " at threads " << threads;
    }
  }
}

TEST(Telemetry, MonitorTraceSpansNestAndExport) {
  MonitoringOptions options;
  options.profile = GeneratorProfile::scaled(8);
  options.profile.target_pairs = 8 * 30;
  options.events = 60;
  options.batch_ops = 12;
  options.seed = 9;
  options.localize_final = false;
  options.collect_trace = true;
  // One churn interval publishes far more than 60 events on this fabric
  // (its control ops republish whole switches), so the run is one batch.
  options.snapshot_every_batches = 1;
  runtime::SerialExecutor executor;
  const MonitoringReport report =
      run_continuous_monitoring(options, executor);

  // The trace JSON is a Chrome trace-event object with the metrics
  // snapshot embedded (CI parses it with python -m json.tool).
  ASSERT_FALSE(report.trace_json.empty());
  EXPECT_EQ(report.trace_json.front(), '{');
  EXPECT_NE(report.trace_json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(report.trace_json.find("\"prime\""), std::string::npos);
  EXPECT_NE(report.trace_json.find("\"drain\""), std::string::npos);
  EXPECT_NE(report.trace_json.find("\"metrics\""), std::string::npos);
  EXPECT_GT(report.periodic_snapshot_count, 0u);
}

TEST(Telemetry, TraceScopesNestWithinLane) {
  TraceRecorder rec{2};
  {
    TraceRecorder::Scope outer = rec.span(0, "outer", "test", SimTime{100});
    {
      TraceRecorder::Scope inner =
          rec.span(0, "inner", "test", SimTime{110}, /*batch=*/3);
      inner.set_sim_end(SimTime{120});
    }
    rec.instant(1, "marker", "test", SimTime{115}, "why");
    outer.set_sim_end(SimTime{130});
  }
  const auto spans = rec.spans();
  ASSERT_EQ(spans.size(), 2u);
  // Sorted by wall start: outer opened first.
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[1].name, "inner");
  // Proper nesting: inner starts after outer and closes before it.
  EXPECT_GE(spans[1].wall_start_us, spans[0].wall_start_us);
  EXPECT_LE(spans[1].wall_start_us + spans[1].wall_dur_us,
            spans[0].wall_start_us + spans[0].wall_dur_us);
  EXPECT_EQ(spans[1].batch, 3);
  EXPECT_EQ(spans[1].sim_end_ms, 120);
  const auto instants = rec.instants();
  ASSERT_EQ(instants.size(), 1u);
  EXPECT_EQ(instants[0].lane, 1u);
  EXPECT_EQ(instants[0].detail, "why");

  rec.reset();
  EXPECT_TRUE(rec.spans().empty());
  EXPECT_TRUE(rec.instants().empty());
}

}  // namespace
}  // namespace scout
