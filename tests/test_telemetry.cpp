// Telemetry subsystem: registry handle semantics, shard-merge exactness,
// the monitor's series read from their owners at snapshot time,
// worker-count invariance of the deterministic "stream." counters, the
// monitor's spans on the flight ring and their bounded Chrome export, the
// health grades, and the export formats CI validates.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <set>
#include <string>
#include <vector>

#include "src/common/stats.h"
#include "src/faults/fault_policy.h"
#include "src/faults/gray_faults.h"
#include "src/scout/experiment.h"
#include "src/scout/sim_network.h"
#include "src/stream/churn_generator.h"
#include "src/stream/monitor_loop.h"
#include "src/stream/mpsc_ring.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/health.h"
#include "src/telemetry/metrics.h"

namespace scout {
namespace {

using telemetry::MetricsRegistry;
using telemetry::MetricsSnapshot;

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

// Per-switch churn gauges are capped at the kChurnTopK busiest switches
// with the remainder conserved in stream.churn.other: cardinality stays
// O(K), not O(fabric), and nothing is silently dropped. On the serial
// transport every applied event is a TCAM delta, so the series sum to
// stream.events_applied.
TEST(Telemetry, ChurnGaugeCardinalityCappedWithConservation) {
  MonitoringOptions options;
  options.profile = GeneratorProfile::scaled(40);
  options.profile.target_pairs = 40 * 10;
  // Small intervals over many drains spread the churn past 32 switches.
  options.events = 10000;
  options.batch_ops = 8;
  options.seed = 21;
  options.localize_final = false;
  runtime::SerialExecutor executor;
  const MonitoringReport report = run_continuous_monitoring(options, executor);
  const MetricsSnapshot& snap = report.telemetry;

  std::size_t series = 0;
  double total = 0;
  for (const auto& g : snap.gauges) {
    if (g.name.rfind("stream.churn.sw", 0) == 0) {
      ++series;
      total += g.value;
    }
  }
  EXPECT_EQ(series, stream::MonitorLoop::kChurnTopK);
  EXPECT_GT(snap.gauge("stream.churn.other"), 0.0);
  EXPECT_GT(total, snap.gauge("stream.churn.other"));
  EXPECT_DOUBLE_EQ(total + snap.gauge("stream.churn.other"),
                   static_cast<double>(snap.counter("stream.events_applied")));
}

// The monitor's snapshot reads each owner's lifetime counts at the
// snapshot instant instead of mirroring them into the registry, so every
// owner series must equal its owner, every health grade must be the grade
// of those counts, and each name must appear once. Driven over a
// 2-publisher ring small enough to evict, with gray faults and the fifo
// eviction policy on every agent.
TEST(Telemetry, OwnerReadSeriesEqualTheirOwners) {
  GeneratorProfile profile = GeneratorProfile::scaled(8);
  profile.target_pairs = 8 * 30;
  Rng net_rng{5};
  GeneratedNetwork generated = generate_network(profile, net_rng);
  SimNetwork net{std::move(generated.fabric), std::move(generated.policy)};
  net.deploy();
  net.clock().advance(3'600'000);
  stream::EventBus bus;
  net.attach_event_bus(&bus);
  GrayFaultProfile gray;
  gray.misrender_rate = 0.3;
  gray.misrender_burst = 3;
  gray.drop_rate = 0.15;
  gray.drop_burst = 2;
  std::size_t sw_bound = 0;
  for (const auto& agent : net.agents()) {
    agent->set_gray_profile(gray, agent->id().value());
    agent->tcam().set_eviction_policy(make_eviction_policy("fifo"));
    sw_bound = std::max<std::size_t>(sw_bound, agent->id().value() + 1);
  }
  stream::MpscRing::Options ring_options;
  ring_options.shard_capacity = 8;
  ring_options.on_full = stream::MpscRing::FullPolicy::kEvictToResync;
  stream::MpscRing ring{2, sw_bound, ring_options};
  bus.attach_ring(&ring);

  runtime::SerialExecutor executor;
  MetricsRegistry registry{executor.workers()};
  stream::MonitorLoop::Options monitor_options;
  monitor_options.metrics = &registry;
  stream::MonitorLoop monitor{net, bus, executor, monitor_options};
  monitor.prime();
  stream::ConcurrentChurnDriver driver{
      net, bus, 11, stream::ConcurrentChurnDriver::Options{.publishers = 2}};

  // Checked after each churn interval (its events published but not yet
  // drained or compacted) and again after the drain.
  stream::EventBus::Cursor monitor_cursor = bus.cursor();
  const auto rate = [](std::uint64_t num, std::uint64_t den) {
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
  };
  const auto expect_owner_reads = [&](const MetricsSnapshot& snap) {
    const stream::EventBus::Stats b = bus.stats();
    EXPECT_EQ(snap.counter("stream.bus_published"), b.published);
    EXPECT_EQ(snap.counter("stream.bus_compactions"), b.compactions);
    EXPECT_EQ(snap.counter("stream.bus_compacted_events"),
              b.compacted_events);
    EXPECT_EQ(snap.counter("stream.bus_ingested"), b.ingested);
    EXPECT_EQ(snap.counter("stream.bus_resyncs_synthesized"),
              b.resyncs_synthesized);
    EXPECT_EQ(snap.gauge("stream.bus_backlog"),
              static_cast<double>(bus.retained()));
    // The monitor is the bus's one reader: it compacts to its cursor after
    // every drain, so the bus retains exactly what it has yet to drain.
    EXPECT_EQ(bus.retained(), bus.cursor() - monitor_cursor);

    const stream::MpscRing::Stats r = ring.stats();
    EXPECT_EQ(snap.counter("stream.ring_published"), r.published);
    EXPECT_EQ(snap.counter("stream.ring_drained"), r.drained);
    EXPECT_EQ(snap.counter("stream.ring_evictions"), r.evictions);
    EXPECT_EQ(snap.counter("stream.ring_full_stalls"), r.full_stalls);
    EXPECT_EQ(snap.gauge("stream.ring_high_water"),
              static_cast<double>(ring.high_water()));
    EXPECT_EQ(snap.gauge("stream.ring_occupancy"),
              static_cast<double>(ring.occupancy()));
    for (std::size_t p = 0; p < ring.publishers(); ++p) {
      EXPECT_EQ(snap.gauge("stream.ring.lag.pub" + std::to_string(p)),
                static_cast<double>(ring.published_cursor(p) -
                                    ring.drained_cursor(p)));
    }

    const stream::IncrementalChecker::Stats c = monitor.checker_stats();
    EXPECT_EQ(snap.counter("stream.initial_builds"), c.initial_builds);
    EXPECT_EQ(snap.counter("stream.events_applied"), c.events_applied);
    EXPECT_EQ(snap.counter("stream.incremental_updates"),
              c.incremental_updates);
    EXPECT_EQ(snap.counter("stream.resync_encodes"), c.resync_encodes);
    EXPECT_EQ(snap.counter("stream.full_rebuilds"), c.full_rebuilds);
    EXPECT_EQ(snap.counter("stream.epoch_rebuilds"), c.epoch_rebuilds);
    EXPECT_EQ(snap.counter("stream.threshold_trips"), c.threshold_trips);
    EXPECT_EQ(snap.counter("stream.unsafe_rebuilds"), c.unsafe_rebuilds);
    EXPECT_EQ(snap.counter("stream.overflow_resyncs"), c.overflow_resyncs);
    EXPECT_EQ(snap.counter("stream.diff_recomputes"), c.diff_recomputes);
    EXPECT_EQ(snap.counter("stream.verdicts_reused"), c.verdicts_reused);

    // Health grades of the same counts.
    EXPECT_DOUBLE_EQ(snap.gauge("health.ring.eviction_rate"),
                     rate(r.evictions, r.published));
    EXPECT_DOUBLE_EQ(snap.gauge("health.ring.stall_rate"),
                     rate(r.full_stalls, r.published));
    EXPECT_DOUBLE_EQ(snap.gauge("health.rebuild.rate"),
                     rate(c.full_rebuilds - c.epoch_rebuilds,
                          snap.counter("stream.batches")));
    EXPECT_EQ(snap.gauge("health.status"),
              std::max({snap.gauge("health.latency.status"),
                        snap.gauge("health.rebuild.status"),
                        snap.gauge("health.ring.status")}));

    std::uint64_t evictions = 0;
    std::uint64_t misrenders = 0;
    std::uint64_t drops = 0;
    for (const auto& agent : net.agents()) {
      evictions += agent->tcam().evictions();
      misrenders += agent->gray_misrenders();
      drops += agent->gray_drops();
    }
    EXPECT_EQ(snap.counters_with_prefix("tcam.evictions.").size(), 1u);
    EXPECT_EQ(snap.counter("tcam.evictions.fifo"), evictions);
    EXPECT_EQ(snap.counter("faults.gray.misrenders"), misrenders);
    EXPECT_EQ(snap.counter("faults.gray.drops"), drops);

    // One copy per name, in name order.
    for (std::size_t i = 1; i < snap.counters.size(); ++i) {
      EXPECT_LT(snap.counters[i - 1].name, snap.counters[i].name);
    }
    for (std::size_t i = 1; i < snap.gauges.size(); ++i) {
      EXPECT_LT(snap.gauges[i - 1].name, snap.gauges[i].name);
    }
  };
  for (int interval = 0; interval < 12; ++interval) {
    // A full shard counts a stall and an eviction alike; publishes into a
    // closed ring count only the eviction, so the last interval sets the
    // two counts (and their rates) apart.
    if (interval == 11) ring.close();
    (void)driver.pump(24);
    expect_owner_reads(monitor.snapshot_metrics());
    monitor_cursor = monitor.drain().last_seq;
    expect_owner_reads(monitor.snapshot_metrics());
  }
  // The run reached every owner path the series read.
  const MetricsSnapshot last = monitor.snapshot_metrics();
  EXPECT_GT(last.counter("stream.ring_evictions"),
            last.counter("stream.ring_full_stalls"));
  EXPECT_GT(last.counter("stream.ring_full_stalls"), 0u);
  EXPECT_GT(last.counter("stream.overflow_resyncs"), 0u);
  EXPECT_GT(last.counter("tcam.evictions.fifo"), 0u);
  EXPECT_GT(last.counter("faults.gray.misrenders"), 0u);
  EXPECT_GT(last.counter("faults.gray.drops"), 0u);
  EXPECT_GT(last.gauge("bdd.arena_nodes"), 0.0);
  EXPECT_EQ(last.counter("stream.batches"), 12u);
  EXPECT_GT(last.gauge("health.ring.eviction_rate") +
                last.gauge("health.ring.stall_rate") +
                last.gauge("health.rebuild.rate"),
            0.0);
  // The registry holds none of the owners' series itself.
  EXPECT_EQ(registry.snapshot().counters_with_prefix("stream.ring").size(),
            0u);
  driver.stop();
  bus.attach_ring(nullptr);
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

TEST(Telemetry, MonitorFlightSpansNestAndExport) {
  MonitoringOptions options;
  options.profile = GeneratorProfile::scaled(8);
  options.profile.target_pairs = 8 * 30;
  options.events = 60;
  options.batch_ops = 12;
  options.seed = 9;
  options.localize_final = false;
  options.collect_flight = true;
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
}

// The ring bounds trace memory: a 4-worker run records far more entries
// than lanes × capacity, trace_json exports only the survivors, and each
// checker shard's spans land on its own lane (tid = shard + 1).
TEST(Telemetry, FlightTraceBoundedWithShardSpansOnShardLanesAt4Workers) {
  // A small fabric with big churn intervals: many cause-bearing events
  // per drain fill lane 0 several times over in a fraction of a second.
  MonitoringOptions options;
  options.profile = GeneratorProfile::scaled(4);
  options.profile.target_pairs = 4 * 20;
  options.events = 150000;
  options.batch_ops = 1000;
  options.seed = 13;
  options.localize_final = false;
  options.collect_flight = true;
  runtime::ThreadPoolExecutor executor{4};
  const MonitoringReport report =
      run_continuous_monitoring(options, executor);

  const std::size_t bound =
      (executor.workers() + 1) *
      telemetry::FlightRecorder::Options{}.capacity_per_lane;
  EXPECT_GT(report.flight_entries, 3 * bound);
  std::size_t exported = 0;
  for (std::size_t at = report.trace_json.find("\"ph\":");
       at != std::string::npos;
       at = report.trace_json.find("\"ph\":", at + 1)) {
    ++exported;
  }
  EXPECT_GT(exported, 0u);
  EXPECT_LE(exported, bound);
  const std::string shard_span = "{\"name\":\"shard\",\"cat\":\"span\",";
  std::set<std::size_t> tids;
  for (std::size_t at = report.trace_json.find(shard_span);
       at != std::string::npos;
       at = report.trace_json.find(shard_span, at + 1)) {
    const std::size_t tid = report.trace_json.find("\"tid\":", at) + 6;
    tids.insert(std::stoul(report.trace_json.substr(tid, 8)));
  }
  EXPECT_EQ(tids, (std::set<std::size_t>{1, 2, 3, 4}));
}

// -- health/SLO grades --------------------------------------------------------

constexpr double kOk = 0.0;
constexpr double kWarn = 1.0;
constexpr double kCritical = 2.0;

// One sample's grades, alone in a snapshot.
MetricsSnapshot graded(const telemetry::HealthSample& s) {
  MetricsSnapshot snap;
  telemetry::append_health(s, snap);
  return snap;
}

bool has_gauge(const MetricsSnapshot& snap, const std::string& name) {
  return std::any_of(snap.gauges.begin(), snap.gauges.end(),
                     [&](const auto& g) { return g.name == name; });
}

TEST(Health, GradesAtThresholdsAndOverallIsTheWorst) {
  // Zero denominators rate 0 and grade ok, whatever the numerators say.
  telemetry::HealthSample s;
  s.events_over_budget = 3;
  s.unplanned_rebuilds = 4;
  s.ring_evictions = 2;
  s.ring_full_stalls = 1;
  MetricsSnapshot snap = graded(s);
  ASSERT_EQ(snap.gauges.size(), 8u);
  for (const char* name :
       {"health.status", "health.latency.burn", "health.latency.status",
        "health.rebuild.rate", "health.rebuild.status",
        "health.ring.eviction_rate", "health.ring.stall_rate",
        "health.ring.status"}) {
    EXPECT_TRUE(has_gauge(snap, name)) << name;
  }
  EXPECT_EQ(snap.gauge("health.latency.burn"), 0.0);
  EXPECT_EQ(snap.gauge("health.rebuild.rate"), 0.0);
  EXPECT_EQ(snap.gauge("health.ring.eviction_rate"), 0.0);
  EXPECT_EQ(snap.gauge("health.ring.stall_rate"), 0.0);
  EXPECT_EQ(snap.gauge("health.status"), kOk);

  // Thresholds are inclusive: 0.5 unplanned rebuilds per batch warns, 2
  // is critical.
  s = {};
  s.batches = 10;
  s.unplanned_rebuilds = 4;
  EXPECT_EQ(graded(s).gauge("health.rebuild.status"), kOk);
  s.unplanned_rebuilds = 5;
  snap = graded(s);
  EXPECT_EQ(snap.gauge("health.rebuild.status"), kWarn);
  EXPECT_EQ(snap.gauge("health.status"), kWarn);
  s.unplanned_rebuilds = 20;
  snap = graded(s);
  EXPECT_EQ(snap.gauge("health.rebuild.status"), kCritical);
  EXPECT_EQ(snap.gauge("health.status"), kCritical);

  // Latency burn: 5% of events over budget warns, 25% is critical.
  s = {};
  s.events = 100;
  s.events_over_budget = 5;
  EXPECT_EQ(graded(s).gauge("health.latency.status"), kWarn);
  s.events_over_budget = 25;
  EXPECT_EQ(graded(s).gauge("health.latency.status"), kCritical);

  // The ring grades the worse of evictions and stalls, and overall is the
  // worst of the three objectives.
  s.events_over_budget = 0;
  s.ring_published = 10000;
  s.ring_evictions = 100;  // 1e-2: critical
  snap = graded(s);
  EXPECT_EQ(snap.gauge("health.latency.status"), kOk);
  EXPECT_EQ(snap.gauge("health.ring.status"), kCritical);
  EXPECT_EQ(snap.gauge("health.status"), kCritical);
  s.ring_evictions = 0;
  s.ring_full_stalls = 100;  // 1e-2: warn
  s.events_over_budget = 5;  // warn
  snap = graded(s);
  EXPECT_EQ(snap.gauge("health.ring.status"), kWarn);
  EXPECT_EQ(snap.gauge("health.status"), kWarn);
  EXPECT_EQ(snap.gauge("health.rebuild.status"), kOk);
  EXPECT_DOUBLE_EQ(snap.gauge("health.latency.burn"), 0.05);
}

// Epoch rebuilds are the planned cost of a policy push: the rebuild SLO
// grades threshold, unsafe and overflow rebuilds per batch only.
TEST(Health, PlannedEpochRebuildsDoNotBurnTheRebuildBudget) {
  MonitoringOptions options;
  options.profile = GeneratorProfile::scaled(6);
  options.profile.target_pairs = 6 * 20;
  options.events = 20000;
  options.batch_ops = 64;
  options.seed = 3;
  options.mix.migrate = 0.1;  // each migration bumps the compiled epoch
  options.localize_final = false;
  runtime::SerialExecutor executor;
  const MonitoringReport report =
      run_continuous_monitoring(options, executor);

  const stream::IncrementalChecker::Stats& c = report.checker;
  ASSERT_GT(report.batches, 0u);
  // Epoch rebuilds alone would grade critical (>= 2 per batch).
  ASSERT_GE(c.epoch_rebuilds, 2 * report.batches);
  const double unplanned =
      static_cast<double>(c.full_rebuilds - c.epoch_rebuilds) /
      static_cast<double>(report.batches);
  // Every monitor snapshot carries the grades; no switch turns them on.
  ASSERT_TRUE(has_gauge(report.telemetry, "health.rebuild.rate"));
  EXPECT_DOUBLE_EQ(report.telemetry.gauge("health.rebuild.rate"), unplanned);
  EXPECT_EQ(unplanned, 0.0);
  EXPECT_EQ(report.telemetry.gauge("health.rebuild.status"), 0.0);
}

}  // namespace
}  // namespace scout
