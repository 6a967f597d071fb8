// Incident provenance: unit semantics of the IncidentBuilder window model
// (open / extend / close, first-cause ordering, the A ⊆ T precision
// invariant, window reset and overflow accounting) and the end-to-end
// gates — single-fault-class monitoring legs across seeds and transports
// attribute with precision 1.0, attaching the whole observability stack
// (incidents + flight recorder) never perturbs a verdict digest, and the
// monitor's incident.* series equal the builder's totals.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <vector>

#include "src/scout/experiment.h"
#include "src/scout/scout_system.h"
#include "src/stream/cause.h"
#include "src/stream/event.h"
#include "src/stream/incident.h"

namespace scout {
namespace {

using stream::CauseEngine;
using stream::CauseId;
using stream::CauseLedger;
using stream::IncidentBuilder;
using stream::StreamEvent;

StreamEvent cause_event(std::uint64_t seq, std::uint32_t sw, CauseId cause,
                        std::int64_t sim_ms) {
  StreamEvent ev;
  ev.seq = seq;
  ev.sw = SwitchId{sw};
  ev.cause = cause;
  ev.time = SimTime{sim_ms};
  ev.wall = std::chrono::steady_clock::now();
  ev.type = stream::StreamEventType::kRuleEvicted;
  return ev;
}

FabricCheck failing_on(std::initializer_list<std::uint32_t> switches) {
  FabricCheck check;
  check.switches_checked = 8;
  for (const std::uint32_t sw : switches) {
    check.inconsistent.push_back(SwitchId{sw});
  }
  return check;
}

TEST(IncidentBuilder, OpenExtendCloseLifecycle) {
  CauseLedger ledger;
  IncidentBuilder builder{&ledger};
  const CauseId c1 = CauseId::make(CauseEngine::kGray, 1);
  const CauseId c2 = CauseId::make(CauseEngine::kStorm, 2);

  // Batch 0: clean — marks the ledger and clears the (empty) window.
  EXPECT_FALSE(builder.observe_verdict(FabricCheck{}, 0, SimTime{0}));
  EXPECT_FALSE(builder.incident_open());

  // Batch 1: c1 damages switch 3; verdict fails on 3 — opens.
  ledger.record(c1, SwitchId{3}, SimTime{100});
  const std::vector<StreamEvent> b1{cause_event(10, 3, c1, 100)};
  builder.observe_events(b1);
  EXPECT_TRUE(builder.observe_verdict(failing_on({3}), 1, SimTime{110}));
  EXPECT_TRUE(builder.incident_open());

  // Batch 2: c2 damages switch 5; still failing, now on {3,5} — extends.
  ledger.record(c2, SwitchId{5}, SimTime{200});
  const std::vector<StreamEvent> b2{cause_event(11, 5, c2, 200)};
  builder.observe_events(b2);
  EXPECT_FALSE(builder.observe_verdict(failing_on({3, 5}), 2, SimTime{210}));
  EXPECT_TRUE(builder.incident_open());

  // Batch 3: clean — closes.
  EXPECT_FALSE(builder.observe_verdict(FabricCheck{}, 3, SimTime{300}));
  EXPECT_FALSE(builder.incident_open());

  ASSERT_EQ(builder.incidents().size(), 1u);
  const stream::Incident& inc = builder.incidents()[0];
  EXPECT_EQ(inc.opened_batch, 1u);
  EXPECT_EQ(inc.closed_batch, 3u);
  ASSERT_EQ(inc.violated.size(), 2u);
  ASSERT_EQ(inc.causes.size(), 2u);
  // Seq order: c1 first (the first cause), then c2.
  EXPECT_EQ(inc.causes[0].cause, c1);
  EXPECT_EQ(inc.causes[1].cause, c2);
  EXPECT_TRUE(inc.causes[0].in_truth);
  EXPECT_TRUE(inc.causes[1].in_truth);
  EXPECT_TRUE(inc.first_cause_correct);
  EXPECT_EQ(inc.truth_causes, 2u);
  EXPECT_EQ(inc.matched_causes, 2u);
  EXPECT_DOUBLE_EQ(builder.totals().precision(), 1.0);
  EXPECT_DOUBLE_EQ(builder.totals().recall(), 1.0);
}

TEST(IncidentBuilder, CleanVerdictResetsWindowAndLedgerMark) {
  CauseLedger ledger;
  IncidentBuilder builder{&ledger};
  const CauseId old_cause = CauseId::make(CauseEngine::kGray, 7);
  const CauseId fresh = CauseId::make(CauseEngine::kStorm, 8);

  // An old healed episode before a clean verdict must not leak into the
  // next incident's attribution or truth set.
  ledger.record(old_cause, SwitchId{2}, SimTime{50});
  const std::vector<StreamEvent> stale{cause_event(1, 2, old_cause, 50)};
  builder.observe_events(stale);
  EXPECT_FALSE(builder.observe_verdict(FabricCheck{}, 0, SimTime{60}));

  ledger.record(fresh, SwitchId{2}, SimTime{100});
  const std::vector<StreamEvent> live{cause_event(2, 2, fresh, 100)};
  builder.observe_events(live);
  EXPECT_TRUE(builder.observe_verdict(failing_on({2}), 1, SimTime{110}));
  EXPECT_FALSE(builder.observe_verdict(FabricCheck{}, 2, SimTime{120}));

  ASSERT_EQ(builder.incidents().size(), 1u);
  const stream::Incident& inc = builder.incidents()[0];
  ASSERT_EQ(inc.causes.size(), 1u);
  EXPECT_EQ(inc.causes[0].cause, fresh);
  EXPECT_EQ(inc.truth_causes, 1u);  // old_cause is before the mark
  EXPECT_TRUE(inc.first_cause_correct);
}

TEST(IncidentBuilder, EventsOnOtherSwitchesDoNotAttribute) {
  CauseLedger ledger;
  IncidentBuilder builder{&ledger};
  const CauseId guilty = CauseId::make(CauseEngine::kChurnEvict, 1);
  const CauseId bystander = CauseId::make(CauseEngine::kChurnEvict, 2);
  ledger.record(guilty, SwitchId{1}, SimTime{10});
  ledger.record(bystander, SwitchId{9}, SimTime{11});
  const std::vector<StreamEvent> events{
      cause_event(1, 9, bystander, 11),  // earlier seq, wrong switch
      cause_event(2, 1, guilty, 10),
  };
  builder.observe_events(events);
  builder.observe_verdict(failing_on({1}), 0, SimTime{20});
  builder.finalize(1, SimTime{30});

  ASSERT_EQ(builder.incidents().size(), 1u);
  const stream::Incident& inc = builder.incidents()[0];
  ASSERT_EQ(inc.causes.size(), 1u);
  EXPECT_EQ(inc.causes[0].cause, guilty);
  EXPECT_EQ(inc.truth_causes, 1u);  // bystander's switch never violated
  EXPECT_DOUBLE_EQ(builder.totals().precision(), 1.0);
}

TEST(IncidentBuilder, UnattributedIncidentIsCountedNotInvented) {
  // Silent damage (e.g. gray drops publish nothing): the verdict fails
  // with no cause-bearing events. The builder must report an empty cause
  // chain, not hallucinate one — and precision stays 1.0 (vacuous).
  CauseLedger ledger;
  IncidentBuilder builder{&ledger};
  builder.observe_verdict(failing_on({4}), 0, SimTime{10});
  builder.finalize(1, SimTime{20});
  ASSERT_EQ(builder.incidents().size(), 1u);
  EXPECT_FALSE(builder.incidents()[0].attributed());
  EXPECT_EQ(builder.totals().unattributed_incidents, 1u);
  EXPECT_DOUBLE_EQ(builder.totals().precision(), 1.0);
}

TEST(IncidentBuilder, WindowOverflowDropsNewestAndCounts) {
  CauseLedger ledger;
  IncidentBuilder::Options opts;
  opts.max_window_events = 4;
  IncidentBuilder builder{&ledger, opts};
  const CauseId first = CauseId::make(CauseEngine::kGray, 1);
  std::vector<StreamEvent> events;
  events.push_back(cause_event(1, 1, first, 10));
  for (std::uint64_t i = 2; i <= 10; ++i) {
    events.push_back(
        cause_event(i, 1, CauseId::make(CauseEngine::kGray, i), 10));
  }
  builder.observe_events(events);
  builder.observe_verdict(failing_on({1}), 0, SimTime{20});
  builder.finalize(1, SimTime{30});

  EXPECT_EQ(builder.totals().window_dropped, 6u);
  ASSERT_EQ(builder.incidents().size(), 1u);
  const stream::Incident& inc = builder.incidents()[0];
  // Oldest entries survive: the first cause is preserved.
  ASSERT_EQ(inc.causes.size(), 4u);
  EXPECT_EQ(inc.causes[0].cause, first);
}

// ---------------------------------------------------------------------------
// End-to-end gates on the monitoring pipeline.
// ---------------------------------------------------------------------------

MonitoringOptions leg_scenario(std::uint64_t seed) {
  MonitoringOptions options;
  options.profile = GeneratorProfile::scaled(12);
  options.profile.target_pairs = 12 * 20;
  options.events = 500;
  options.batch_ops = 12;
  options.seed = seed;
  options.localize_final = false;
  return options;
}

// Evict-only churn: the single-fault-class leg where every harmful op is
// a cause-stamped churn-driver eviction.
MonitoringOptions evict_only_scenario(std::uint64_t seed) {
  MonitoringOptions options = leg_scenario(seed);
  options.mix = stream::ChurnMix{};
  options.mix.evict = 1.0;
  options.mix.corrupt = 0.0;
  options.mix.resync = 0.0;
  options.mix.crash = 0.0;
  options.mix.recover = 0.0;
  options.mix.channel_flap = 0.0;
  options.mix.benign_change = 0.0;
  options.mix.migrate = 0.0;
  return options;
}

TEST(IncidentPipeline, EvictOnlyAttributionExactAcrossSeedsAndTransports) {
  runtime::SerialExecutor executor;
  std::size_t incidents_seen = 0;
  std::size_t matched = 0, attributed = 0, truth = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    // Same concurrent-driver schedule both legs; only the transport flips
    // (serial bus vs 4-publisher MPSC ring) — the fault_storms pattern.
    MonitoringOptions serial = evict_only_scenario(seed);
    serial.collect_incidents = true;
    serial.publishers = 0;
    const MonitoringReport anchor =
        run_continuous_monitoring(serial, executor);

    MonitoringOptions ring = serial;
    ring.publishers = 4;
    const MonitoringReport report = run_continuous_monitoring(ring, executor);

    for (const MonitoringReport* r : {&anchor, &report}) {
      const stream::IncidentBuilder::Totals& totals = r->incident_totals;
      EXPECT_DOUBLE_EQ(totals.precision(), 1.0)
          << "seed " << seed << " publishers "
          << (r == &anchor ? 0 : 4);
      incidents_seen += totals.incidents;
      matched += totals.first_cause_correct;
      attributed += totals.incidents - totals.unattributed_incidents;
      truth += totals.incidents;
    }
    // One fault schedule, two transports: the verdict stream and the
    // incident structure must agree.
    EXPECT_EQ(report.verdict_digest, anchor.verdict_digest)
        << "seed " << seed;
    EXPECT_EQ(report.incident_totals.incidents,
              anchor.incident_totals.incidents)
        << "seed " << seed;
  }
  // The leg must actually produce incidents to be a meaningful gate.
  EXPECT_GT(incidents_seen, 10u);
  EXPECT_GT(attributed, 0u);
  (void)matched;
  (void)truth;
}

TEST(IncidentPipeline, ObservabilityStackIsDigestNeutral) {
  // The whole stack — incidents + flight recorder — attached vs nothing
  // attached: bit-identical verdict digests, same seed.
  runtime::SerialExecutor executor;
  for (const std::uint64_t seed : {5u, 23u}) {
    MonitoringOptions bare = leg_scenario(seed);
    bare.gray_rate = 0.15;
    bare.gray_drop_rate = 0.0;
    const MonitoringReport off = run_continuous_monitoring(bare, executor);

    MonitoringOptions instrumented = bare;
    instrumented.collect_incidents = true;
    instrumented.collect_flight = true;
    const MonitoringReport on =
        run_continuous_monitoring(instrumented, executor);

    EXPECT_EQ(on.verdict_digest, off.verdict_digest) << "seed " << seed;
    EXPECT_EQ(on.batches, off.batches) << "seed " << seed;
    EXPECT_EQ(on.inconsistent_batches, off.inconsistent_batches)
        << "seed " << seed;
    EXPECT_GT(on.flight_entries, 0u);
  }
}

TEST(IncidentPipeline, GrayLegReportsIncidentJson) {
  runtime::SerialExecutor executor;
  MonitoringOptions options = leg_scenario(7);
  options.gray_rate = 0.2;
  options.gray_drop_rate = 0.0;
  options.collect_incidents = true;
  const MonitoringReport report = run_continuous_monitoring(options, executor);
  ASSERT_FALSE(report.incident_json.empty());
  EXPECT_NE(report.incident_json.find("\"scout-incidents-v1\""),
            std::string::npos);
  EXPECT_NE(report.incident_json.find("\"totals\""), std::string::npos);
  EXPECT_DOUBLE_EQ(report.incident_totals.precision(), 1.0);

  // The incident.* series are the builder's totals read at snapshot time,
  // after finalize() closed the last incident. detect_wall_ms is
  // wall-timed and is left out.
  const IncidentBuilder::Totals& t = report.incident_totals;
  const telemetry::MetricsSnapshot& snap = report.telemetry;
  ASSERT_GT(t.incidents, 0u);
  EXPECT_EQ(snap.counters_with_prefix("incident.").size(), 4u);
  EXPECT_EQ(snap.counter("incident.opened"), t.incidents);
  EXPECT_EQ(snap.counter("incident.closed"), t.incidents);
  EXPECT_EQ(snap.counter("incident.unattributed"), t.unattributed_incidents);
  EXPECT_EQ(snap.counter("incident.window.dropped"), t.window_dropped);
  EXPECT_EQ(std::count_if(snap.gauges.begin(), snap.gauges.end(),
                          [](const auto& g) {
                            return g.name.rfind("incident.", 0) == 0;
                          }),
            4);
  EXPECT_EQ(snap.gauge("incident.open"), 0.0);
  EXPECT_DOUBLE_EQ(snap.gauge("incident.precision"), t.precision());
  EXPECT_DOUBLE_EQ(snap.gauge("incident.recall"), t.recall());
}

}  // namespace
}  // namespace scout
