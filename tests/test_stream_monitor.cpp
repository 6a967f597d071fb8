// Differential correctness of the continuous-verification stream: the
// incremental monitor's verdicts must be identical to a fresh
// ScoutSystem::check_all after every batch — across randomized event
// streams, mid-stream policy pushes, resyncs, divergence-threshold trips,
// out-of-shape (unsafe) deltas, and 1/2/4 workers.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/rng.h"
#include "src/scout/experiment.h"
#include "src/scout/scout_system.h"
#include "src/stream/monitor_loop.h"
#include "src/telemetry/flight_recorder.h"
#include "src/workload/policy_generator.h"
#include "src/workload/three_tier.h"

namespace scout {
namespace {

MonitoringOptions small_scenario(std::uint64_t seed) {
  MonitoringOptions options;
  options.profile = GeneratorProfile::scaled(10);
  options.profile.target_pairs = 10 * 40;
  options.events = 160;
  options.batch_ops = 12;
  options.seed = seed;
  // Elevated policy churn so compiled-epoch bumps land mid-stream.
  options.mix.migrate = 0.08;
  options.localize_final = false;
  return options;
}

void expect_counter_consistency(const MonitoringReport& report) {
  EXPECT_EQ(report.checker.full_rebuilds,
            report.checker.epoch_rebuilds + report.checker.threshold_trips +
                report.checker.unsafe_rebuilds +
                report.checker.overflow_resyncs);
}

TEST(StreamMonitor, IncrementalMatchesFullCheckAcrossSeeds) {
  runtime::SerialExecutor executor;
  std::size_t runs_with_epoch_bumps = 0;
  std::size_t runs_with_inconsistency = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    MonitoringOptions options = small_scenario(seed);
    options.verify_batches = true;  // fresh check_all after every batch
    const MonitoringReport report =
        run_continuous_monitoring(options, executor);
    EXPECT_EQ(report.verify_mismatches, 0u) << "seed " << seed;
    EXPECT_GE(report.events, options.events) << "seed " << seed;
    expect_counter_consistency(report);
    EXPECT_EQ(report.checker.unsafe_rebuilds, 0u)
        << "compiler-shaped churn fell off the incremental path, seed "
        << seed;
    if (report.checker.epoch_rebuilds > 0) ++runs_with_epoch_bumps;
    if (report.inconsistent_batches > 0) ++runs_with_inconsistency;
  }
  // The scenario must actually exercise the hard paths.
  EXPECT_GT(runs_with_epoch_bumps, 0u);
  EXPECT_GT(runs_with_inconsistency, 10u);
}

TEST(StreamMonitor, VerdictStreamIdenticalAcrossModesAndWorkerCounts) {
  for (const std::uint64_t seed : {3u, 11u}) {
    std::uint64_t expected = 0;
    bool first = true;
    for (const std::size_t threads : {1u, 2u, 4u}) {
      for (const bool incremental : {true, false}) {
        MonitoringOptions options = small_scenario(seed);
        options.incremental = incremental;
        const auto executor = runtime::make_executor(threads);
        const MonitoringReport report =
            run_continuous_monitoring(options, *executor);
        if (first) {
          expected = report.verdict_digest;
          first = false;
        } else {
          EXPECT_EQ(report.verdict_digest, expected)
              << "seed " << seed << " threads " << threads
              << " incremental " << incremental;
        }
      }
    }
  }
}

// The concurrent-ingest differential: the ConcurrentChurnDriver's data-op
// schedule is a pure function of the seed, so one seed must produce one
// verdict-digest whether the data phase is executed serially through the
// bus (publishers = 0) or published from 1/2/4 real publisher threads
// into the MpscRing — and whatever the drain-side worker count. Twenty
// seeds walk the {publishers} x {workers} grid; every concurrent leg also
// cross-checks each batch against a fresh check_all.
TEST(StreamMonitor, ConcurrentPublishersMatchSerialTransportAcrossSeeds) {
  const std::size_t publishers[] = {1, 2, 4};
  const std::size_t workers[] = {1, 2, 4};
  std::size_t runs_with_epoch_bumps = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    // Serial-transport anchor: same driver, same schedule, no ring.
    MonitoringOptions base = small_scenario(seed);
    base.publishers = 0;
    runtime::SerialExecutor serial_exec;
    const MonitoringReport anchor =
        run_continuous_monitoring(base, serial_exec);
    expect_counter_consistency(anchor);

    // One ring leg per seed; 20 seeds sweep the 3x3 grid twice over.
    MonitoringOptions options = small_scenario(seed);
    options.publishers = publishers[seed % 3];
    options.verify_batches = true;  // fresh check_all after every batch
    const auto executor = runtime::make_executor(workers[(seed / 3) % 3]);
    const MonitoringReport report =
        run_continuous_monitoring(options, *executor);
    EXPECT_EQ(report.verify_mismatches, 0u)
        << "seed " << seed << " publishers " << options.publishers;
    EXPECT_EQ(report.verdict_digest, anchor.verdict_digest)
        << "seed " << seed << " publishers " << options.publishers
        << " workers " << workers[(seed / 3) % 3];
    EXPECT_GE(report.events, options.events) << "seed " << seed;
    expect_counter_consistency(report);
    if (report.checker.epoch_rebuilds > 0) ++runs_with_epoch_bumps;
  }
  // Mid-stream recompiles must land inside the concurrent legs too.
  EXPECT_GT(runs_with_epoch_bumps, 0u);
}

// One churn schedule: on the default ChurnMix at scoutctl's scale (the
// configuration scoutctl monitor and stream_latency's default legs run),
// the serial transport and a 4-publisher ring replay the same ops and so
// fold one verdict digest.
TEST(StreamMonitor, SerialTransportAndRingShareTheDefaultSchedule) {
  MonitoringOptions serial;
  serial.profile = GeneratorProfile::scaled(16);
  serial.profile.target_pairs = 16 * 60;
  serial.events = 600;
  serial.seed = 1;
  serial.localize_final = false;
  runtime::SerialExecutor executor;
  const MonitoringReport anchor = run_continuous_monitoring(serial, executor);

  MonitoringOptions ring = serial;
  ring.publishers = 4;
  const MonitoringReport report = run_continuous_monitoring(ring, executor);
  EXPECT_EQ(report.verdict_digest, anchor.verdict_digest);
  EXPECT_EQ(report.events, anchor.events);
  EXPECT_EQ(report.batches, anchor.batches);
  EXPECT_EQ(report.churn_ops, anchor.churn_ops);
  EXPECT_GT(anchor.inconsistent_batches, 0u);
}

// Overflow path: a capacity-8 ring with every data op funneled through one
// publisher shard is guaranteed to overflow between drains. Evictions must
// surface as shadow resyncs — and the resync'd verdicts must still match
// both the per-batch fresh check and the uncontended serial-transport
// digest, because a shadow resync recollects the exact quiescent TCAM.
TEST(StreamMonitor, OverflowEvictionForcesShadowResyncAndStaysExact) {
  runtime::SerialExecutor executor;
  MonitoringOptions base = small_scenario(9);
  // No recompiles: a push that changes the switch's rules in the same
  // batch would repair the gap through the arena-rebuild branch and mask
  // the overflow accounting this test pins.
  base.mix.migrate = 0.0;
  base.publishers = 0;
  const MonitoringReport anchor = run_continuous_monitoring(base, executor);

  MonitoringOptions options = small_scenario(9);
  options.mix.migrate = 0.0;
  options.publishers = 1;
  options.ring_capacity = 8;
  options.verify_batches = true;
  const MonitoringReport report =
      run_continuous_monitoring(options, executor);
  EXPECT_GT(report.telemetry.counter("stream.ring_evictions"), 0u);
  EXPECT_GT(report.checker.overflow_resyncs, 0u);
  EXPECT_EQ(report.verify_mismatches, 0u);
  EXPECT_EQ(report.verdict_digest, anchor.verdict_digest);
  expect_counter_consistency(report);
}

// Free-run mode: publishers race ahead of the drain loop, so per-batch
// digests are timing-dependent by design — the gate is that the final
// composed verdict equals a fresh check_all at quiescence.
TEST(StreamMonitor, PipelinedFreeRunConvergesToFreshVerdict) {
  MonitoringOptions options = small_scenario(13);
  options.publishers = 2;
  options.pipelined = true;
  const auto executor = runtime::make_executor(2);
  const MonitoringReport report =
      run_continuous_monitoring(options, *executor);
  EXPECT_TRUE(report.final_verdict_matches_fresh);
  EXPECT_GE(report.events, options.events);
  EXPECT_GT(report.wall_events_per_sec(), 0.0);
  expect_counter_consistency(report);
}

TEST(StreamMonitor, DivergenceThresholdTripsKeepVerdictsExact) {
  runtime::SerialExecutor executor;
  MonitoringOptions options = small_scenario(7);
  // No recompiles: a push rebuilds the arenas whose rules it changed,
  // which takes precedence over the compaction this test pins.
  options.mix.migrate = 0.0;
  options.verify_batches = true;
  // Compact aggressively: every touched switch trips almost immediately.
  options.checker.divergence_factor = 1.0;
  options.checker.divergence_slack = 64;
  const MonitoringReport report =
      run_continuous_monitoring(options, executor);
  EXPECT_EQ(report.verify_mismatches, 0u);
  EXPECT_GT(report.checker.threshold_trips, 0u);
  expect_counter_consistency(report);
}

TEST(StreamMonitor, EventCountAndLatencyAccounting) {
  runtime::SerialExecutor executor;
  MonitoringOptions options = small_scenario(5);
  const MonitoringReport report =
      run_continuous_monitoring(options, executor);
  EXPECT_GE(report.events, options.events);
  EXPECT_GT(report.batches, 0u);
  EXPECT_GT(report.churn_ops, 0u);
  EXPECT_GT(report.events_per_sec(), 0.0);
  const LogHistogram& wall = report.wall_latency();
  EXPECT_LE(wall.quantile(0.50), wall.quantile(0.99));
  EXPECT_LE(wall.quantile(0.99), wall.max());
  // Sim-clock latency is its own histogram — never mixed with the
  // wall-clock numbers above — and must be internally consistent too.
  const LogHistogram& sim = report.sim_latency();
  EXPECT_LE(sim.quantile(0.50), sim.quantile(0.99));
  EXPECT_LE(sim.quantile(0.99), sim.max());
  EXPECT_GE(sim.max(), 0.0);
}

// A churn interval can publish nothing: a single control op that records
// a benign change or flips an undetected bit. The phased loop must pump
// on instead of ending the run there; stopping at the first such interval
// verifies 1 event of 3000 on this fabric.
TEST(StreamMonitor, SilentChurnIntervalsDoNotEndTheRun) {
  MonitoringOptions options;
  options.profile = GeneratorProfile::scaled(4);
  options.events = 3000;
  options.batch_ops = 1;
  options.seed = 13;
  options.localize_final = false;
  runtime::SerialExecutor executor;
  const MonitoringReport report =
      run_continuous_monitoring(options, executor);
  EXPECT_GE(report.events, options.events);
  // Some intervals were silent: they were pumped but not drained.
  EXPECT_GT(report.churn_ops, report.batches);
}

// Evict-only churn empties every TCAM, after which no interval publishes
// anything: the run must still end, with the verdicts it had.
TEST(StreamMonitor, ExhaustedEvictOnlyChurnStillEndsTheRun) {
  MonitoringOptions options;
  options.profile = GeneratorProfile::scaled(4);
  options.profile.target_pairs = 20;
  options.events = 3000;
  options.batch_ops = 12;
  options.seed = 41;
  options.localize_final = false;
  options.mix.evict = 1.0;
  options.mix.corrupt = 0.0;
  options.mix.resync = 0.0;
  options.mix.crash = 0.0;
  options.mix.recover = 0.0;
  options.mix.channel_flap = 0.0;
  options.mix.benign_change = 0.0;
  options.mix.migrate = 0.0;
  runtime::SerialExecutor executor;
  const MonitoringReport report =
      run_continuous_monitoring(options, executor);
  EXPECT_LT(report.events, options.events);
  EXPECT_GT(report.batches, 0u);
  // More than one silent interval was pumped before giving up.
  EXPECT_GT(report.churn_ops, (report.batches + 1) * options.batch_ops);
  EXPECT_FALSE(report.final_check.inconsistent.empty());
}

// Every published event carries both clock stamps; each must be
// monotonically non-decreasing in publish order, so event-to-detection
// latencies are well-defined in either clock without mixing them.
TEST(StreamMonitor, EventClockStampsAreMonotonic) {
  ThreeTierNetwork three = make_three_tier();
  SimNetwork net{std::move(three.fabric), std::move(three.policy)};
  net.deploy();
  net.clock().advance(3'600'000);
  stream::EventBus bus;
  net.attach_event_bus(&bus);

  ASSERT_GT(net.agent(three.s2).evict_rules(16, net.clock().now()), 0u);
  net.clock().advance(50);
  (void)net.controller().resync_switch(three.s2);

  const auto events = bus.events_since(0);
  ASSERT_GT(events.size(), 1u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].time, events[i - 1].time) << "event " << i;
    EXPECT_GE(events[i].wall, events[i - 1].wall) << "event " << i;
  }
}

// Hand-driven MonitorLoop on the paper's three-tier example: eviction is
// detected incrementally and the verdict matches a fresh fabric check;
// resync repairs it; localization hands suspects to SCOUT.
TEST(StreamMonitor, MonitorLoopDetectsAndClearsEviction) {
  ThreeTierNetwork three = make_three_tier();
  SimNetwork net{std::move(three.fabric), std::move(three.policy)};
  net.deploy();
  net.clock().advance(3'600'000);
  stream::EventBus bus;
  net.attach_event_bus(&bus);
  runtime::SerialExecutor executor;
  stream::MonitorLoop monitor{net, bus, executor};
  monitor.prime();
  const ScoutSystem system;

  // Clean fabric: empty verdict, nothing drained.
  stream::MonitorVerdict verdict = monitor.drain();
  EXPECT_EQ(verdict.events, 0u);
  EXPECT_TRUE(verdict.check.inconsistent.empty());

  // Evict every rule S2 holds (a full-object-grade wipe, so SCOUT's
  // stage-1 hit-ratio-1 cover has something to pick); the monitor must
  // flag exactly what a fresh collection-based check would.
  const std::size_t evicted =
      net.agent(three.s2).evict_rules(64, net.clock().now());
  ASSERT_GT(evicted, 0u);
  verdict = monitor.drain();
  EXPECT_EQ(verdict.events, evicted);
  EXPECT_FALSE(verdict.check.inconsistent.empty());
  EXPECT_TRUE(fabric_check_identical(verdict.check, system.check_all(net)));

  // Suspect handoff to the existing localizer.
  const LocalizationResult loc = monitor.localize(verdict.check);
  EXPECT_FALSE(loc.hypothesis.empty());

  // Resync repairs the switch; the monitor converges back to clean.
  (void)net.controller().resync_switch(three.s2);
  verdict = monitor.drain();
  EXPECT_TRUE(verdict.check.inconsistent.empty());
  EXPECT_TRUE(fabric_check_identical(verdict.check, system.check_all(net)));
}

// localize() keeps one controller risk model per compiled epoch and only
// swaps its failure marks between calls. Every answer must equal SCOUT's
// on a model built and augmented for that verdict alone: two different
// failing verdicts in one epoch (stale marks would leak from the first
// into the second), then one after a filter push recompiles the policy
// (a stale model would lack the new filter).
TEST(StreamMonitor, CachedRiskModelLocalizesLikeAFreshOne) {
  ThreeTierNetwork three = make_three_tier();
  SimNetwork net{std::move(three.fabric), std::move(three.policy)};
  net.deploy();
  net.clock().advance(3'600'000);
  stream::EventBus bus;
  net.attach_event_bus(&bus);
  runtime::SerialExecutor executor;
  stream::MonitorLoop monitor{net, bus, executor};
  monitor.prime();

  const auto expect_fresh_answer = [&](const FabricCheck& check) {
    RiskModel model = RiskModel::build_controller_model(
        PolicyIndex{net.controller().policy()});
    model.augment(check.missing_rules);
    const LocalizationResult want = ScoutLocalizer{}.localize(
        model, net.controller().change_log(), net.clock().now());
    const LocalizationResult got = monitor.localize(check);
    EXPECT_EQ(got.hypothesis, want.hypothesis);
    EXPECT_EQ(got.observations_total, want.observations_total);
    EXPECT_EQ(got.observations_explained, want.observations_explained);
    EXPECT_EQ(got.stage2_objects, want.stage2_objects);
    EXPECT_EQ(got.iterations, want.iterations);
    return got;
  };

  ASSERT_GT(net.agent(three.s2).evict_rules(64, net.clock().now()), 0u);
  const stream::MonitorVerdict first = monitor.drain();
  ASSERT_FALSE(first.check.inconsistent.empty());
  const LocalizationResult first_loc = expect_fresh_answer(first.check);

  (void)net.controller().resync_switch(three.s2);
  ASSERT_GT(net.agent(three.s3).evict_rules(64, net.clock().now()), 0u);
  const stream::MonitorVerdict second = monitor.drain();
  ASSERT_EQ(second.check.inconsistent, std::vector<SwitchId>{three.s3});
  const LocalizationResult second_loc = expect_fresh_answer(second.check);
  EXPECT_NE(second_loc.hypothesis, first_loc.hypothesis);

  // Push a new filter (recompile: epoch bump), then take exactly its rules
  // out of both switches it landed on.
  (void)net.controller().resync_switch(three.s3);
  const std::uint64_t epoch = net.controller().compiled_epoch();
  const FilterId port443 = net.controller().deploy_new_filter(
      "port443", {FilterEntry::allow_tcp(443)}, three.app_db);
  ASSERT_GT(net.controller().compiled_epoch(), epoch);
  std::size_t removed = 0;
  for (const auto& [sw, rules] : net.controller().compiled().per_switch) {
    for (const LogicalRule& lr : rules) {
      if (lr.prov.filter != port443) continue;
      ASSERT_EQ(net.agent(sw).apply(
                    Instruction{InstructionOp::kRemoveRule, lr},
                    net.clock().now()),
                ApplyStatus::kApplied);
      ++removed;
    }
  }
  ASSERT_GT(removed, 0u);
  const stream::MonitorVerdict third = monitor.drain();
  ASSERT_FALSE(third.check.inconsistent.empty());
  const LocalizationResult third_loc = expect_fresh_answer(third.check);
  EXPECT_TRUE(third_loc.contains(ObjectRef::of(port443)));
}

// An out-of-shape delta (a non-catch-all deny installed into the TCAM)
// must fall back to a full T rebuild — and still be verdict-exact.
TEST(StreamMonitor, UnsafeDeltaFallsBackToRebuildExactly) {
  ThreeTierNetwork three = make_three_tier();
  SimNetwork net{std::move(three.fabric), std::move(three.policy)};
  net.deploy();
  net.clock().advance(3'600'000);
  stream::EventBus bus;
  net.attach_event_bus(&bus);
  runtime::SerialExecutor executor;
  stream::MonitorLoop monitor{net, bus, executor};
  monitor.prime();

  // A high-precedence deny covering web->app traffic on S2: installed
  // through the agent so the TCAM and the event stream agree.
  LogicalRule deny;
  deny.rule = net.agent(three.s2).tcam().rules()[0];  // clone a real match
  deny.rule.priority = 0;
  deny.rule.action = RuleAction::kDeny;
  deny.prov.sw = three.s2;
  ASSERT_EQ(net.agent(three.s2).apply(
                Instruction{InstructionOp::kAddRule, deny},
                net.clock().now()),
            ApplyStatus::kApplied);

  const stream::MonitorVerdict verdict = monitor.drain();
  const ScoutSystem system;
  EXPECT_TRUE(fabric_check_identical(verdict.check, system.check_all(net)));
  EXPECT_FALSE(verdict.check.inconsistent.empty());  // deny shadows an allow
  EXPECT_GE(monitor.checker_stats().unsafe_rebuilds, 1u);

  // Churn on the unsafe switch keeps rebuilding — and keeps matching.
  ASSERT_GT(net.agent(three.s2).evict_rules(1, net.clock().now()), 0u);
  const stream::MonitorVerdict after = monitor.drain();
  EXPECT_TRUE(fabric_check_identical(after.check, system.check_all(net)));
}

// A deployed 8-leaf generated fabric (240 EPG pairs) with a bus attached.
struct DeployedFabric {
  DeployedFabric() : net(make()) {
    net.deploy();
    net.clock().advance(3'600'000);
    net.attach_event_bus(&bus);
  }
  static SimNetwork make() {
    GeneratorProfile profile = GeneratorProfile::scaled(8);
    profile.target_pairs = 8 * 30;
    Rng rng{5};
    GeneratedNetwork generated = generate_network(profile, rng);
    return SimNetwork{std::move(generated.fabric),
                      std::move(generated.policy)};
  }

  SimNetwork net;
  stream::EventBus bus;
};

std::size_t epoch_markers(const telemetry::FlightRecorder& flight,
                          std::size_t lane) {
  const auto lanes = flight.snapshot();
  std::size_t n = 0;
  for (const auto& e : lanes.at(lane).entries) {
    if (e.kind == telemetry::FlightRecorder::EntryKind::kInstant &&
        std::string_view{e.name} == "full_rebuild.epoch") {
      ++n;
    }
  }
  return n;
}

// A push re-encodes L and T only on the switches whose compiled rules it
// changed (CompiledPolicy::rules_epoch), and a resync re-encodes its
// switch's T once. Every batch holds one push, TCAM deltas on switches the
// push changed and on switches it left alone, and a resync of one it left
// alone, so each switch's T update must be decided before any of its
// events is applied.
TEST(StreamMonitor, PushesRebuildOnlyTheSwitchesTheyChange) {
  for (const std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE(workers);
    DeployedFabric fabric;
    SimNetwork& net = fabric.net;
    Controller& ctl = net.controller();
    const auto executor = runtime::make_executor(workers);
    telemetry::FlightRecorder flight{
        {.lanes = workers + 1, .capacity_per_lane = 1024}};
    stream::MonitorLoop::Options options;
    options.flight = &flight;
    stream::MonitorLoop monitor{net, fabric.bus, *executor, options};
    monitor.prime();
    const ScoutSystem system;
    const auto agents = net.agents();
    Rng rng{17};

    // Filter pushes go to the contract whose pairs span the fewest
    // switches (two at least), so they change some switches and leave the
    // rest alone.
    const NetworkPolicy& policy = ctl.policy();
    ContractId contract;
    std::size_t fewest = agents.size() + 1;
    for (const Contract& c : policy.contracts()) {
      std::set<SwitchId> span;
      for (const ContractLink& l : policy.links()) {
        if (l.contract != c.id) continue;
        for (const SwitchId sw :
             policy.switches_for_pair(EpgPair{l.consumer, l.provider})) {
          span.insert(sw);
        }
      }
      if (span.size() >= 2 && span.size() < fewest) {
        fewest = span.size();
        contract = c.id;
      }
    }
    const EndpointId ep = policy.endpoints().front().id;
    const SwitchId home = policy.endpoint(ep).attached_switch;
    FilterId filter;
    std::vector<std::size_t> markers_by_shard(workers, 0);
    std::size_t changed_total = 0;
    for (std::size_t b = 0; b < 10; ++b) {
      SCOPED_TRACE(b);
      const stream::IncrementalChecker::Stats stats = monitor.checker_stats();
      const CompiledPolicy before = ctl.compiled();
      const std::uint64_t epoch = ctl.compiled_epoch();
      std::set<SwitchId> resynced;
      switch (b % 5) {
        case 0:
          filter = ctl.deploy_new_filter(
              "push" + std::to_string(b),
              {FilterEntry::allow_tcp(static_cast<std::uint16_t>(8000 + b))},
              contract);
          break;
        case 1:
          ctl.undeploy_filter(contract, filter);
          break;
        case 2:
        case 3: {
          // Away to the next agent, then back home.
          const SwitchId from = policy.endpoint(ep).attached_switch;
          SwitchId to = home;
          if (b % 5 == 2) {
            const auto it = std::find_if(
                agents.begin(), agents.end(),
                [&](const auto& a) { return a->id() == home; });
            to = (std::next(it) == agents.end() ? agents.front()
                                                : *std::next(it))
                     ->id();
          }
          (void)ctl.migrate_endpoint(ep, to);
          resynced.insert(from);
          resynced.insert(to);
          break;
        }
        default:
          ctl.recompile();  // the unchanged policy
          break;
      }
      ASSERT_GT(ctl.compiled_epoch(), epoch);

      std::vector<std::size_t> changed;
      std::vector<std::size_t> unchanged;
      for (std::size_t i = 0; i < agents.size(); ++i) {
        const SwitchId sw = agents[i]->id();
        (before.rules_for(sw) == ctl.compiled().rules_for(sw) ? unchanged
                                                              : changed)
            .push_back(i);
      }
      ASSERT_FALSE(unchanged.empty());
      if (b % 5 == 4) {
        EXPECT_TRUE(changed.empty());
      }
      changed_total += changed.size();

      // A resync of a switch the push left alone, with an eviction after
      // its reinstalls; 1-3 evictions or bit flips on other switches the
      // push left alone, and one more on a switch it changed.
      const SimTime now = net.clock().now();
      SwitchAgent& target = *agents[unchanged[b % unchanged.size()]];
      (void)ctl.resync_switch(target.id());
      resynced.insert(target.id());
      (void)target.evict_rules(1, now);
      for (std::size_t j = 0; j <= b % 3; ++j) {
        SwitchAgent& agent =
            *agents[unchanged[(b + 1 + j) % unchanged.size()]];
        if ((b + j) % 2 == 0) {
          (void)agent.evict_rules(1 + j, now);
        } else {
          (void)agent.corrupt_tcam_bit(rng, now, 0.5);
        }
      }
      if (!changed.empty()) (void)agents[changed.front()]->evict_rules(1, now);

      const stream::MonitorVerdict verdict = monitor.drain();
      EXPECT_TRUE(
          fabric_check_identical(verdict.check, system.check_all(net)));
      const stream::IncrementalChecker::Stats after = monitor.checker_stats();
      EXPECT_EQ(after.epoch_rebuilds - stats.epoch_rebuilds, changed.size());
      std::size_t resynced_unchanged = 0;
      for (const std::size_t i : unchanged) {
        if (resynced.contains(agents[i]->id())) ++resynced_unchanged;
      }
      EXPECT_EQ(after.resync_encodes - stats.resync_encodes,
                resynced_unchanged);
      // Lane s+1 holds shard s's markers; switch i is on shard i % workers.
      for (const std::size_t i : changed) ++markers_by_shard[i % workers];
      for (std::size_t s = 0; s < workers; ++s) {
        EXPECT_EQ(epoch_markers(flight, s + 1), markers_by_shard[s])
            << "shard " << s;
      }
    }
    // Pushes changed some switches, and never all of them every time.
    EXPECT_GT(changed_total, 0u);
    EXPECT_LT(changed_total, 10 * agents.size());
  }
}

// A resync re-encodes the switch's T from the shadow after rolling its
// arena back to L, which drops every older T version: resyncing every
// switch compacts the arenas back to their post-prime size.
TEST(StreamMonitor, ResyncReencodeShrinksTheArena) {
  DeployedFabric fabric;
  SimNetwork& net = fabric.net;
  stream::IncrementalChecker checker{net, 1, {}, nullptr};
  checker.stage({});
  checker.process_shard(0, 0);
  const std::size_t primed = checker.arena_totals().nodes;
  stream::EventBus::Cursor cursor = fabric.bus.cursor();
  std::uint64_t batch = 1;
  const auto drain = [&] {
    const auto events = fabric.bus.events_since(cursor);
    cursor += events.size();
    checker.stage(events);
    checker.process_shard(0, batch++);
    return checker.compose();
  };

  Rng rng{23};
  const ScoutSystem system;
  for (std::size_t b = 0; b < 8; ++b) {
    for (const auto& agent : net.agents()) {
      if ((b + agent->id().value()) % 2 == 0) {
        (void)agent->evict_rules(2, net.clock().now());
      } else {
        (void)agent->corrupt_tcam_bit(rng, net.clock().now(), 0.5);
      }
    }
    (void)drain();
  }
  ASSERT_GT(checker.arena_totals().nodes, primed);

  const stream::IncrementalChecker::Stats churned = checker.stats();
  for (const auto& agent : net.agents()) {
    (void)net.controller().resync_switch(agent->id());
  }
  const FabricCheck check = drain();
  // One T encode per switch; the reinstalls are no cube updates.
  EXPECT_EQ(checker.stats().resync_encodes, net.agents().size());
  EXPECT_EQ(checker.stats().incremental_updates,
            churned.incremental_updates);
  EXPECT_LE(checker.arena_totals().nodes, primed);
  EXPECT_TRUE(fabric_check_identical(check, system.check_all(net)));
}

}  // namespace
}  // namespace scout
