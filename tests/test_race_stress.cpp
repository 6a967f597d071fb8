// Adversarial concurrency stress for the runtime core. These tests are the
// workload the sanitizer matrix runs against: they hammer the exact
// interleavings the thread-safety annotations claim to rule out —
// submit/wait/destroy races on the sharded pool, cross-thread submitters,
// worker-cache traffic under a live executor, and the event-bus-under-
// monitor pipeline with a metrics snapshot taken at every quiescent point.
// Under plain builds they pin the functional contracts; under
// -fsanitize=thread they are the race detectors' corpus.
#include <algorithm>
#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/runtime/campaign.h"
#include "src/runtime/result_sink.h"
#include "src/runtime/thread_pool.h"
#include "src/scout/experiment.h"
#include "src/scout/sim_network.h"
#include "src/stream/churn_generator.h"
#include "src/stream/event_bus.h"
#include "src/stream/monitor_loop.h"
#include "src/stream/mpsc_ring.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/metrics.h"

namespace scout {
namespace {

// -- ThreadPool interleavings ------------------------------------------------

TEST(RaceStress, ThreadPoolRepeatedSubmitWaitRounds) {
  runtime::ThreadPool pool{4};
  std::atomic<std::size_t> done{0};
  constexpr std::size_t kRounds = 50;
  constexpr std::size_t kTasksPerRound = 64;
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (std::size_t i = 0; i < kTasksPerRound; ++i) {
      pool.submit(i, [&done] { done.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.wait();
    ASSERT_EQ(done.load(), (round + 1) * kTasksPerRound);
  }
}

TEST(RaceStress, ThreadPoolConcurrentSubmitters) {
  // submit() is documented thread-safe: several external threads race to
  // enqueue onto the same shards while the pool is already running.
  runtime::ThreadPool pool{4};
  constexpr std::size_t kSubmitters = 4;
  constexpr std::size_t kPerSubmitter = 250;
  std::atomic<std::size_t> done{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (std::size_t s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&pool, &done, s] {
      for (std::size_t i = 0; i < kPerSubmitter; ++i) {
        pool.submit(s * kPerSubmitter + i, [&done] {
          done.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  pool.wait();
  EXPECT_EQ(done.load(), kSubmitters * kPerSubmitter);
}

TEST(RaceStress, ThreadPoolDestroyWithQueuedWorkDrains) {
  // Destruction races the workers against a deep backlog; the destructor
  // must drain every queued task, not drop or double-run any.
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::size_t> done{0};
    {
      runtime::ThreadPool pool{4};
      for (std::size_t i = 0; i < 128; ++i) {
        pool.submit(i, [&done] {
          done.fetch_add(1, std::memory_order_relaxed);
        });
      }
      // No wait(): the destructor owns the drain.
    }
    ASSERT_EQ(done.load(), 128u) << "round " << round;
  }
}

TEST(RaceStress, ThreadPoolTasksSubmittingTasks) {
  // A task fanning out follow-up work races submit() against the parent's
  // own completion accounting: pending_ must never hit zero while a child
  // is still queued.
  runtime::ThreadPool pool{4};
  std::atomic<std::size_t> leaves{0};
  constexpr std::size_t kRoots = 32;
  constexpr std::size_t kChildren = 8;
  for (std::size_t r = 0; r < kRoots; ++r) {
    pool.submit(r, [&pool, &leaves, r] {
      for (std::size_t c = 0; c < kChildren; ++c) {
        pool.submit(r + c + 1, [&leaves] {
          leaves.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  pool.wait();
  EXPECT_EQ(leaves.load(), kRoots * kChildren);
}

TEST(RaceStress, ThreadPoolExceptionStormKeepsPoolUsable) {
  runtime::ThreadPool pool{4};
  std::atomic<std::size_t> survivors{0};
  for (int round = 0; round < 10; ++round) {
    for (std::size_t i = 0; i < 64; ++i) {
      if (i % 7 == 0) {
        pool.submit(i, [] { throw std::runtime_error{"storm"}; });
      } else {
        pool.submit(i, [&survivors] {
          survivors.fetch_add(1, std::memory_order_relaxed);
        });
      }
    }
    EXPECT_THROW(pool.wait(), std::runtime_error) << "round " << round;
  }
  // A clean batch after the storm: the error slot was consumed each round.
  pool.submit(0, [&survivors] { survivors.fetch_add(1); });
  pool.wait();
}

// -- WorkerCache under a live executor ---------------------------------------

TEST(RaceStress, WorkerCacheHammeredByExecutor) {
  runtime::ThreadPoolExecutor executor{4};
  runtime::WorkerCache<std::vector<int>> cache{executor.workers()};
  constexpr std::size_t kTasks = 2000;
  // Two keys alternating in blocks of 16 indices (4 consecutive tasks per
  // worker under the round-robin) force a hit/miss mix; every task touches
  // only its own worker's slot, which is the discipline TSan certifies.
  executor.run(kTasks, [&cache](std::size_t index, std::size_t worker) {
    const std::uint64_t key = 100 + (index / 16) % 2;
    std::vector<int>* entry = cache.lookup(worker, key);
    if (entry == nullptr) {
      cache.note_miss(worker);
      entry = &cache.store(worker, key,
                           std::vector<int>(8, static_cast<int>(worker)));
    } else {
      cache.note_hit(worker);
    }
    ASSERT_EQ(entry->size(), 8u);
    ASSERT_EQ((*entry)[0], static_cast<int>(worker));
    if (index % 97 == 0) cache.invalidate(worker);
  });
  EXPECT_EQ(cache.hits() + cache.misses(), kTasks);
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_GT(cache.misses(), 0u);
}

// -- MetricsRegistry: sharded recording merges exactly -----------------------

TEST(RaceStress, MetricsMergeExactUnderParallelRecording) {
  runtime::ThreadPoolExecutor executor{4};
  telemetry::MetricsRegistry registry{executor.workers()};
  telemetry::Counter tasks = registry.counter("stress.tasks");
  telemetry::Histogram values = registry.histogram("stress.values");
  runtime::ExecutorMetrics wiring;
  wiring.registry = &registry;
  executor.set_metrics(std::move(wiring));

  constexpr std::size_t kTasks = 5000;
  constexpr int kRounds = 4;
  for (int round = 0; round < kRounds; ++round) {
    executor.run(kTasks, [&](std::size_t index, std::size_t worker) {
      tasks.inc(worker);
      values.record(worker, static_cast<double>(index % 17));
    });
    // The executor joined, so the registry is quiescent: the snapshot must
    // see every one of the shard-local plain stores, exactly once.
    const telemetry::MetricsSnapshot snap = registry.snapshot();
    EXPECT_EQ(snap.counter("stress.tasks"), kTasks * (round + 1));
    const LogHistogram* hist = snap.histogram("stress.values");
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(hist->count(), kTasks * static_cast<std::size_t>(round + 1));
  }
  executor.set_metrics(runtime::ExecutorMetrics{});
}

TEST(RaceStress, MetricsResetBetweenParallelPhases) {
  runtime::ThreadPoolExecutor executor{2};
  telemetry::MetricsRegistry registry{executor.workers()};
  telemetry::Counter c = registry.counter("stress.reset");
  runtime::ExecutorMetrics wiring;
  wiring.registry = &registry;
  executor.set_metrics(std::move(wiring));
  for (int round = 0; round < 8; ++round) {
    executor.run(300, [&c](std::size_t, std::size_t worker) {
      c.inc(worker);
    });
    EXPECT_EQ(registry.snapshot().counter("stress.reset"), 300u);
    registry.reset();
  }
  executor.set_metrics(runtime::ExecutorMetrics{});
}

// -- FlightRecorder: one lane per worker, recorded concurrently --------------

TEST(RaceStress, FlightLanesRecordConcurrently) {
  runtime::ThreadPoolExecutor executor{4};
  constexpr std::size_t kTasks = 1000;
  // Room for every entry, so the per-lane counts are exact survivors too.
  telemetry::FlightRecorder recorder{
      {.lanes = executor.workers() + 1, .capacity_per_lane = kTasks}};
  // Each worker counts into its own slot: the expected per-lane totals.
  std::vector<std::uint64_t> expected(executor.workers() + 1, 0);
  executor.run(kTasks, [&](std::size_t index, std::size_t worker) {
    const telemetry::FlightRecorder::Scope span{&recorder, worker + 1,
                                                "task", index, -1};
    ++expected[worker + 1];
    if (index % 50 == 0) {
      recorder.instant(worker + 1, "marker", index, -1);
      ++expected[worker + 1];
    }
  });
  recorder.instant(0, "joined", kTasks, -1);
  expected[0] = 1;
  std::size_t spans = 0;
  std::size_t instants = 0;
  for (const auto& lane : recorder.snapshot()) {
    EXPECT_EQ(lane.recorded, expected[lane.lane]) << "lane " << lane.lane;
    EXPECT_EQ(lane.entries.size(), lane.recorded) << "lane " << lane.lane;
    for (const auto& e : lane.entries) {
      ++(e.kind == telemetry::FlightRecorder::EntryKind::kSpan ? spans
                                                               : instants);
    }
  }
  EXPECT_EQ(spans, kTasks);
  EXPECT_EQ(instants, kTasks / 50 + 1);
}

// -- EventBus under the monitor: the full pipeline at 4 workers --------------

TEST(RaceStress, MonitorSnapshotsAfterEveryDrainAt4Workers) {
  // End-to-end: churn from 2 ring publishers -> bus -> incremental monitor
  // fanning shards over 4 workers onto a flight recorder, with
  // snapshot_metrics() after *every* drain. Each snapshot lands at a
  // quiescent point (after the executor join and the publishers' phase), a
  // contract the registry enforces by aborting otherwise; under TSan this
  // certifies the handoff from the shard-local registry slots and from
  // the owners' counters (checker shards, ring, TCAMs) to the snapshot.
  GeneratorProfile profile = GeneratorProfile::scaled(8);
  profile.target_pairs = 8 * 30;
  Rng net_rng{77};
  GeneratedNetwork generated = generate_network(profile, net_rng);
  SimNetwork net{std::move(generated.fabric), std::move(generated.policy)};
  net.deploy();
  net.clock().advance(3'600'000);
  stream::EventBus bus;
  net.attach_event_bus(&bus);
  std::size_t sw_bound = 0;
  for (const auto& agent : net.agents()) {
    sw_bound = std::max<std::size_t>(sw_bound, agent->id().value() + 1);
  }
  stream::MpscRing ring{2, sw_bound};
  bus.attach_ring(&ring);

  runtime::ThreadPoolExecutor executor{4};
  telemetry::MetricsRegistry registry{executor.workers()};
  telemetry::FlightRecorder flight{{.lanes = executor.workers() + 1}};
  stream::MonitorLoop::Options options;
  options.metrics = &registry;
  options.flight = &flight;
  stream::MonitorLoop monitor{net, bus, executor, options};
  monitor.prime();
  stream::ConcurrentChurnDriver driver{
      net, bus, 77, stream::ConcurrentChurnDriver::Options{.publishers = 2}};

  std::uint64_t drained = 0;
  for (std::uint64_t batch = 1; batch <= 12; ++batch) {
    (void)driver.pump(10);
    drained += monitor.drain().events;
    const telemetry::MetricsSnapshot snap = monitor.snapshot_metrics();
    EXPECT_EQ(snap.counter("stream.batches"), batch);
    EXPECT_EQ(snap.counter("stream.events_drained"), drained);
    EXPECT_EQ(snap.counter("stream.events_applied"),
              monitor.checker_stats().events_applied);
    EXPECT_LE(snap.counter("stream.events_applied"), drained);
  }
  EXPECT_GT(drained, 0u);
  EXPECT_GT(flight.total_recorded(), 0u);
  driver.stop();
  bus.attach_ring(nullptr);
}

TEST(RaceStress, MonitorVerdictsIdenticalAcrossRepeatedParallelRuns) {
  // Determinism under contention: the same scenario at 4 workers, run
  // repeatedly, must emit the same verdict digest every time. Flaky
  // digests here mean a scheduling-dependent data path — the bug class
  // this PR's annotations exist to keep out.
  MonitoringOptions options;
  options.profile = GeneratorProfile::scaled(8);
  options.profile.target_pairs = 8 * 30;
  options.events = 80;
  options.batch_ops = 10;
  options.seed = 31;
  options.collect_telemetry = true;
  options.localize_final = false;

  std::uint64_t expected = 0;
  for (int run = 0; run < 3; ++run) {
    runtime::ThreadPoolExecutor executor{4};
    const MonitoringReport report =
        run_continuous_monitoring(options, executor);
    if (run == 0) {
      expected = report.verdict_digest;
    } else {
      EXPECT_EQ(report.verdict_digest, expected) << "run " << run;
    }
  }
}

// -- MpscRing storms: publishers and drainer at full contention --------------

stream::StreamEvent storm_event(std::uint32_t sw, std::uint64_t n) {
  stream::StreamEvent ev;
  ev.type = stream::StreamEventType::kRuleEvicted;
  ev.sw = SwitchId{sw};
  ev.tcam_index = n;  // per-publisher payload: order + exactly-once proof
  return ev;
}

TEST(RaceStress, MpscRingEightPublisherStormAgainstConcurrentDrainer) {
  // More publishers than this machine has cores, a shard a fraction of the
  // per-publisher volume, and a drainer racing them the whole way: every
  // publish must land exactly once, in per-publisher order, with zero
  // evictions (backpressure absorbs the overrun).
  constexpr std::size_t kPublishers = 8;
  constexpr std::uint64_t kPerPublisher = 1500;
  stream::MpscRing::Options opts;
  opts.shard_capacity = 32;
  opts.on_full = stream::MpscRing::FullPolicy::kBackpressure;
  stream::MpscRing ring{kPublishers, kPublishers, opts};

  std::vector<std::thread> pubs;
  pubs.reserve(kPublishers);
  for (std::size_t p = 0; p < kPublishers; ++p) {
    pubs.emplace_back([&ring, p] {
      ring.claim(p);
      for (std::uint64_t i = 0; i < kPerPublisher; ++i) {
        ASSERT_TRUE(
            ring.publish(p, storm_event(static_cast<std::uint32_t>(p), i)));
      }
      ring.release(p);
    });
  }

  std::vector<std::uint64_t> next(kPublishers, 0);
  std::uint64_t drained = 0;
  while (drained < kPublishers * kPerPublisher) {
    for (std::size_t p = 0; p < kPublishers; ++p) {
      drained += ring.drain_shard(p, [&next, p](const stream::StreamEvent& e) {
        ASSERT_EQ(e.tcam_index, next[p]) << "publisher " << p;
        ++next[p];
      });
    }
  }
  for (std::thread& t : pubs) t.join();
  const stream::MpscRing::Stats stats = ring.stats();
  EXPECT_EQ(stats.published, kPublishers * kPerPublisher);
  EXPECT_EQ(stats.drained, kPublishers * kPerPublisher);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(RaceStress, BusRoutedStormWithEvictionsFoldsBackExactly) {
  // The full bus path under overrun: 8 capability-holding threads publish
  // through EventBus::publish into a deliberately tiny eviction-policy
  // ring while the main thread keeps folding shards into the serial
  // stream. Conservation must hold exactly: every publish either reaches
  // the stream or is accounted as an eviction, and every evicted switch
  // surfaces as a synthesized shadow-resync.
  constexpr std::size_t kPublishers = 8;
  constexpr std::uint64_t kPerPublisher = 1000;
  stream::MpscRing::Options opts;
  opts.shard_capacity = 16;  // guaranteed overruns between ingests
  stream::MpscRing ring{kPublishers, kPublishers, opts};
  stream::EventBus bus;
  bus.attach_ring(&ring);

  std::atomic<std::size_t> running{kPublishers};
  std::vector<std::thread> pubs;
  pubs.reserve(kPublishers);
  for (std::size_t p = 0; p < kPublishers; ++p) {
    pubs.emplace_back([&bus, &running, p] {
      stream::EventBus::ConcurrentPublishCapability cap{bus, p};
      for (std::uint64_t i = 0; i < kPerPublisher; ++i) {
        (void)bus.publish(storm_event(static_cast<std::uint32_t>(p), i));
      }
      running.fetch_sub(1, std::memory_order_release);
    });
  }
  while (running.load(std::memory_order_acquire) != 0) {
    (void)bus.ingest_ring();
    std::this_thread::yield();
  }
  for (std::thread& t : pubs) t.join();
  (void)bus.ingest_ring();  // final fold: publishers quiescent

  const stream::MpscRing::Stats ring_stats = ring.stats();
  const stream::EventBus::Stats bus_stats = bus.stats();
  EXPECT_EQ(ring_stats.published + ring_stats.evictions,
            kPublishers * kPerPublisher);
  EXPECT_EQ(ring_stats.drained, ring_stats.published);
  EXPECT_EQ(bus_stats.ingested, ring_stats.drained);
  EXPECT_GT(ring_stats.evictions, 0u);
  EXPECT_GT(bus_stats.resyncs_synthesized, 0u);
  EXPECT_EQ(bus_stats.published,
            bus_stats.ingested + bus_stats.resyncs_synthesized);
  EXPECT_EQ(bus.cursor(), bus_stats.published);
  bus.attach_ring(nullptr);
}

TEST(RaceStress, CloseWhileEveryShardIsFullReleasesAllSpinners) {
  // Shutdown under the worst backpressure state: every publisher blocked
  // on a full shard, no drainer anywhere. close() must convert all of
  // them to the eviction path; destruction then waits for the releases.
  constexpr std::size_t kPublishers = 4;
  constexpr std::size_t kCapacity = 8;
  stream::MpscRing::Options opts;
  opts.shard_capacity = kCapacity;
  opts.on_full = stream::MpscRing::FullPolicy::kBackpressure;
  auto ring = std::make_unique<stream::MpscRing>(kPublishers, kPublishers,
                                                 opts);
  std::atomic<std::size_t> filled{0};
  std::vector<std::thread> pubs;
  pubs.reserve(kPublishers);
  for (std::size_t p = 0; p < kPublishers; ++p) {
    pubs.emplace_back([&ring, &filled, p] {
      ring->claim(p);
      for (std::size_t i = 0; i < kCapacity; ++i) {
        ASSERT_TRUE(
            ring->publish(p, storm_event(static_cast<std::uint32_t>(p), i)));
      }
      filled.fetch_add(1, std::memory_order_release);
      // Shard full, nobody draining: this blocks until close() flips it
      // to the eviction path.
      EXPECT_FALSE(ring->publish(
          p, storm_event(static_cast<std::uint32_t>(p), kCapacity)));
      ring->release(p);
    });
  }
  while (filled.load(std::memory_order_acquire) != kPublishers) {
    std::this_thread::yield();
  }
  ring->close();
  for (std::thread& t : pubs) t.join();
  EXPECT_EQ(ring->stats().evictions, kPublishers);
  std::vector<SwitchId> evicted;
  (void)ring->take_evictions(evicted);
  EXPECT_EQ(evicted.size(), kPublishers);
  ring.reset();  // dtor: close + wait for releases (already released)
}

TEST(RaceStress, PipelinedMonitorAt4PublishersConvergesUnderContention) {
  // End-to-end free-run: 4 publisher threads race the drain loop through
  // the backpressure ring while the monitor verifies concurrently. The
  // timing-independent contract is that the final composed verdict equals
  // a fresh check_all at quiescence.
  MonitoringOptions options;
  options.profile = GeneratorProfile::scaled(8);
  options.profile.target_pairs = 8 * 30;
  options.events = 120;
  options.batch_ops = 10;
  options.seed = 77;
  options.publishers = 4;
  options.pipelined = true;
  options.localize_final = false;

  runtime::ThreadPoolExecutor executor{4};
  const MonitoringReport report =
      run_continuous_monitoring(options, executor);
  EXPECT_GE(report.events, options.events);
  EXPECT_TRUE(report.final_verdict_matches_fresh);
  EXPECT_EQ(report.checker.full_rebuilds,
            report.checker.epoch_rebuilds + report.checker.threshold_trips +
                report.checker.unsafe_rebuilds +
                report.checker.overflow_resyncs);
}

}  // namespace
}  // namespace scout
