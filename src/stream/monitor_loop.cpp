#include "src/stream/monitor_loop.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "src/agent/switch_agent.h"
#include "src/common/check.h"
#include "src/common/logging.h"
#include "src/policy/policy_index.h"
#include "src/riskmodel/risk_model.h"
#include "src/stream/incident.h"
#include "src/tcam/tcam_table.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/health.h"

namespace scout::stream {
namespace {

using WallClock = std::chrono::steady_clock;

double millis_between(WallClock::time_point from, WallClock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

}  // namespace

MonitorLoop::MonitorLoop(SimNetwork& net, EventBus& bus,
                         runtime::Executor& executor)
    : MonitorLoop(net, bus, executor, Options{}) {}

MonitorLoop::MonitorLoop(SimNetwork& net, EventBus& bus,
                         runtime::Executor& executor, Options options)
    : net_(&net),
      bus_(&bus),
      executor_(&executor),
      options_(options),
      full_system_(ScoutSystem::Options{CheckMode::kExactBdd,
                                        options.localizer}) {
  // Lane 0 is the driver's and lane s+1 checker shard s's; a missing lane
  // would alias another writer's ring.
  SCOUT_CHECK(options_.flight == nullptr ||
                  options_.flight->lanes() > executor.workers(),
              "MonitorLoop: flight recorder has " << options_.flight->lanes()
                  << " lanes, needs " << executor.workers() + 1);
  if (options_.incremental) {
    checker_ = std::make_unique<IncrementalChecker>(
        net, executor.workers(), options_.checker, options_.flight);
  } else {
    full_cache_ = std::make_unique<LogicalBddCache>(executor.workers());
  }
  SerialGuard g{serial_};
  // One bus reader per checker shard (one in full-recheck mode): their
  // cursors are the multi-cursor compaction boundary — compact() reclaims
  // nothing a shard's reader has not passed.
  const std::size_t reader_count =
      options_.incremental ? checker_->shard_count() : 1;
  readers_.reserve(reader_count);
  for (std::size_t r = 0; r < reader_count; ++r) {
    readers_.push_back(bus_->register_reader());
  }
  register_metrics();
}

MonitorLoop::~MonitorLoop() {
  // register_metrics() handed the executor handles that point into the
  // caller-owned registry; detach them so the executor cannot record into
  // a registry that dies before it does.
  if (options_.metrics != nullptr) {
    executor_->set_metrics(runtime::ExecutorMetrics{});
  }
}

void MonitorLoop::register_metrics() {
  telemetry::MetricsRegistry* reg = options_.metrics;
  if (reg == nullptr) return;
  batches_counter_ = reg->counter("stream.batches");
  events_counter_ = reg->counter("stream.events_drained");
  wall_latency_ms_ = reg->histogram("stream.wall_latency_ms");
  sim_latency_ms_ = reg->histogram("stream.sim_latency_ms");
  drain_ms_ = reg->histogram("stream.drain_ms");
  batch_events_ = reg->histogram("stream.batch_events");
  bus_backlog_ = reg->gauge("stream.bus_backlog");
  bus_cursor_lag_ = reg->gauge("stream.bus_cursor_lag");
  bus_published_ = reg->counter("stream.bus_published");
  bus_compactions_ = reg->counter("stream.bus_compactions");
  bus_compacted_events_ = reg->counter("stream.bus_compacted_events");
  if (checker_ != nullptr) {
    initial_builds_ = reg->counter("stream.initial_builds");
    events_applied_ = reg->counter("stream.events_applied");
    incremental_updates_ = reg->counter("stream.incremental_updates");
    full_rebuilds_ = reg->counter("stream.full_rebuilds");
    epoch_rebuilds_ = reg->counter("stream.epoch_rebuilds");
    threshold_trips_ = reg->counter("stream.threshold_trips");
    unsafe_rebuilds_ = reg->counter("stream.unsafe_rebuilds");
    overflow_resyncs_ = reg->counter("stream.overflow_resyncs");
    diff_recomputes_ = reg->counter("stream.diff_recomputes");
    verdicts_reused_ = reg->counter("stream.verdicts_reused");
    arena_peak_nodes_ = reg->gauge("bdd.arena_peak_nodes");
    // Per-switch churn series register lazily, top-K per bridge
    // (update_churn_gauges) — an upfront gauge per switch would make the
    // exporter's cardinality linear in fabric size.
    churn_other_gauge_ = reg->gauge("stream.churn.other");
  } else {
    resident_switches_ = reg->gauge("bdd.resident_switches");
  }
  // Concurrent-publish instrumentation — only when the driver attached a
  // ring before constructing the monitor (serial-only runs skip the
  // metric names entirely).
  if (const MpscRing* ring = bus_->ring()) {
    bus_ingested_ = reg->counter("stream.bus_ingested");
    bus_resyncs_synthesized_ = reg->counter("stream.bus_resyncs_synthesized");
    ring_published_ = reg->counter("stream.ring_published");
    ring_drained_ = reg->counter("stream.ring_drained");
    ring_evictions_ = reg->counter("stream.ring_evictions");
    ring_full_stalls_ = reg->counter("stream.ring_full_stalls");
    ring_occupancy_ = reg->gauge("stream.ring_occupancy");
    ring_high_water_ = reg->gauge("stream.ring_high_water");
    ring_lag_gauges_.reserve(ring->publishers());
    for (std::size_t p = 0; p < ring->publishers(); ++p) {
      ring_lag_gauges_.push_back(
          reg->gauge("stream.ring.lag.pub" + std::to_string(p)));
    }
  }
  // Fault-engine activity. The eviction counter names are read off the
  // agents at construction time (policies are installed before the
  // monitor), one series per distinct policy in use.
  gray_misrenders_counter_ = reg->counter("faults.gray.misrenders");
  gray_drops_counter_ = reg->counter("faults.gray.drops");
  const auto agents = net_->agents();
  eviction_counters_.reserve(agents.size());
  bridged_evictions_.assign(agents.size(), 0);
  for (const auto& agent : agents) {
    eviction_counters_.push_back(reg->counter(
        "tcam.evictions." +
        std::string(agent->tcam().eviction_policy_name())));
  }
  arena_nodes_ = reg->gauge("bdd.arena_nodes");
  arena_rollbacks_ = reg->gauge("bdd.arena_rollbacks");
  unique_load_ = reg->gauge("bdd.unique_load");
  cache_hit_rate_ = reg->gauge("bdd.cache_hit_rate");
  // Executor queue-wait / task-runtime distributions (wall diagnostics).
  // The registry pointer makes every Executor::run a parallel region on
  // this registry, so an in-flight snapshot()/reset() aborts instead of
  // tearing the shard merge (metrics.h, "quiescence gate").
  runtime::ExecutorMetrics exec_metrics;
  exec_metrics.queue_wait_us = reg->histogram("runtime.queue_wait_us");
  exec_metrics.task_run_us = reg->histogram("runtime.task_run_us");
  exec_metrics.tasks = reg->counter("runtime.tasks");
  exec_metrics.registry = reg;
  executor_->set_metrics(std::move(exec_metrics));
}

void MonitorLoop::bridge_counters() {
  if (options_.metrics == nullptr) return;

  // Bus lifetime counters (cumulative -> delta-fold).
  const EventBus::Stats bus = bus_->stats();
  bus_published_.add(bus.published - bridged_bus_.published);
  bus_compactions_.add(bus.compactions - bridged_bus_.compactions);
  bus_compacted_events_.add(bus.compacted_events -
                            bridged_bus_.compacted_events);
  bus_ingested_.add(bus.ingested - bridged_bus_.ingested);
  bus_resyncs_synthesized_.add(bus.resyncs_synthesized -
                               bridged_bus_.resyncs_synthesized);
  bridged_bus_ = bus;
  bus_backlog_.set(static_cast<double>(bus_->retained()));
  bus_cursor_lag_.set(static_cast<double>(bus_->cursor() - cursor_));

  if (const MpscRing* ring = bus_->ring()) {
    const MpscRing::Stats rs = ring->stats();
    ring_published_.add(rs.published - bridged_ring_.published);
    ring_drained_.add(rs.drained - bridged_ring_.drained);
    ring_evictions_.add(rs.evictions - bridged_ring_.evictions);
    ring_full_stalls_.add(rs.full_stalls - bridged_ring_.full_stalls);
    bridged_ring_ = rs;
    ring_occupancy_.set(static_cast<double>(ring->occupancy()));
    ring_high_water_.set(static_cast<double>(ring->high_water()));
    // Per-publisher cursor lag: how far each shard's published cursor has
    // run ahead of its drained cursor (live backlog attributable to that
    // publisher thread).
    for (std::size_t p = 0; p < ring_lag_gauges_.size(); ++p) {
      ring_lag_gauges_[p].set(static_cast<double>(ring->published_cursor(p) -
                                                  ring->drained_cursor(p)));
    }
  }

  // Fault-engine lifetime counters, delta-folded like the other
  // cumulative sources. Gray counters only move in the serial control
  // phase (controller pushes); the eviction counter is relaxed-atomic so
  // reading it here is safe even while pinned publishers are evicting.
  {
    std::uint64_t misrenders = 0;
    std::uint64_t drops = 0;
    const auto agents = net_->agents();
    for (std::size_t i = 0; i < agents.size(); ++i) {
      misrenders += agents[i]->gray_misrenders();
      drops += agents[i]->gray_drops();
      if (i < eviction_counters_.size()) {
        const std::uint64_t ev = agents[i]->tcam().evictions();
        eviction_counters_[i].add(ev - bridged_evictions_[i]);
        bridged_evictions_[i] = ev;
      }
    }
    gray_misrenders_counter_.add(misrenders - bridged_gray_misrenders_);
    gray_drops_counter_.add(drops - bridged_gray_drops_);
    bridged_gray_misrenders_ = misrenders;
    bridged_gray_drops_ = drops;
  }

  if (checker_ != nullptr) {
    const IncrementalChecker::Stats s = checker_->stats();
    const auto fold = [](telemetry::Counter& counter, std::size_t now,
                         std::size_t last) {
      counter.add(static_cast<std::uint64_t>(now - last));
    };
    fold(initial_builds_, s.initial_builds, bridged_checker_.initial_builds);
    fold(events_applied_, s.events_applied, bridged_checker_.events_applied);
    fold(incremental_updates_, s.incremental_updates,
         bridged_checker_.incremental_updates);
    fold(full_rebuilds_, s.full_rebuilds, bridged_checker_.full_rebuilds);
    fold(epoch_rebuilds_, s.epoch_rebuilds, bridged_checker_.epoch_rebuilds);
    fold(threshold_trips_, s.threshold_trips,
         bridged_checker_.threshold_trips);
    fold(unsafe_rebuilds_, s.unsafe_rebuilds,
         bridged_checker_.unsafe_rebuilds);
    fold(overflow_resyncs_, s.overflow_resyncs,
         bridged_checker_.overflow_resyncs);
    fold(diff_recomputes_, s.diff_recomputes,
         bridged_checker_.diff_recomputes);
    fold(verdicts_reused_, s.verdicts_reused,
         bridged_checker_.verdicts_reused);
    bridged_checker_ = s;

    // Resident arena sizes across the per-switch managers. Node/rollback
    // totals are deterministic in incremental mode (one arena per switch,
    // driven only by the event stream).
    const BddManager::Stats arena = checker_->arena_totals();
    arena_nodes_.set(static_cast<double>(arena.nodes));
    arena_peak_nodes_.set(static_cast<double>(arena.peak_nodes));
    arena_rollbacks_.set(static_cast<double>(arena.rollbacks));
    unique_load_.set(arena.unique_load);
    cache_hit_rate_.set(arena.cache_lookups == 0
                            ? 0.0
                            : static_cast<double>(arena.cache_hits) /
                                  static_cast<double>(arena.cache_lookups));

    // Live per-switch churn: the signal a churn-tiered monitor would
    // classify switches on (see ROADMAP).
    update_churn_gauges();
  } else if (full_cache_ != nullptr) {
    const LogicalBddCache::Stats s = full_cache_->stats();
    arena_nodes_.set(static_cast<double>(s.nodes));
    unique_load_.set(s.unique_load);
    cache_hit_rate_.set(s.cache_hit_rate);
    arena_rollbacks_.set(static_cast<double>(s.rollbacks));
    resident_switches_.set(static_cast<double>(s.resident_switches));
  }

  // The health engine reads lifetime-cumulative totals — the bridged_*
  // copies were just refreshed above, so this observes the same instant
  // the registry does.
  if (options_.health != nullptr) {
    telemetry::HealthEngine::Sample hs;
    hs.events = events_total_;
    hs.events_over_budget = events_over_budget_;
    hs.batches = batches_;
    // Epoch rebuilds follow planned policy pushes; the SLO grades the
    // threshold, unsafe and overflow fallbacks only.
    hs.unplanned_rebuilds =
        bridged_checker_.full_rebuilds - bridged_checker_.epoch_rebuilds;
    hs.ring_published = bridged_ring_.published;
    hs.ring_evictions = bridged_ring_.evictions;
    hs.ring_full_stalls = bridged_ring_.full_stalls;
    options_.health->observe(hs);
  }
}

void MonitorLoop::update_churn_gauges() {
  const auto churn = checker_->churn_by_switch();
  const std::size_t k = std::min(options_.churn_top_k, churn.size());
  // Deterministic top-K: highest churn first, ties broken by switch id.
  std::vector<std::size_t> order(churn.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::partial_sort(order.begin(), order.begin() + k, order.end(),
                    [&](std::size_t a, std::size_t b) {
                      if (churn[a].second != churn[b].second) {
                        return churn[a].second > churn[b].second;
                      }
                      return churn[a].first.value() < churn[b].first.value();
                    });
  double other = 0;
  for (std::size_t i = k; i < order.size(); ++i) {
    other += static_cast<double>(churn[order[i]].second);
  }
  // Zero every registered series first so a switch that dropped out of
  // the top set reads 0 instead of its stale last value.
  for (auto& [sw, gauge] : churn_gauges_by_sw_) gauge.set(0.0);
  for (std::size_t i = 0; i < k; ++i) {
    const auto& [sw, value] = churn[order[i]];
    auto it = churn_gauges_by_sw_.find(sw.value());
    if (it == churn_gauges_by_sw_.end()) {
      it = churn_gauges_by_sw_
               .emplace(sw.value(),
                        options_.metrics->gauge(
                            "stream.churn.sw" + std::to_string(sw.value())))
               .first;
    }
    it->second.set(static_cast<double>(value));
  }
  churn_other_gauge_.set(other);
}

std::size_t MonitorLoop::ingest_ring_events() {
  if (bus_->ring() == nullptr) return 0;
  return bus_->ingest_ring();
}

std::size_t MonitorLoop::ingest_ring() {
  SerialGuard g{serial_};
  return ingest_ring_events();
}

void MonitorLoop::prime() {
  SerialGuard g{serial_};
  const std::uint64_t batch = batches_;
  const telemetry::FlightRecorder::Scope span{
      options_.flight, 0, "prime", batch, net_->clock().now().millis()};
  ingest_ring_events();
  cursor_ = bus_->cursor();
  for (const EventBus::ReaderId r : readers_) {
    bus_->advance_reader(r, cursor_);
  }
  bus_->compact(cursor_);
  if (!options_.incremental) return;
  const std::uint64_t epoch = net_->controller().compiled_epoch();
  checker_->stage({});
  executor_->run(checker_->shard_count(),
                 [&](std::size_t shard, std::size_t) {
                   checker_->process_shard(shard, epoch, batch);
                 });
  SCOUT_INFO("stream", "primed: " << checker_->switch_count()
                                  << " switches over "
                                  << checker_->shard_count() << " shards");
}

MonitorVerdict MonitorLoop::drain() {
  SerialGuard g{serial_};
  ingest_ring_events();
  const auto events = bus_->events_since(cursor_);
  MonitorVerdict verdict;
  verdict.first_seq = cursor_;
  verdict.events = events.size();
  cursor_ += events.size();
  verdict.last_seq = cursor_;

  const std::uint64_t batch = batches_;
  const std::int64_t sim_start = net_->clock().now().millis();
  const telemetry::FlightRecorder::Scope drain_span{options_.flight, 0,
                                                    "drain", batch, sim_start};

  const auto t0 = WallClock::now();
  if (options_.incremental) {
    const std::uint64_t epoch = net_->controller().compiled_epoch();
    checker_->stage(events);
    executor_->run(checker_->shard_count(),
                   [&](std::size_t shard, std::size_t) {
                     checker_->process_shard(shard, epoch, batch);
                   });
    verdict.check = checker_->compose();
  } else {
    const telemetry::FlightRecorder::Scope check_span{
        options_.flight, 0, "full_check", batch, sim_start};
    verdict.check =
        full_system_.check_all(*net_, *executor_, full_cache_.get());
  }
  const auto t1 = WallClock::now();
  verdict.drain_ms = millis_between(t0, t1);

  // Event-to-detection latency in both clocks, explicitly: wall is the
  // steady_clock publish stamp to the verdict instant; sim is the event's
  // SimTime stamp to the network clock now. The two are never mixed.
  const SimTime sim_now = net_->clock().now();
  const double budget_ms = options_.health != nullptr
                               ? options_.health->options().detect_budget_ms
                               : 0.0;
  for (const StreamEvent& ev : events) {
    const double wall_ms = millis_between(ev.wall, t1);
    wall_latency_ms_.record(0, wall_ms);
    sim_latency_ms_.record(0, static_cast<double>(sim_now - ev.time));
    if (budget_ms > 0 && wall_ms > budget_ms) ++events_over_budget_;
  }
  events_total_ += events.size();
  drain_ms_.record(0, verdict.drain_ms);
  batch_events_.record(0, static_cast<double>(events.size()));
  events_counter_.add(static_cast<std::uint64_t>(events.size()));
  batches_counter_.add(1);

  // Observability layers — all strictly after the verdict is composed, so
  // none of them can perturb it (digest bit-identity with these on vs off
  // is pinned by tests/test_incidents.cpp).
  const bool failing = !verdict.check.inconsistent.empty();
  if (options_.incidents != nullptr) {
    observe_incident(verdict, events, sim_now);
  }
  if (options_.flight != nullptr) {
    record_flight(verdict, events, sim_now, failing);
  }
  last_verdict_failing_ = failing;

  ++batches_;
  // Workers have joined: every shard's reader may pass the batch. Without
  // this advance the readers pin compact() at the pre-batch cursor.
  for (const EventBus::ReaderId r : readers_) {
    bus_->advance_reader(r, cursor_);
  }
  bus_->compact(cursor_);  // `events` dies here
  bridge_counters();

  if (options_.snapshot_every_batches > 0 && options_.metrics != nullptr &&
      batches_ % options_.snapshot_every_batches == 0) {
    periodic_snapshots_.push_back(options_.metrics->snapshot());
    if (options_.flight != nullptr) {
      options_.flight->instant(0, "metrics_snapshot", batch,
                               sim_now.millis());
    }
  }
  return verdict;
}

void MonitorLoop::observe_incident(const MonitorVerdict& verdict,
                                   std::span<const StreamEvent> events,
                                   SimTime sim_now) {
  IncidentBuilder* incidents = options_.incidents;
  incidents->observe_events(events);
  const bool opened =
      incidents->observe_verdict(verdict.check, batches_, sim_now);
  if (opened) {
    incidents->attach_suspects(localize_impl(verdict.check));
    if (options_.flight != nullptr) {
      options_.flight->instant(0, "incident_open", batches_,
                               sim_now.millis());
    }
  }
}

void MonitorLoop::record_flight(const MonitorVerdict& verdict,
                                std::span<const StreamEvent> events,
                                SimTime sim_now, bool failing) {
  telemetry::FlightRecorder* flight = options_.flight;
  for (const StreamEvent& ev : events) {
    if (ev.cause.is_null()) continue;
    telemetry::FlightRecorder::Entry e;
    e.kind = telemetry::FlightRecorder::EntryKind::kEvent;
    telemetry::FlightRecorder::set_name(
        e, std::string(to_string(ev.type)).c_str());
    e.sim_ms = ev.time.millis();
    e.batch = batches_;
    e.seq = ev.seq;
    e.sw = static_cast<std::int64_t>(ev.sw.value());
    e.cause = ev.cause.raw();
    flight->record(0, e);
  }
  telemetry::FlightRecorder::Entry v;
  v.kind = telemetry::FlightRecorder::EntryKind::kVerdict;
  telemetry::FlightRecorder::set_name(v, failing ? "verdict_fail"
                                                 : "verdict_clean");
  v.dur_ms = verdict.drain_ms;
  v.sim_ms = sim_now.millis();
  v.batch = batches_;
  v.seq = verdict.last_seq;
  v.value = static_cast<double>(verdict.check.inconsistent.size());
  flight->record(0, v);
  if (failing && !last_verdict_failing_ &&
      !options_.flight_dump_path.empty()) {
    // First failing verdict after a clean run: dump the window leading up
    // to it while the context is still in the rings.
    flight->dump_to_file(options_.flight_dump_path.c_str());
  }
}

LocalizationResult MonitorLoop::localize(const FabricCheck& check) const {
  SerialGuard g{serial_};
  return localize_impl(check);
}

LocalizationResult MonitorLoop::localize_impl(const FabricCheck& check) const {
  const telemetry::FlightRecorder::Scope span{
      options_.flight, 0, "localize", batches_, net_->clock().now().millis()};
  const std::uint64_t epoch = net_->controller().compiled_epoch();
  if (!risk_model_.has_value() || risk_model_epoch_ != epoch) {
    risk_model_ = RiskModel::build_controller_model(
        PolicyIndex{net_->controller().policy()});
    risk_model_epoch_ = epoch;
  } else {
    risk_model_->clear_failures();
  }
  risk_model_->augment(check.missing_rules);
  const ScoutLocalizer localizer{options_.localizer};
  return localizer.localize(*risk_model_, net_->controller().change_log(),
                            net_->clock().now());
}

std::size_t MonitorLoop::remediate(const FabricCheck& check) {
  SerialGuard g{serial_};
  const telemetry::FlightRecorder::Scope span{
      options_.flight, 0, "remediate", batches_,
      net_->clock().now().millis()};
  ScoutReport report;
  report.switches_checked = check.switches_checked;
  report.switches_inconsistent = check.inconsistent.size();
  report.missing_rules = check.missing_rules;
  report.extra_rule_count = check.extra_rule_count;
  const std::size_t still_missing =
      full_system_.remediate(*net_, report, *executor_);
  if (options_.metrics != nullptr) {
    options_.metrics->add_counter("stream.remediations", 1);
    options_.metrics->add_counter(
        "stream.rules_reinstalled",
        static_cast<std::uint64_t>(check.missing_rules.size()));
    options_.metrics->add_counter(
        "stream.rules_still_missing",
        static_cast<std::uint64_t>(still_missing));
  }
  if (still_missing != 0) {
    SCOUT_WARN("stream", "remediation left " << still_missing
                                             << " rules missing (physical "
                                                "fault persists)");
  }
  return still_missing;
}

IncrementalChecker::Stats MonitorLoop::checker_stats() const {
  return checker_ != nullptr ? checker_->stats()
                             : IncrementalChecker::Stats{};
}

telemetry::MetricsSnapshot MonitorLoop::snapshot_metrics() {
  SerialGuard g{serial_};
  if (options_.metrics == nullptr) return telemetry::MetricsSnapshot{};
  bridge_counters();
  return options_.metrics->snapshot();
}

}  // namespace scout::stream
