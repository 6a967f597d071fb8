#include "src/stream/monitor_loop.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <string>
#include <string_view>

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
  bus_->compact(cursor_);
  if (!options_.incremental) return;
  checker_->stage({});
  executor_->run(checker_->shard_count(),
                 [&](std::size_t shard, std::size_t) {
                   checker_->process_shard(shard, batch);
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
    checker_->stage(events);
    executor_->run(checker_->shard_count(),
                   [&](std::size_t shard, std::size_t) {
                     checker_->process_shard(shard, batch);
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
  for (const StreamEvent& ev : events) {
    const double wall_ms = millis_between(ev.wall, t1);
    wall_latency_ms_.record(0, wall_ms);
    sim_latency_ms_.record(0, static_cast<double>(sim_now - ev.time));
    if (wall_ms > telemetry::kDetectBudgetMs) ++events_over_budget_;
  }
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
  bus_->compact(cursor_);  // `events` dies here
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
  telemetry::MetricsSnapshot snap = options_.metrics->snapshot();
  const auto counter = [&snap](std::string name, std::uint64_t value) {
    snap.counters.push_back({std::move(name), value});
  };
  const auto gauge = [&snap](std::string name, double value) {
    snap.gauges.push_back({std::move(name), value});
  };

  const EventBus::Stats bus = bus_->stats();
  counter("stream.bus_published", bus.published);
  counter("stream.bus_compactions", bus.compactions);
  counter("stream.bus_compacted_events", bus.compacted_events);
  gauge("stream.bus_backlog", static_cast<double>(bus_->retained()));
  const MpscRing* ring = bus_->ring();
  const MpscRing::Stats rs =
      ring != nullptr ? ring->stats() : MpscRing::Stats{};
  if (ring != nullptr) {
    counter("stream.bus_ingested", bus.ingested);
    counter("stream.bus_resyncs_synthesized", bus.resyncs_synthesized);
    counter("stream.ring_published", rs.published);
    counter("stream.ring_drained", rs.drained);
    counter("stream.ring_evictions", rs.evictions);
    counter("stream.ring_full_stalls", rs.full_stalls);
    gauge("stream.ring_occupancy", static_cast<double>(ring->occupancy()));
    gauge("stream.ring_high_water", static_cast<double>(ring->high_water()));
    // Per-publisher backlog: how far each shard's published cursor has run
    // ahead of its drained cursor.
    for (std::size_t p = 0; p < ring->publishers(); ++p) {
      gauge("stream.ring.lag.pub" + std::to_string(p),
            static_cast<double>(ring->published_cursor(p) -
                                ring->drained_cursor(p)));
    }
  }

  // Fault engines: gray counts summed over the agents, TCAM evictions
  // summed per eviction policy. The eviction count is relaxed-atomic, so
  // this read is safe even next to a publisher that is still evicting.
  std::uint64_t misrenders = 0;
  std::uint64_t drops = 0;
  std::map<std::string_view, std::uint64_t> evictions_by_policy;
  for (const auto& agent : net_->agents()) {
    misrenders += agent->gray_misrenders();
    drops += agent->gray_drops();
    evictions_by_policy[agent->tcam().eviction_policy_name()] +=
        agent->tcam().evictions();
  }
  counter("faults.gray.misrenders", misrenders);
  counter("faults.gray.drops", drops);
  for (const auto& [policy, n] : evictions_by_policy) {
    counter("tcam.evictions." + std::string(policy), n);
  }

  const IncrementalChecker::Stats s = checker_stats();
  if (checker_ != nullptr) {
    counter("stream.initial_builds", s.initial_builds);
    counter("stream.events_applied", s.events_applied);
    counter("stream.incremental_updates", s.incremental_updates);
    counter("stream.resync_encodes", s.resync_encodes);
    counter("stream.full_rebuilds", s.full_rebuilds);
    counter("stream.epoch_rebuilds", s.epoch_rebuilds);
    counter("stream.threshold_trips", s.threshold_trips);
    counter("stream.unsafe_rebuilds", s.unsafe_rebuilds);
    counter("stream.overflow_resyncs", s.overflow_resyncs);
    counter("stream.diff_recomputes", s.diff_recomputes);
    counter("stream.verdicts_reused", s.verdicts_reused);
    // Resident arena sizes across the per-switch managers. Node/rollback
    // totals are deterministic in incremental mode (one arena per switch,
    // driven only by the event stream).
    const BddManager::Stats arena = checker_->arena_totals();
    gauge("bdd.arena_nodes", static_cast<double>(arena.nodes));
    gauge("bdd.arena_peak_nodes", static_cast<double>(arena.peak_nodes));
    gauge("bdd.arena_rollbacks", static_cast<double>(arena.rollbacks));
    gauge("bdd.unique_load", arena.unique_load);
    gauge("bdd.cache_hit_rate",
          arena.cache_lookups == 0
              ? 0.0
              : static_cast<double>(arena.cache_hits) /
                    static_cast<double>(arena.cache_lookups));
    // Live per-switch churn, capped at the kChurnTopK busiest switches
    // (ties to the lower switch id); the rest fold into one series, so the
    // series count stays bounded on any fabric.
    auto churn = checker_->churn_by_switch();
    const std::size_t k = std::min(kChurnTopK, churn.size());
    std::partial_sort(churn.begin(), churn.begin() + k, churn.end(),
                      [](const auto& a, const auto& b) {
                        if (a.second != b.second) return a.second > b.second;
                        return a.first.value() < b.first.value();
                      });
    double other = 0;
    for (std::size_t i = 0; i < churn.size(); ++i) {
      const double value = static_cast<double>(churn[i].second);
      if (i < k) {
        gauge("stream.churn.sw" + std::to_string(churn[i].first.value()),
              value);
      } else {
        other += value;
      }
    }
    gauge("stream.churn.other", other);
  } else {
    const LogicalBddCache::Stats cache = full_cache_->stats();
    gauge("bdd.arena_nodes", static_cast<double>(cache.nodes));
    gauge("bdd.arena_rollbacks", static_cast<double>(cache.rollbacks));
    gauge("bdd.unique_load", cache.unique_load);
    gauge("bdd.cache_hit_rate", cache.cache_hit_rate);
    gauge("bdd.resident_switches",
          static_cast<double>(cache.resident_switches));
  }

  if (const IncidentBuilder* incidents = options_.incidents) {
    const IncidentBuilder::Totals& t = incidents->totals();
    const bool open = incidents->incident_open();
    counter("incident.opened", t.incidents + (open ? 1 : 0));
    counter("incident.closed", t.incidents);
    counter("incident.unattributed", t.unattributed_incidents);
    counter("incident.window.dropped", t.window_dropped);
    gauge("incident.open", open ? 1.0 : 0.0);
    gauge("incident.precision", t.precision());
    gauge("incident.recall", t.recall());
    gauge("incident.detect_wall_ms", incidents->last_detect_wall_ms());
  }

  // The grades of counts read above, at the same instant. Epoch rebuilds
  // follow planned policy pushes; the rebuild SLO grades the threshold,
  // unsafe and overflow fallbacks only.
  telemetry::append_health(
      {.events = snap.counter("stream.events_drained"),
       .events_over_budget = events_over_budget_,
       .batches = batches_,
       .unplanned_rebuilds = s.full_rebuilds - s.epoch_rebuilds,
       .ring_published = rs.published,
       .ring_evictions = rs.evictions,
       .ring_full_stalls = rs.full_stalls},
      snap);

  const auto by_name = [](const auto& a, const auto& b) {
    return a.name < b.name;
  };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  return snap;
}

}  // namespace scout::stream
