// MonitorLoop: drains event batches off the bus, fans the per-switch
// incremental work over the runtime executor with stable switch affinity,
// and emits fabric verdicts with event-to-detection latency stamps.
//
// Two modes, one verdict type:
//  * incremental (default) — stage the batch's TCAM deltas onto the
//    per-switch shards, process each shard on one worker, compose the
//    fabric verdict from the per-switch cached results;
//  * full recheck — the PR 4 baseline: every drain runs the sharded
//    ScoutSystem::check_all over a resident-L LogicalBddCache.
// Verdict streams are bit-identical between the modes (and across worker
// counts); bench/stream_latency.cpp enforces that while measuring the
// throughput gap.
//
// Concurrent publish: when the bus has an MpscRing attached, prime() and
// drain() first ingest_ring() — folding everything publisher threads
// appended since the last drain into the serial log (and synthesizing
// shadow-resync events for any overflow-evicted switches). The monitor is
// the bus's one reader: workers only read the spans drain() stages for
// them before the join, so each drain compacts the bus to its cursor.
//
// Telemetry: when Options carries a MetricsRegistry the loop records
// event-to-detection latency in *both* clocks — wall (publish steady_clock
// stamp -> verdict wall time) and sim (event SimTime -> network clock at
// the verdict) — plus drain/batch histograms. The lifetime counts the bus,
// the ring, the checker, the arenas, the agents and the incident builder
// keep themselves are not copied into the registry: snapshot_metrics()
// reads each owner once and merges its "stream." / "bdd." / "faults." /
// "tcam." / "incident." series into the registry's snapshot, then grades
// those counts into the "health." gauges (telemetry/health.h). A registry
// attached to a monitor is therefore read through
// MonitorLoop::snapshot_metrics(), not MetricsRegistry::snapshot().
// A FlightRecorder is the span store: lane 0 (the driver) gets the prime,
// drain, full_check, localize and remediate spans, the incident_open
// instants, and each drain's event and verdict entries; lane s+1 gets
// checker shard s's shard spans and full_rebuild.<reason> markers. Both
// pointers are optional; a null registry/recorder makes every telemetry
// call a no-op.
//
// Confirmed suspects hand off to the existing localization pipeline via
// localize(): controller risk model, augmented with the verdict's missing
// rules, through ScoutLocalizer (change-log stage 2 included). The model
// is a function of the compiled policy alone, so it is built once per
// compiled epoch and each call only swaps its failure marks.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>

#include "src/checker/logical_bdd_cache.h"
#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/runtime/campaign.h"
#include "src/scout/scout_system.h"
#include "src/stream/event_bus.h"
#include "src/stream/incremental_checker.h"
#include "src/telemetry/metrics.h"

namespace scout::telemetry {
class FlightRecorder;
}  // namespace scout::telemetry

namespace scout::stream {

class IncidentBuilder;

struct MonitorVerdict {
  std::uint64_t first_seq = 0;  // cursor before the drain
  std::uint64_t last_seq = 0;   // cursor after (one past the last event)
  std::size_t events = 0;
  FabricCheck check;            // whole-fabric verdict after the batch
  double drain_ms = 0.0;        // wall time of this drain (diagnostics)
};

class MonitorLoop {
 public:
  struct Options {
    bool incremental = true;
    IncrementalChecker::Options checker{};
    // Localizer knobs for localize() (stage-2 recency window etc.).
    ScoutLocalizer::Options localizer{};

    // Metrics registry, optional; it needs at least executor.workers()
    // shards.
    telemetry::MetricsRegistry* metrics = nullptr;

    // Incident provenance (observe-only, incident.h): each drain feeds
    // the builder its events and verdict; a clean→failing transition
    // additionally runs localize() and attaches the hypothesis as the
    // incident's suspects. Verdicts are composed before the builder runs,
    // so attaching it cannot perturb a digest.
    IncidentBuilder* incidents = nullptr;
    // Flight recorder, optional: the spans and markers above, plus each
    // drain's verdict summary and one entry per cause-bearing event. It
    // needs executor.workers() + 1 lanes (checked at construction).
    telemetry::FlightRecorder* flight = nullptr;
    // When non-empty and a flight recorder is attached, a clean→failing
    // verdict transition dumps the recorder here (first-failure context).
    std::string flight_dump_path{};
  };

  // Cardinality cap on the per-switch churn gauges: the K busiest switches
  // get their own "stream.churn.sw<N>" series; the rest fold into
  // "stream.churn.other".
  static constexpr std::size_t kChurnTopK = 32;

  MonitorLoop(SimNetwork& net, EventBus& bus, runtime::Executor& executor);
  MonitorLoop(SimNetwork& net, EventBus& bus, runtime::Executor& executor,
              Options options);
  ~MonitorLoop();
  MonitorLoop(const MonitorLoop&) = delete;
  MonitorLoop& operator=(const MonitorLoop&) = delete;

  // Bootstrap: skip events published so far (deployment noise) and, in
  // incremental mode, collect every TCAM once and build the resident
  // L/T BDDs. The only TCAM collection the monitor ever performs.
  void prime();

  // Drain everything published since the cursor and return the fabric
  // verdict after the batch. Event-to-detection latencies land in the
  // "stream.wall_latency_ms" / "stream.sim_latency_ms" histograms.
  [[nodiscard]] MonitorVerdict drain();

  // Hand the verdict's confirmed suspects to SCOUT localization over the
  // controller risk model (cached per compiled epoch).
  [[nodiscard]] LocalizationResult localize(const FabricCheck& check) const;

  // Stopgap remediation of a verdict: reinstall the missing rules through
  // ScoutSystem::remediate (sharded re-check included). Returns the number
  // of rules still missing afterwards.
  [[nodiscard]] std::size_t remediate(const FabricCheck& check);

  // Move everything published concurrently (via the bus's attached
  // MpscRing, if any) into the serial log. prime() and drain() call this
  // first, so callers rarely need it directly; it is public for drivers
  // that want to observe the backlog between drains.
  std::size_t ingest_ring();

  [[nodiscard]] std::size_t batches() const noexcept {
    SerialGuard g{serial_};
    return batches_;
  }
  [[nodiscard]] IncrementalChecker::Stats checker_stats() const;

  // The registry's snapshot with the owners' series (bus, ring, checker,
  // arenas, churn, gray faults, TCAM evictions, incidents) read at this
  // instant, plus the health.* grades of those counts, merged in name
  // order; empty when no registry is attached. Call it between drains,
  // like MetricsRegistry::snapshot().
  [[nodiscard]] telemetry::MetricsSnapshot snapshot_metrics();

 private:
  std::size_t ingest_ring_events() SCOUT_REQUIRES(serial_);
  void register_metrics() SCOUT_REQUIRES(serial_);
  [[nodiscard]] LocalizationResult localize_impl(const FabricCheck& check)
      const SCOUT_REQUIRES(serial_);
  void observe_incident(const MonitorVerdict& verdict,
                        std::span<const StreamEvent> events, SimTime sim_now)
      SCOUT_REQUIRES(serial_);
  void record_flight(const MonitorVerdict& verdict,
                     std::span<const StreamEvent> events, SimTime sim_now,
                     bool failing) SCOUT_REQUIRES(serial_);

  // Driver-phase capability: the monitor's cursor/batch/latency state is
  // mutated only between executor runs, by the one thread driving the
  // loop. Workers touch the checker's shards, never these members. Debug
  // builds abort if a second thread enters (common/mutex.h).
  mutable SerialCapability serial_{"MonitorLoop"};

  SimNetwork* net_;
  EventBus* bus_;
  runtime::Executor* executor_;
  Options options_;
  EventBus::Cursor cursor_ SCOUT_GUARDED_BY(serial_) = 0;
  std::size_t batches_ SCOUT_GUARDED_BY(serial_) = 0;

  std::unique_ptr<IncrementalChecker> checker_;  // incremental mode
  ScoutSystem full_system_;                      // full-recheck mode
  std::unique_ptr<LogicalBddCache> full_cache_;

  // Registry handles (no-ops when options_.metrics == nullptr).
  telemetry::Counter batches_counter_;
  telemetry::Counter events_counter_;
  telemetry::Histogram wall_latency_ms_;
  telemetry::Histogram sim_latency_ms_;
  telemetry::Histogram drain_ms_;
  telemetry::Histogram batch_events_;
  // Events whose event→verdict wall latency exceeded the detection budget
  // (telemetry::kDetectBudgetMs); the latency grade's numerator.
  std::uint64_t events_over_budget_ SCOUT_GUARDED_BY(serial_) = 0;
  // Previous verdict state, for clean→failing transition detection
  // (incident opens, flight-recorder dump).
  bool last_verdict_failing_ SCOUT_GUARDED_BY(serial_) = false;

  // localize() cache: the controller risk model of compiled epoch
  // risk_model_epoch_, its failure marks from the latest call.
  mutable std::optional<RiskModel> risk_model_ SCOUT_GUARDED_BY(serial_);
  mutable std::uint64_t risk_model_epoch_ SCOUT_GUARDED_BY(serial_) = 0;
};

}  // namespace scout::stream
