// Health/SLO grades: turn the monitor's lifetime counts into a small set of
// graded health signals a week-long run can be watched (and alerted) on.
// Three service-level objectives, each with warn/critical thresholds:
//
//  * detection latency — fraction of events whose event→verdict wall
//    latency blew the per-event budget (error-budget burn, not a mean:
//    a p50-friendly tail regression still burns budget);
//  * full-rebuild rate — unplanned post-prime T re-encodes per batch (the
//    incremental checker falling back to O(TCAM) work on a threshold trip,
//    an out-of-shape delta or a ring-overflow resync; the epoch re-encodes
//    a policy push plans for do not count);
//  * ring pressure — MPSC-ring evictions and full-stalls per published
//    event (backpressure degradation: evictions cost shadow resyncs,
//    stalls cost publisher latency).
//
// Nothing is stored between snapshots: MonitorLoop::snapshot_metrics()
// reads the counts from their owners at the snapshot instant and
// append_health() grades them into `health.*` gauges on that snapshot, so
// every monitor snapshot carries the grades.
#pragma once

#include <cstdint>

#include "src/telemetry/metrics.h"

namespace scout::telemetry {

// Per-event detection budget (event publish → verdict compose, wall).
inline constexpr double kDetectBudgetMs = 250.0;

// Lifetime-cumulative counts; append_health() computes the rates.
struct HealthSample {
  std::uint64_t events = 0;
  std::uint64_t events_over_budget = 0;  // wall latency > kDetectBudgetMs
  std::uint64_t batches = 0;
  std::uint64_t unplanned_rebuilds = 0;  // full rebuilds minus epoch
  std::uint64_t ring_published = 0;
  std::uint64_t ring_evictions = 0;
  std::uint64_t ring_full_stalls = 0;
};

// Appends the eight health.* gauges to snap.gauges, unsorted:
// health.latency.burn, health.rebuild.rate, health.ring.eviction_rate and
// health.ring.stall_rate (zero denominators rate 0), and the statuses
// health.latency.status, health.rebuild.status, health.ring.status (the
// worse of eviction and stall) and health.status (the worst of the three),
// each 0=ok 1=warn 2=critical. Thresholds are inclusive.
void append_health(const HealthSample& s, MetricsSnapshot& snap);

}  // namespace scout::telemetry
