#include "src/telemetry/health.h"

#include <algorithm>

namespace scout::telemetry {
namespace {

// Fraction of events over the detection budget.
constexpr double kLatencyBurnWarn = 0.05;
constexpr double kLatencyBurnCrit = 0.25;
// Unplanned full T rebuilds per batch.
constexpr double kRebuildRateWarn = 0.5;
constexpr double kRebuildRateCrit = 2.0;
// Ring evictions per published event (each costs a shadow resync).
constexpr double kRingEvictionWarn = 1e-4;
constexpr double kRingEvictionCrit = 1e-2;
// Ring full-stalls per published event.
constexpr double kRingStallWarn = 1e-2;
constexpr double kRingStallCrit = 0.25;

double rate(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

// 0 = ok, 1 = warn, 2 = critical.
double grade(double value, double warn, double crit) {
  if (value >= crit) return 2.0;
  if (value >= warn) return 1.0;
  return 0.0;
}

}  // namespace

void append_health(const HealthSample& s, MetricsSnapshot& snap) {
  const double burn = rate(s.events_over_budget, s.events);
  const double rebuild = rate(s.unplanned_rebuilds, s.batches);
  const double eviction = rate(s.ring_evictions, s.ring_published);
  const double stall = rate(s.ring_full_stalls, s.ring_published);
  const double latency_status = grade(burn, kLatencyBurnWarn, kLatencyBurnCrit);
  const double rebuild_status =
      grade(rebuild, kRebuildRateWarn, kRebuildRateCrit);
  const double ring_status =
      std::max(grade(eviction, kRingEvictionWarn, kRingEvictionCrit),
               grade(stall, kRingStallWarn, kRingStallCrit));
  auto& g = snap.gauges;
  g.push_back({"health.status",
               std::max({latency_status, rebuild_status, ring_status})});
  g.push_back({"health.latency.burn", burn});
  g.push_back({"health.latency.status", latency_status});
  g.push_back({"health.rebuild.rate", rebuild});
  g.push_back({"health.rebuild.status", rebuild_status});
  g.push_back({"health.ring.eviction_rate", eviction});
  g.push_back({"health.ring.stall_rate", stall});
  g.push_back({"health.ring.status", ring_status});
}

}  // namespace scout::telemetry
