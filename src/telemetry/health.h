// Health/SLO engine: turns the monitor's raw cumulative counters into a
// small set of graded health signals a week-long run can be watched (and
// alerted) on. Three service-level objectives, each with warn/critical
// thresholds:
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
// observe() takes lifetime-cumulative totals (callers pass their existing
// counters; the engine does its own rate math), recomputes each burn
// rate, grades it Ok/Warn/Critical against the thresholds, and publishes
// `health.*` gauges through the shared MetricsRegistry — so `scoutctl
// stats` and the Prometheus exporter surface fleet health with zero new
// plumbing. Driver-thread only, like all gauge writers.
#pragma once

#include <cstdint>

#include "src/telemetry/metrics.h"

namespace scout {
class JsonWriter;
}  // namespace scout

namespace scout::telemetry {

class HealthEngine {
 public:
  enum class Status : int { kOk = 0, kWarn = 1, kCritical = 2 };

  struct Options {
    // Per-event detection budget (event publish → verdict compose, wall).
    double detect_budget_ms = 250.0;
    // Fraction of events over budget.
    double latency_burn_warn = 0.05;
    double latency_burn_crit = 0.25;
    // Unplanned full T rebuilds per batch.
    double rebuild_rate_warn = 0.5;
    double rebuild_rate_crit = 2.0;
    // Ring evictions per published event (each costs a shadow resync).
    double ring_eviction_warn = 1e-4;
    double ring_eviction_crit = 1e-2;
    // Ring full-stalls per published event.
    double ring_stall_warn = 1e-2;
    double ring_stall_crit = 0.25;
  };

  // Lifetime-cumulative totals; the engine computes rates itself so
  // callers just forward the counters they already keep.
  struct Sample {
    std::uint64_t events = 0;
    std::uint64_t events_over_budget = 0;
    std::uint64_t batches = 0;
    std::uint64_t unplanned_rebuilds = 0;  // full rebuilds minus epoch
    std::uint64_t ring_published = 0;
    std::uint64_t ring_evictions = 0;
    std::uint64_t ring_full_stalls = 0;
  };

  HealthEngine() : HealthEngine(Options{}, nullptr) {}
  explicit HealthEngine(Options options, MetricsRegistry* registry = nullptr);

  // Re-registers the health.* gauges on `registry` (nullptr detaches).
  void attach(MetricsRegistry* registry);

  // Driver-thread only: recompute burn rates and grades, update gauges.
  void observe(const Sample& cumulative);

  [[nodiscard]] const Options& options() const noexcept { return options_; }
  [[nodiscard]] Status overall() const noexcept { return overall_; }
  [[nodiscard]] Status latency_status() const noexcept { return latency_; }
  [[nodiscard]] Status rebuild_status() const noexcept { return rebuild_; }
  [[nodiscard]] Status ring_status() const noexcept { return ring_; }
  [[nodiscard]] double latency_burn() const noexcept { return latency_burn_; }
  [[nodiscard]] double rebuild_rate() const noexcept { return rebuild_rate_; }
  [[nodiscard]] double ring_eviction_rate() const noexcept {
    return eviction_rate_;
  }
  [[nodiscard]] double ring_stall_rate() const noexcept { return stall_rate_; }

  void write_json(JsonWriter& w) const;

 private:
  [[nodiscard]] Status grade(double rate, double warn, double crit) const;
  void publish();

  Options options_;
  Gauge status_gauge_, latency_burn_gauge_, latency_status_gauge_,
      rebuild_rate_gauge_, rebuild_status_gauge_, eviction_rate_gauge_,
      stall_rate_gauge_, ring_status_gauge_;
  double latency_burn_ = 0, rebuild_rate_ = 0, eviction_rate_ = 0,
         stall_rate_ = 0;
  Status latency_ = Status::kOk;
  Status rebuild_ = Status::kOk;
  Status ring_ = Status::kOk;
  Status overall_ = Status::kOk;
};

[[nodiscard]] const char* to_string(HealthEngine::Status s) noexcept;

}  // namespace scout::telemetry
