#include "src/telemetry/health.h"

#include "src/common/json_writer.h"

namespace scout::telemetry {

const char* to_string(HealthEngine::Status s) noexcept {
  switch (s) {
    case HealthEngine::Status::kOk: return "ok";
    case HealthEngine::Status::kWarn: return "warn";
    case HealthEngine::Status::kCritical: return "critical";
  }
  return "unknown";
}

HealthEngine::HealthEngine(Options options, MetricsRegistry* registry)
    : options_(options) {
  attach(registry);
}

void HealthEngine::attach(MetricsRegistry* registry) {
  if (registry == nullptr) {
    status_gauge_ = Gauge{};
    latency_burn_gauge_ = Gauge{};
    latency_status_gauge_ = Gauge{};
    rebuild_rate_gauge_ = Gauge{};
    rebuild_status_gauge_ = Gauge{};
    eviction_rate_gauge_ = Gauge{};
    stall_rate_gauge_ = Gauge{};
    ring_status_gauge_ = Gauge{};
    return;
  }
  status_gauge_ = registry->gauge("health.status");
  latency_burn_gauge_ = registry->gauge("health.latency.burn");
  latency_status_gauge_ = registry->gauge("health.latency.status");
  rebuild_rate_gauge_ = registry->gauge("health.rebuild.rate");
  rebuild_status_gauge_ = registry->gauge("health.rebuild.status");
  eviction_rate_gauge_ = registry->gauge("health.ring.eviction_rate");
  stall_rate_gauge_ = registry->gauge("health.ring.stall_rate");
  ring_status_gauge_ = registry->gauge("health.ring.status");
  publish();
}

HealthEngine::Status HealthEngine::grade(double rate, double warn,
                                         double crit) const {
  if (rate >= crit) return Status::kCritical;
  if (rate >= warn) return Status::kWarn;
  return Status::kOk;
}

void HealthEngine::observe(const Sample& s) {
  const auto rate = [](std::uint64_t num, std::uint64_t den) {
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
  };
  latency_burn_ = rate(s.events_over_budget, s.events);
  rebuild_rate_ = rate(s.unplanned_rebuilds, s.batches);
  eviction_rate_ = rate(s.ring_evictions, s.ring_published);
  stall_rate_ = rate(s.ring_full_stalls, s.ring_published);

  latency_ = grade(latency_burn_, options_.latency_burn_warn,
                   options_.latency_burn_crit);
  rebuild_ = grade(rebuild_rate_, options_.rebuild_rate_warn,
                   options_.rebuild_rate_crit);
  const Status evict = grade(eviction_rate_, options_.ring_eviction_warn,
                             options_.ring_eviction_crit);
  const Status stall = grade(stall_rate_, options_.ring_stall_warn,
                             options_.ring_stall_crit);
  ring_ = evict > stall ? evict : stall;
  overall_ = latency_;
  if (rebuild_ > overall_) overall_ = rebuild_;
  if (ring_ > overall_) overall_ = ring_;
  publish();
}

void HealthEngine::publish() {
  status_gauge_.set(static_cast<double>(static_cast<int>(overall_)));
  latency_burn_gauge_.set(latency_burn_);
  latency_status_gauge_.set(static_cast<double>(static_cast<int>(latency_)));
  rebuild_rate_gauge_.set(rebuild_rate_);
  rebuild_status_gauge_.set(static_cast<double>(static_cast<int>(rebuild_)));
  eviction_rate_gauge_.set(eviction_rate_);
  stall_rate_gauge_.set(stall_rate_);
  ring_status_gauge_.set(static_cast<double>(static_cast<int>(ring_)));
}

void HealthEngine::write_json(JsonWriter& w) const {
  w.begin_object();
  w.field("status", to_string(overall_));
  w.key("latency")
      .begin_object()
      .field("status", to_string(latency_))
      .field("burn", latency_burn_)
      .field("budget_ms", options_.detect_budget_ms)
      .end_object();
  w.key("rebuild")
      .begin_object()
      .field("status", to_string(rebuild_))
      .field("rate_per_batch", rebuild_rate_)
      .end_object();
  w.key("ring")
      .begin_object()
      .field("status", to_string(ring_))
      .field("eviction_rate", eviction_rate_)
      .field("stall_rate", stall_rate_)
      .end_object();
  w.end_object();
}

}  // namespace scout::telemetry
