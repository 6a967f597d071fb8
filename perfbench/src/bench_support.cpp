#include "perfbench/src/bench_support.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>

namespace perfbench {

Percentile exact_percentile(std::vector<double> samples, double q) {
  Percentile p;
  p.samples = samples.size();
  if (samples.empty()) return p;
  q = std::clamp(q, 0.0, 1.0);
  const auto n = samples.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  const auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  p.value = *nth;
  p.beyond = n - rank;
  return p;
}

void MetricSet::set(std::string_view name, double value,
                    std::string_view unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = std::string(unit);
      return;
    }
  }
  metrics_.push_back(Metric{std::string(name), value, std::string(unit)});
}

const Metric* MetricSet::find(std::string_view name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void pin_current_thread(std::size_t cpu) {
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<int>(cpu % static_cast<std::size_t>(
                                 online > 0 ? online : 1)),
          &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

double reference_loop_ms() {
  // Volatile in and out, so the loop can be neither folded nor dropped.
  volatile std::uint64_t seed = 0x243F6A8885A308D3ULL;
  volatile std::uint64_t sink = 0;
  const auto start = Clock::now();
  std::uint64_t x = seed;
  std::uint64_t acc = 0;
  for (std::uint32_t i = 0; i < 100'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += x >> 60;
  }
  sink = acc;
  (void)sink;
  return ms_between(start, Clock::now());
}

void report_percentile(WorkloadResult& result, MetricSet& set,
                       std::string_view name, const std::vector<double>& xs,
                       double q) {
  const Percentile p = exact_percentile(xs, q);
  set.set(name, p.value, "ms");
  result.note(std::string(name) + ".samples",
              std::to_string(p.samples) + " (" + std::to_string(p.beyond) +
                  " beyond)");
}

bool is_known_workload(std::string_view name) {
  return name == "tcam-churn" || name == "policy-churn";
}

const std::vector<MetricDecl>& end_to_end_metrics() {
  static const std::vector<MetricDecl> kDecls{
      {"ops_per_s", "1/s"},       {"detect_p50_ms", "ms"},
      {"detect_p99_ms", "ms"},    {"localize_p50_ms", "ms"},
      {"localize_p99_ms", "ms"},  {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return kDecls;
}

const std::vector<MetricDecl>& per_layer_metrics() {
  static const std::vector<MetricDecl> kDecls = [] {
    std::vector<MetricDecl> d{
        // Set-up (median over the run's set-up repetitions).
        {"workload.generate_ms", "ms"},
        {"scout.deploy_ms", "ms"},
        {"stream.prime_ms", "ms"},
        {"policy.index_ms", "ms"},
        // Fabric side of the stream loop (per-call means, counts).
        {"agent.fault_ms", "ms"},
        {"agent.fault_ops", "count"},
        {"controller.resync_ms", "ms"},
        {"controller.resyncs", "count"},
        {"controller.instructions", "count"},
        {"controller.push_ms", "ms"},
        {"controller.pushes", "count"},
        // Monitor.
        {"stream.bus_wait_p50_ms", "ms"},
        {"stream.events_per_drain_p50", "count"},
        {"stream.events_per_drain_max", "count"},
        {"stream.drain_p50_ms", "ms"},
        {"stream.drain_p99_ms", "ms"},
        {"stream.drain_busy_s", "s"},
        {"stream.switches_touched_per_drain", "count"},
        {"stream.diff_recomputes", "count"},
        {"stream.ms_per_diff", "ms"},
        {"stream.verdicts_reused", "count"},
        {"stream.verdict_reuse_ratio", "ratio"},
        {"stream.incremental_updates", "count"},
        {"stream.unsafe_rebuilds", "count"},
        {"stream.threshold_trips", "count"},
        {"stream.epoch_rebuilds", "count"},
        {"stream.ms_per_epoch_rebuild", "ms"},
        {"stream.full_rebuild_share", "ratio"},
        // BDD engine (registry snapshot at the end of the run).
        {"bdd.arena_nodes", "count"},
        {"bdd.arena_peak_nodes", "count"},
        {"bdd.cache_hit_rate", "ratio"},
        {"bdd.unique_load", "ratio"},
        // Executor.
        {"runtime.busy_share", "ratio"},
        {"runtime.worker_skew", "ratio"},
        {"runtime.queue_wait_p50_us", "us"},
        // Oracle: one fresh whole-fabric check per checkpoint.
        {"checker.oracle_ms", "ms"},
        // SCOUT on failing verdicts (MonitorLoop::localize).
        {"localization.localize_ms", "ms"},
        {"localization.hypothesis_objects", "count"},
        // The trace itself.
        {"bench.traced_ops", "count"},
        {"bench.trace_coverage", "ratio"},
        {"bench.trace_overhead_pct", "%"},
    };
    // Span-derived layer totals over the traced phase.
    static const char* const kLayerStats[] = {
        "layer.agent", "layer.controller", "layer.stream", "layer.runtime",
        "layer.localization"};
    static std::vector<std::string> names;
    names.reserve(std::size(kLayerStats) * 4);
    for (const char* layer : kLayerStats) {
      for (const char* stat : {".count", ".busy_ms", ".self_ms", ".wait_ms"}) {
        names.push_back(std::string(layer) + stat);
      }
    }
    for (const std::string& n : names) {
      const bool count = n.ends_with(".count");
      d.push_back({n.c_str(), count ? "count" : "ms"});
    }
    return d;
  }();
  return kDecls;
}

}  // namespace perfbench
