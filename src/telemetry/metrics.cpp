#include "src/telemetry/metrics.h"

#include <algorithm>
#include <sstream>

#include "src/common/json_writer.h"

namespace scout::telemetry {

std::uint64_t MetricsSnapshot::counter(std::string_view name) const noexcept {
  for (const auto& c : counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

double MetricsSnapshot::gauge(std::string_view name) const noexcept {
  for (const auto& g : gauges) {
    if (g.name == name) return g.value;
  }
  return 0.0;
}

const LogHistogram* MetricsSnapshot::histogram(
    std::string_view name) const noexcept {
  for (const auto& h : histograms) {
    if (h.name == name) return &h.histogram;
  }
  return nullptr;
}

std::vector<MetricsSnapshot::CounterValue>
MetricsSnapshot::counters_with_prefix(std::string_view prefix) const {
  std::vector<CounterValue> out;
  for (const auto& c : counters) {
    if (c.name.size() >= prefix.size() &&
        std::string_view{c.name}.substr(0, prefix.size()) == prefix) {
      out.push_back(c);
    }
  }
  return out;
}

namespace {

// Exposition-format HELP text, keyed by metric-name prefix (longest match
// wins; the fallback covers ad-hoc names). Deliberately subsystem-grained:
// the metric names themselves carry the specifics, HELP orients a human
// reading the scrape.
struct HelpEntry {
  std::string_view prefix;
  std::string_view help;
};
constexpr HelpEntry kHelpTable[] = {
    {"stream.churn.", "Live per-switch churn (top-K series + rollup)."},
    {"stream.ring", "Concurrent-publish MPSC ring metric."},
    {"stream.", "Continuous-monitor event-stream metric."},
    {"bdd.", "Resident BDD arena metric."},
    {"runtime.", "Executor runtime metric."},
    {"faults.", "Fault-engine activity metric."},
    {"tcam.", "TCAM hardware-model metric."},
    {"incident.", "Incident-provenance attribution metric."},
    {"health.", "Health/SLO grade (status: 0=ok 1=warn 2=critical)."},
};

std::string_view help_for(std::string_view name) {
  for (const HelpEntry& e : kHelpTable) {
    if (name.size() >= e.prefix.size() &&
        name.substr(0, e.prefix.size()) == e.prefix) {
      return e.help;
    }
  }
  return "Scout metric.";
}

}  // namespace

std::string MetricsSnapshot::to_prometheus() const {
  // Names are sanitized through bench_key() — the one name-mangling rule
  // shared with the BENCH_*.json records, so a dashboard and a bench gate
  // always agree on a series name.
  std::ostringstream os;
  for (const auto& c : counters) {
    const std::string n = bench_key(c.name);
    os << "# HELP scout_" << n << " " << help_for(c.name) << "\n";
    os << "# TYPE scout_" << n << " counter\n";
    os << "scout_" << n << " " << c.value << "\n";
  }
  for (const auto& g : gauges) {
    const std::string n = bench_key(g.name);
    os << "# HELP scout_" << n << " " << help_for(g.name) << "\n";
    os << "# TYPE scout_" << n << " gauge\n";
    os << "scout_" << n << " " << g.value << "\n";
  }
  for (const auto& h : histograms) {
    const std::string n = bench_key(h.name);
    os << "# HELP scout_" << n << " " << help_for(h.name) << "\n";
    os << "# TYPE scout_" << n << " summary\n";
    os << "scout_" << n << "_count " << h.histogram.count() << "\n";
    os << "scout_" << n << "_sum " << h.histogram.sum() << "\n";
    for (const double q : {0.5, 0.9, 0.99}) {
      os << "scout_" << n << "{quantile=\"" << q << "\"} "
         << h.histogram.quantile(q) << "\n";
    }
  }
  return os.str();
}

void MetricsSnapshot::write_json(JsonWriter& w) const {
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& c : counters) w.field(c.name, c.value);
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& g : gauges) w.field(g.name, g.value);
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& h : histograms) {
    w.key(h.name).begin_object();
    w.field("count", h.histogram.count());
    w.field("sum", h.histogram.sum());
    w.field("min", h.histogram.min());
    w.field("max", h.histogram.max());
    w.field("mean", h.histogram.mean());
    w.field("p50", h.histogram.quantile(0.50));
    w.field("p90", h.histogram.quantile(0.90));
    w.field("p99", h.histogram.quantile(0.99));
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

std::string MetricsSnapshot::to_json() const {
  JsonWriter w;
  write_json(w);
  return w.str();
}

MetricsRegistry::MetricsRegistry(std::size_t shards)
    : shards_(shards == 0 ? 1 : shards) {}

Counter MetricsRegistry::counter(std::string_view name) {
  SCOUT_CHECK(!in_parallel_region(),
              "MetricsRegistry::counter('" << std::string{name}
                  << "') inside a parallel region — register handles "
                     "before the workers start");
  MutexLock lk{mu_};
  const auto it = counters_by_name_.find(name);
  if (it != counters_by_name_.end()) {
    return Counter{it->second->slots.data(), shards_};
  }
  CounterEntry& entry = counter_entries_.emplace_back();
  entry.name = std::string{name};
  entry.slots.resize(shards_);
  counters_by_name_.emplace(entry.name, &entry);
  return Counter{entry.slots.data(), shards_};
}

Gauge MetricsRegistry::gauge(std::string_view name) {
  SCOUT_CHECK(!in_parallel_region(),
              "MetricsRegistry::gauge('" << std::string{name}
                  << "') inside a parallel region — register handles "
                     "before the workers start");
  MutexLock lk{mu_};
  const auto it = gauges_by_name_.find(name);
  if (it != gauges_by_name_.end()) return Gauge{&it->second->value};
  GaugeEntry& entry = gauge_entries_.emplace_back();
  entry.name = std::string{name};
  gauges_by_name_.emplace(entry.name, &entry);
  return Gauge{&entry.value};
}

Histogram MetricsRegistry::histogram(std::string_view name) {
  SCOUT_CHECK(!in_parallel_region(),
              "MetricsRegistry::histogram('" << std::string{name}
                  << "') inside a parallel region — register handles "
                     "before the workers start");
  MutexLock lk{mu_};
  const auto it = histograms_by_name_.find(name);
  if (it != histograms_by_name_.end()) {
    return Histogram{it->second->slots.data(), shards_};
  }
  HistogramEntry& entry = histogram_entries_.emplace_back();
  entry.name = std::string{name};
  entry.slots.resize(shards_);
  histograms_by_name_.emplace(entry.name, &entry);
  return Histogram{entry.slots.data(), shards_};
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  // The quiescence contract, enforced: merging the cache-padded shards
  // while workers are still storing into them would read torn state. The
  // executors close their region only after the join, so seeing it closed
  // (acquire) also means seeing every shard write.
  SCOUT_CHECK(!in_parallel_region(),
              "MetricsRegistry::snapshot() inside a parallel region — "
              "snapshots require worker quiescence");
  MutexLock lk{mu_};
  MetricsSnapshot snap;
  // The by-name maps iterate in sorted order, so the snapshot is sorted.
  snap.counters.reserve(counters_by_name_.size());
  for (const auto& [name, entry] : counters_by_name_) {
    std::uint64_t total = 0;
    for (const auto& slot : entry->slots) total += slot.value;
    snap.counters.push_back({name, total});
  }
  snap.gauges.reserve(gauges_by_name_.size());
  for (const auto& [name, entry] : gauges_by_name_) {
    snap.gauges.push_back({name, entry->value});
  }
  snap.histograms.reserve(histograms_by_name_.size());
  for (const auto& [name, entry] : histograms_by_name_) {
    LogHistogram merged;
    for (const auto& slot : entry->slots) merged.merge(slot.histogram);
    snap.histograms.push_back({name, std::move(merged)});
  }
  return snap;
}

void MetricsRegistry::reset() {
  SCOUT_CHECK(!in_parallel_region(),
              "MetricsRegistry::reset() inside a parallel region");
  MutexLock lk{mu_};
  for (auto& entry : counter_entries_) {
    for (auto& slot : entry.slots) slot.value = 0;
  }
  for (auto& entry : gauge_entries_) entry.value = 0.0;
  for (auto& entry : histogram_entries_) {
    for (auto& slot : entry.slots) slot.histogram = LogHistogram{};
  }
}

std::string bench_key(std::string_view metric_name) {
  // Prometheus metric names allow [a-zA-Z0-9_:]; every separator scout
  // uses in metric names ('.', '-', '/') flattens to '_'. Bench records
  // and the exposition format share this mapping so a series has exactly
  // one exported spelling.
  std::string out{metric_name};
  for (char& c : out) {
    if (c == '.' || c == '-' || c == '/') c = '_';
  }
  return out;
}

}  // namespace scout::telemetry
