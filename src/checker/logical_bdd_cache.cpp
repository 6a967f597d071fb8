#include "src/checker/logical_bdd_cache.h"

#include "src/telemetry/metrics.h"

namespace scout {

LogicalBddCache::LogicalBddCache(std::size_t workers) : slots_(workers) {}

LogicalBddCache::~LogicalBddCache() = default;

std::size_t LogicalBddCache::workers() const noexcept {
  return slots_.workers();
}

LogicalBddCache::WorkerState& LogicalBddCache::state(std::size_t worker,
                                                     std::uint64_t key) {
  if (std::unique_ptr<WorkerState>* hit = slots_.lookup(worker, key);
      hit != nullptr && *hit != nullptr && (*hit)->key == key) {
    slots_.note_hit(worker);
    return **hit;
  }
  slots_.note_miss(worker);
  return *slots_.store(worker, key, std::make_unique<WorkerState>(key));
}

LogicalBddCache::Stats LogicalBddCache::stats() const {
  Stats s;
  s.arena_hits = slots_.hits();
  s.arena_builds = slots_.misses();
  std::size_t table_slots = 0;
  std::uint64_t cache_lookups = 0;
  std::uint64_t cache_hits = 0;
  for (std::size_t w = 0; w < slots_.workers(); ++w) {
    const std::unique_ptr<WorkerState>* entry = slots_.peek(w);
    if (entry == nullptr || *entry == nullptr) continue;
    const WorkerState& st = **entry;
    s.logical_hits += st.logical_hits;
    s.logical_builds += st.logical_builds;
    s.resident_switches += st.logical.size();
    const BddManager::Stats engine = st.mgr.stats();
    s.nodes += engine.nodes;
    table_slots += engine.unique_capacity;
    cache_lookups += engine.cache_lookups;
    cache_hits += engine.cache_hits;
    s.rollbacks += engine.rollbacks;
  }
  if (table_slots > 0) {
    s.unique_load =
        static_cast<double>(s.nodes) / static_cast<double>(table_slots);
  }
  if (cache_lookups > 0) {
    s.cache_hit_rate = static_cast<double>(cache_hits) /
                       static_cast<double>(cache_lookups);
  }
  return s;
}

void LogicalBddCache::export_metrics(
    telemetry::MetricsRegistry& registry) const {
  const Stats s = stats();
  registry.set_gauge("bdd.arena_builds", static_cast<double>(s.arena_builds));
  registry.set_gauge("bdd.arena_hits", static_cast<double>(s.arena_hits));
  registry.set_gauge("bdd.logical_builds",
                     static_cast<double>(s.logical_builds));
  registry.set_gauge("bdd.logical_hits", static_cast<double>(s.logical_hits));
  registry.set_gauge("bdd.resident_switches",
                     static_cast<double>(s.resident_switches));
  registry.set_gauge("bdd.nodes", static_cast<double>(s.nodes));
  registry.set_gauge("bdd.unique_load", s.unique_load);
  registry.set_gauge("bdd.cache_hit_rate", s.cache_hit_rate);
  registry.set_gauge("bdd.rollbacks", static_cast<double>(s.rollbacks));
}

}  // namespace scout
