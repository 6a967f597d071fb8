// Cross-check reuse of logical-ruleset BDDs (paper §III-C, engine side).
//
// The logical rules L compiled for a switch are fixed until the controller
// recompiles, but the textbook checker re-encoded them into a fresh BDD
// manager for every check — hundreds of identical encodings over one sweep
// campaign. This cache gives each runtime worker one persistent BDD arena
// (a BddManager) in which the per-switch logical BDDs stay resident below a
// checkpoint watermark; each check builds only the T-BDD above the
// watermark and rolls the arena back afterwards (see bdd.h, the arena
// contract).
//
// Keying: a worker slot is keyed by the compiled-policy epoch
// (Controller::compiled_epoch(), bumped on every recompilation) — sweep
// drivers that cycle several networks through one worker fold a network
// identity into the key. A key change drops the worker's whole arena, so a
// recompile can never serve stale logical BDDs. Within an arena, logical
// BDDs are looked up by switch id.
//
// Results are unchanged by construction: BDDs are canonical, so the cached
// check computes the same diff the fresh-manager check would, and the
// per-worker slot discipline (runtime::WorkerCache) keeps arenas
// single-threaded. tests/test_equivalence_checker.cpp pins cached == fresh
// field-for-field across randomized rulesets.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "src/bdd/bdd.h"
#include "src/checker/packet_encoding.h"
#include "src/common/ids.h"
#include "src/runtime/result_sink.h"

namespace scout {

namespace telemetry {
class MetricsRegistry;
}  // namespace telemetry

class LogicalBddCache {
 public:
  explicit LogicalBddCache(std::size_t workers);
  ~LogicalBddCache();
  LogicalBddCache(const LogicalBddCache&) = delete;
  LogicalBddCache& operator=(const LogicalBddCache&) = delete;

  [[nodiscard]] std::size_t workers() const noexcept;

  // One worker's arena for one compiled policy.
  struct WorkerState {
    explicit WorkerState(std::uint64_t k)
        : key(k), mgr(PacketVars::kCount, /*node_hint=*/1 << 12) {
      watermark = mgr.checkpoint();
    }

    std::uint64_t key = 0;
    BddManager mgr;
    // Switch -> logical-ruleset BDD resident below the watermark.
    std::unordered_map<SwitchId, BddRef> logical;
    BddManager::Checkpoint watermark{};
    std::uint64_t logical_hits = 0;    // checks served a resident L-BDD
    std::uint64_t logical_builds = 0;  // L-BDDs encoded into the arena
  };

  // The worker's arena for `key`, creating or replacing the slot when the
  // key moved (the controller recompiled, or the sweep switched networks).
  [[nodiscard]] WorkerState& state(std::size_t worker, std::uint64_t key);

  struct Stats {
    std::size_t arena_hits = 0;        // state() calls served a live arena
    std::size_t arena_builds = 0;      // fresh or replaced arenas
    std::uint64_t logical_hits = 0;
    std::uint64_t logical_builds = 0;
    std::size_t resident_switches = 0;
    std::size_t nodes = 0;             // summed across worker arenas
    double unique_load = 0.0;          // summed nodes / summed table slots
    double cache_hit_rate = 0.0;       // summed op-cache hits / lookups
    std::uint64_t rollbacks = 0;
  };
  [[nodiscard]] Stats stats() const;

  // Publish the same counters as "bdd.*" gauges into a metrics registry —
  // the path the benches snapshot so BENCH_bdd.json keys come from the
  // telemetry subsystem rather than bench-private reads.
  void export_metrics(telemetry::MetricsRegistry& registry) const;

 private:
  runtime::WorkerCache<std::unique_ptr<WorkerState>> slots_;
};

}  // namespace scout
