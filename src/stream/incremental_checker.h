// Incremental L-T checker: the continuous-verification core.
//
// The batch pipeline re-collects every TCAM and rebuilds every T-BDD per
// check. This checker instead keeps, per switch, a private BDD arena with
// the logical BDD L resident *below* a checkpoint watermark and the
// deployed BDD T resident *above* it, plus a shadow copy of the TCAM
// mirrored purely from stream events. Each TCAM delta updates T by cube
// operations against the checkpointed base:
//
//   install allow r   ->  T := T ∨ cube(r)
//   remove  allow r   ->  T := (T ∧ ¬cube(r)) ∨ ⋃ cube(overlapping allows)
//   modify  r -> r'   ->  the removal update for r, then T := T ∨ cube(r')
//   resync            ->  the batch's events for the switch update only the
//                         shadow; then T is re-encoded once from it
//                         (rollback to the watermark + ruleset_to_bdd), so
//                         the reinstalls cost no cube updates and the
//                         arena shrinks back to L plus T. Counted in
//                         resync_encodes, not as a full rebuild.
//
// These updates are *exact* — not approximate — whenever the switch's
// ruleset is in the compiler's shape: every deny rule is the catch-all
// default and sits at a priority no allow rule reaches. Under first-match
// folding that makes the allowed set a pure union of allow cubes, where
// install is ∨ and removal is ∧¬ patched by re-∨-ing the cubes of
// remaining allows that overlap the removed one (identical duplicate
// copies included). The checker tracks the safety condition per switch
// (non-catch-all deny count, allow/deny priority extremes); any delta
// outside it falls back to a full T re-encode — counted separately, and
// zero in every compiler-generated workload.
//
// How T follows a batch is decided per switch before any of its events
// is applied: a stale L (epoch trigger below) or a resync in the batch
// turns T's cube updates off for that batch.
//
// Full rebuilds (rollback to the watermark + ruleset_to_bdd over the
// shadow) happen on exactly three triggers, each counted (plus the
// ring-overflow shadow resync, counted as overflow):
//   * epoch    — the switch's CompiledPolicy::rules_epoch moved: its own
//                compiled rules changed, so L itself is stale and the
//                whole arena is re-encoded. A push that leaves a switch's
//                rules equal leaves its L, T and verdict alone;
//   * threshold— churned T versions leave dead nodes above the watermark
//                (the arena has no GC); past a divergence threshold the
//                arena is compacted by rollback + re-encode;
//   * unsafe   — a delta outside the cube-update safety condition.
//
// Because BDDs are canonical, the incrementally maintained T is the same
// node the batch checker would build from a fresh TCAM collection, so
// verdicts are bit-identical to ScoutSystem::check_all — pinned across
// randomized event streams by tests/test_stream_monitor.cpp.
//
// Sharding: switch states are partitioned over `shard_count` shards by
// stable agent-order index; one worker processes one shard, so arenas stay
// single-threaded and the composed verdict is independent of the worker
// count (per-switch work is deterministic, composition is in agent order).
//
// Flight recorder (optional): shard s writes flight lane s+1 — one "shard"
// span per process_shard() and a "full_rebuild.<reason>" instant per full
// rebuild (reason: epoch, threshold, unsafe, overflow) — so the recorder
// needs shard_count + 1 lanes; lane 0 stays the monitor driver's.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/bdd/bdd.h"
#include "src/scout/scout_system.h"
#include "src/stream/event.h"

namespace scout::telemetry {
class FlightRecorder;
}  // namespace scout::telemetry

namespace scout::stream {

class IncrementalChecker {
 public:
  struct Options {
    // Compact a switch's arena (rollback + T re-encode) when its node pool
    // has grown past factor * (pool size at the last rebuild) + slack.
    double divergence_factor = 8.0;
    std::size_t divergence_slack = 1 << 14;
  };

  struct Stats {
    std::size_t initial_builds = 0;     // prime-time L+T encodes
    std::size_t events_applied = 0;
    // Cube-level T updates; a resync's reinstalls are not among them.
    std::size_t incremental_updates = 0;
    std::size_t resync_encodes = 0;     // one T encode per resynced switch
    std::size_t full_rebuilds = 0;      // triggered re-encodes, total
    std::size_t epoch_rebuilds = 0;     //   caused by rule-epoch moves
    std::size_t threshold_trips = 0;    //   caused by arena divergence
    std::size_t unsafe_rebuilds = 0;    //   caused by out-of-shape deltas
    std::size_t overflow_resyncs = 0;   //   caused by ring-eviction resyncs
    std::size_t diff_recomputes = 0;    // verdicts recomputed via bdd_rule_diff
    std::size_t verdicts_reused = 0;    // switches served their cached verdict
  };

  // `flight` may be null (no spans or markers).
  IncrementalChecker(SimNetwork& net, std::size_t shard_count,
                     Options options, telemetry::FlightRecorder* flight);
  ~IncrementalChecker();
  IncrementalChecker(const IncrementalChecker&) = delete;
  IncrementalChecker& operator=(const IncrementalChecker&) = delete;

  [[nodiscard]] std::size_t shard_count() const noexcept;
  [[nodiscard]] std::size_t switch_count() const noexcept;

  // Partition one drained batch's TCAM-delta events onto the per-switch
  // pending lists (serial; spans must stay valid through process_shard).
  void stage(std::span<const StreamEvent> events);

  // Apply the staged events for every switch owned by `shard` and refresh
  // those switches' verdicts against the controller's current compiled
  // policy (read, never written, so shards may read it concurrently).
  // Distinct shards may run concurrently; the same shard must not.
  // `batch` only labels the flight entries.
  void process_shard(std::size_t shard, std::uint64_t batch);

  // Fabric verdict composed from the per-switch cached verdicts in agent
  // order — the same merge order as ScoutSystem::check_all, so the result
  // is comparable (and bit-identical on identical deployments).
  [[nodiscard]] FabricCheck compose() const;

  // Summed over shards after a join. All counters are pure functions of
  // the event stream (never of the worker count).
  [[nodiscard]] Stats stats() const;

  // TCAM-delta events applied per switch since construction, in agent
  // order — the live churn signal the telemetry gauges expose (and the
  // input a churn-tiered monitor would classify on). Deterministic: a pure
  // function of the event stream.
  [[nodiscard]] std::vector<std::pair<SwitchId, std::uint64_t>>
  churn_by_switch() const;

  // Aggregate BddManager stats over every per-switch arena (call between
  // process_shard runs). Node/insert totals are deterministic; capacities
  // and load factors are summed/averaged diagnostics.
  [[nodiscard]] BddManager::Stats arena_totals() const;

 private:
  struct SwitchState;
  struct Shard;

  void apply_event(Shard& shard, SwitchState& st, const StreamEvent& ev,
                   bool bdd_current);
  void note_rebuild(const Shard& shard, const SwitchState& st,
                    const char* marker);
  void rebuild_arena(Shard& shard, SwitchState& st,
                     std::uint64_t rules_epoch);
  void rebuild_t(SwitchState& st);
  void refresh_verdict(Shard& shard, SwitchState& st,
                       std::uint64_t rules_epoch, bool resynced);
  void recompute_shape(SwitchState& st);

  SimNetwork* net_;
  Options options_;
  std::vector<std::unique_ptr<SwitchState>> states_;  // agent order
  std::unordered_map<SwitchId, std::size_t> index_;   // sw -> states_ index
  std::vector<std::unique_ptr<Shard>> shards_;
  telemetry::FlightRecorder* flight_;
};

}  // namespace scout::stream
