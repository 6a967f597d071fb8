#include "src/stream/incremental_checker.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <limits>
#include <unordered_map>

#include "src/bdd/bdd.h"
#include "src/checker/equivalence_checker.h"
#include "src/checker/packet_encoding.h"
#include "src/common/check.h"
#include "src/common/logging.h"
#include "src/telemetry/flight_recorder.h"

namespace scout::stream {
namespace {

// "Not yet primed" epoch sentinel; Controller epochs are small counters.
constexpr std::uint64_t kNoEpoch = std::numeric_limits<std::uint64_t>::max();

// Priority extremes as 64-bit so the no-allow / no-deny sentinels compare
// correctly (union semantics need every deny above every allow).
constexpr std::int64_t kNoAllow = -1;
constexpr std::int64_t kNoDeny = std::int64_t{1} << 40;

}  // namespace

struct IncrementalChecker::SwitchState {
  SwitchState() : mgr(PacketVars::kCount, /*node_hint=*/1 << 10) {}

  SwitchId sw{};
  const SwitchAgent* agent = nullptr;

  // Arena layout: [terminal][L nodes][l_mark][T nodes + update churn].
  BddManager mgr;
  BddManager::Checkpoint l_mark{};
  BddRef l_bdd = kBddFalse;
  BddRef t_bdd = kBddFalse;
  std::uint64_t epoch = kNoEpoch;  // CompiledPolicy::rules_epoch of L
  std::size_t nodes_at_rebuild = 1;

  // Mirror of the agent's TCAM (same contents, same table order),
  // maintained purely from stream events after the prime-time collection.
  std::vector<TcamRule> shadow;

  // Cube-update safety shape (see header). The priority extremes are
  // maintained monotonically between rebuilds — removals can leave them
  // stale, which only ever errs toward a spurious full rebuild — and are
  // recomputed exactly from the shadow at every rebuild.
  std::size_t non_catchall_denies = 0;
  std::int64_t max_allow_priority = kNoAllow;
  std::int64_t min_deny_priority = kNoDeny;
  bool t_dirty = false;  // unsafe delta seen: T must re-encode

  // A kShadowResync marker was applied (ring overflow evicted this
  // switch's events): the shadow was re-collected from ground truth and T
  // must re-encode before the next verdict — counted as an overflow
  // rebuild, distinct from the unsafe/threshold triggers.
  bool resync_pending = false;

  // Verdict cache for the current (L, T, shadow); recomputing it runs the
  // full rule diff, so untouched switches serve the cached copy.
  bool verdict_valid = false;
  CheckResult verdict;

  std::uint64_t churn = 0;  // TCAM-delta events applied, lifetime

  std::vector<const StreamEvent*> pending;

  [[nodiscard]] bool cube_safe() const noexcept {
    return non_catchall_denies == 0 &&
           min_deny_priority > max_allow_priority;
  }
};

// Per-shard scratch + counters, padded so concurrent shards never share a
// cache line through the checker.
struct alignas(64) IncrementalChecker::Shard {
  std::size_t index = 0;   // flight lane is index + 1 (lane 0 = driver)
  std::uint64_t batch = 0;  // of the running process_shard(), for markers
  Stats stats;
  BddCube cube_scratch;
  std::vector<TcamRule> strip_scratch;
  // Exclusivity token: process_shard() may run concurrently across
  // *distinct* shards but never twice on the same one (the arenas and
  // scratch are single-threaded). exchange() makes a violation abort at
  // entry instead of corrupting an arena.
  std::atomic<bool> in_flight{false};
};

IncrementalChecker::IncrementalChecker(SimNetwork& net,
                                       std::size_t shard_count,
                                       Options options,
                                       telemetry::FlightRecorder* flight)
    : net_(&net), options_(options), flight_(flight) {
  const auto agents = net.agents();
  states_.reserve(agents.size());
  index_.reserve(agents.size());
  for (const auto& agent : agents) {
    auto st = std::make_unique<SwitchState>();
    st->sw = agent->id();
    st->agent = agent.get();
    index_.emplace(st->sw, states_.size());
    states_.push_back(std::move(st));
  }
  shards_.reserve(shard_count == 0 ? 1 : shard_count);
  for (std::size_t s = 0; s < std::max<std::size_t>(1, shard_count); ++s) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->index = s;
  }
}

IncrementalChecker::~IncrementalChecker() = default;

std::size_t IncrementalChecker::shard_count() const noexcept {
  return shards_.size();
}

std::size_t IncrementalChecker::switch_count() const noexcept {
  return states_.size();
}

void IncrementalChecker::stage(std::span<const StreamEvent> events) {
  for (const auto& st : states_) st->pending.clear();
  if (events.empty()) return;
  for (const StreamEvent& ev : events) {
    switch (ev.type) {
      case StreamEventType::kRuleInstalled:
      case StreamEventType::kRulesRemoved:
      case StreamEventType::kRuleEvicted:
      case StreamEventType::kRuleModified:
      case StreamEventType::kSwitchResynced:
        if (const auto it = index_.find(ev.sw); it != index_.end()) {
          auto& pending = states_[it->second]->pending;
          // Once a shadow-resync marker is staged for a switch, the batch's
          // other deltas for it are superseded: the marker re-collects the
          // final (drain-time) TCAM, and applying a partial post-gap suffix
          // to a pre-gap shadow would corrupt the mirror.
          if (!pending.empty() &&
              pending.back()->type == StreamEventType::kShadowResync) {
            break;
          }
          pending.push_back(&ev);
        }
        break;
      case StreamEventType::kShadowResync:
        if (const auto it = index_.find(ev.sw); it != index_.end()) {
          auto& pending = states_[it->second]->pending;
          if (!pending.empty() &&
              pending.back()->type == StreamEventType::kShadowResync) {
            break;  // one marker per switch per batch is enough
          }
          // Events staged before the marker precede the eviction gap; the
          // re-collect covers them, so they are dropped, not applied.
          pending.clear();
          pending.push_back(&ev);
        }
        break;
      default:
        break;  // control-plane / policy events carry no TCAM delta
    }
  }
}

void IncrementalChecker::recompute_shape(SwitchState& st) {
  st.non_catchall_denies = 0;
  st.max_allow_priority = kNoAllow;
  st.min_deny_priority = kNoDeny;
  for (const TcamRule& r : st.shadow) {
    if (r.action == RuleAction::kAllow) {
      st.max_allow_priority =
          std::max(st.max_allow_priority, std::int64_t{r.priority});
    } else {
      if (!r.wildcard_all()) ++st.non_catchall_denies;
      st.min_deny_priority =
          std::min(st.min_deny_priority, std::int64_t{r.priority});
    }
  }
}

void IncrementalChecker::rebuild_t(SwitchState& st) {
  st.mgr.rollback(st.l_mark);
  st.t_bdd = ruleset_to_bdd(st.mgr, st.shadow);
  st.nodes_at_rebuild = st.mgr.node_count();
  recompute_shape(st);
  st.t_dirty = false;
}

void IncrementalChecker::rebuild_arena(Shard& shard, SwitchState& st,
                                       std::uint64_t rules_epoch) {
  const bool initial = st.epoch == kNoEpoch;
  if (initial) {
    // Prime-time bootstrap: the one TCAM collection the monitor performs.
    // Every later shadow state comes from events alone.
    const auto rules = st.agent->tcam().rules();
    st.shadow.assign(rules.begin(), rules.end());
  }
  st.mgr.rollback(BddManager::Checkpoint{1});
  const auto& logical = net_->controller().compiled().rules_for(st.sw);
  auto& strip = shard.strip_scratch;
  strip.clear();
  strip.reserve(logical.size());
  for (const LogicalRule& lr : logical) strip.push_back(lr.rule);
  st.l_bdd = ruleset_to_bdd(st.mgr, strip);
  st.l_mark = st.mgr.checkpoint();
  rebuild_t(st);
  st.epoch = rules_epoch;
  st.verdict_valid = false;
  if (initial) {
    ++shard.stats.initial_builds;
  } else {
    ++shard.stats.epoch_rebuilds;
    ++shard.stats.full_rebuilds;
    note_rebuild(shard, st, "full_rebuild.epoch");
  }
}

void IncrementalChecker::note_rebuild(const Shard& shard,
                                      const SwitchState& st,
                                      const char* marker) {
  SCOUT_DEBUG("stream", marker << " sw=" << st.sw << " arena_nodes="
                               << st.mgr.node_count());
  if (flight_ != nullptr) {
    flight_->instant(shard.index + 1, marker, shard.batch,
                     net_->clock().now().millis());
  }
}

void IncrementalChecker::apply_event(Shard& shard, SwitchState& st,
                                     const StreamEvent& ev,
                                     bool bdd_current) {
  ++shard.stats.events_applied;
  // Synthesized resync markers are bookkeeping, not fabric activity; the
  // per-switch churn gauges count real TCAM deltas only.
  if (ev.type != StreamEventType::kShadowResync) ++st.churn;
  auto& cube = shard.cube_scratch;
  // The T cube update is worth doing only when the resident T is the
  // current one (no pending arena rebuild) and the ruleset stays in the
  // union-of-allow-cubes shape.
  const auto updatable = [&] {
    return bdd_current && !st.t_dirty && st.cube_safe();
  };
  // Removal update against the checkpointed base: clear the cube, then
  // restore the parts still claimed by overlapping remaining allows
  // (identical duplicate copies included).
  const auto remove_allow_cube = [&](const TcamRule& gone) {
    rule_to_cube_into(cube, gone);
    BddRef t = st.mgr.apply_diff(st.t_bdd, st.mgr.cube(cube));
    for (const TcamRule& r : st.shadow) {
      if (r.action != RuleAction::kAllow || !r.overlaps(gone)) continue;
      rule_to_cube_into(cube, r);
      t = st.mgr.apply_or(t, st.mgr.cube(cube));
    }
    st.t_bdd = t;
    ++shard.stats.incremental_updates;
  };
  const auto note_insert = [&](const TcamRule& r) {
    // Shadow insert mirrors TcamTable::install: before the first strictly
    // greater priority, so equal priorities keep install order.
    const auto pos = std::upper_bound(
        st.shadow.begin(), st.shadow.end(), r,
        [](const TcamRule& a, const TcamRule& b) {
          return a.priority < b.priority;
        });
    st.shadow.insert(pos, r);
    if (r.action == RuleAction::kAllow) {
      st.max_allow_priority =
          std::max(st.max_allow_priority, std::int64_t{r.priority});
    } else {
      if (!r.wildcard_all()) ++st.non_catchall_denies;
      st.min_deny_priority =
          std::min(st.min_deny_priority, std::int64_t{r.priority});
    }
  };

  switch (ev.type) {
    case StreamEventType::kRuleInstalled: {
      note_insert(ev.rule);
      if (updatable()) {
        if (ev.rule.action == RuleAction::kAllow) {
          rule_to_cube_into(cube, ev.rule);
          st.t_bdd = st.mgr.apply_or(st.t_bdd, st.mgr.cube(cube));
          ++shard.stats.incremental_updates;
        }
        // A catch-all deny above every allow adds nothing to the allowed
        // set: T is already exact.
      } else if (bdd_current) {
        st.t_dirty = true;
      }
      st.verdict_valid = false;
      break;
    }
    case StreamEventType::kRulesRemoved: {
      const TcamRule& target = ev.rule;
      // Safety judged on the shape *before* the removal: dropping the last
      // non-catch-all deny makes the post-removal shape look safe, but T
      // was built under first-match semantics and must re-encode.
      const bool was_updatable = updatable();
      std::size_t removed = 0;
      std::size_t denies_removed = 0;
      std::erase_if(st.shadow, [&](const TcamRule& r) {
        if (!r.same_match(target)) return false;
        ++removed;
        if (r.action == RuleAction::kDeny && !r.wildcard_all()) {
          ++denies_removed;
        }
        return true;
      });
      assert(removed == ev.count);
      st.non_catchall_denies -= denies_removed;
      if (removed == 0) break;
      if (was_updatable) {
        // In-shape there are no non-catch-all denies to remove.
        assert(denies_removed == 0);
        if (target.action == RuleAction::kAllow) {
          // All identical-match copies are gone; patch overlaps back in.
          remove_allow_cube(target);
        }
        // Removing a catch-all deny leaves the union unchanged.
      } else if (bdd_current) {
        st.t_dirty = true;
      }
      st.verdict_valid = false;
      break;
    }
    case StreamEventType::kRuleEvicted: {
      // Exactly one copy, bytewise-equal, from the tail of the table.
      const auto it = std::find(st.shadow.rbegin(), st.shadow.rend(),
                                ev.rule);
      if (it == st.shadow.rend()) break;
      st.shadow.erase(std::next(it).base());
      if (ev.rule.action == RuleAction::kDeny && !ev.rule.wildcard_all()) {
        --st.non_catchall_denies;
        if (bdd_current) st.t_dirty = true;
      } else if (updatable()) {
        if (ev.rule.action == RuleAction::kAllow) {
          remove_allow_cube(ev.rule);
        }
      } else if (bdd_current) {
        st.t_dirty = true;
      }
      st.verdict_valid = false;
      break;
    }
    case StreamEventType::kRuleModified: {
      assert(ev.tcam_index < st.shadow.size() &&
             st.shadow[ev.tcam_index] == ev.rule);
      if (ev.tcam_index >= st.shadow.size()) break;
      // In-place rewrite (corruption preserves priority and position).
      st.shadow[ev.tcam_index] = ev.rule_after;
      const bool deny_before =
          ev.rule.action == RuleAction::kDeny && !ev.rule.wildcard_all();
      const bool deny_after = ev.rule_after.action == RuleAction::kDeny &&
                              !ev.rule_after.wildcard_all();
      if (deny_before) --st.non_catchall_denies;
      if (deny_after) ++st.non_catchall_denies;
      if (ev.rule_after.action == RuleAction::kAllow) {
        st.max_allow_priority = std::max(
            st.max_allow_priority, std::int64_t{ev.rule_after.priority});
      } else {
        st.min_deny_priority = std::min(
            st.min_deny_priority, std::int64_t{ev.rule_after.priority});
      }
      if (deny_before || deny_after ||
          ev.rule.action != RuleAction::kAllow ||
          ev.rule_after.action != RuleAction::kAllow) {
        if (bdd_current) st.t_dirty = true;
      } else if (updatable()) {
        // Remove-then-add: the overlap scan runs over the post-replacement
        // shadow, so a surviving identical copy (or the new image itself)
        // restores its share of the removed cube; the final ∨ is
        // idempotent when the scan already covered it.
        remove_allow_cube(ev.rule);
        rule_to_cube_into(cube, ev.rule_after);
        st.t_bdd = st.mgr.apply_or(st.t_bdd, st.mgr.cube(cube));
      } else if (bdd_current) {
        st.t_dirty = true;
      }
      st.verdict_valid = false;
      break;
    }
    case StreamEventType::kSwitchResynced: {
      // Never applied to a current T: process_shard re-encodes T once
      // from the shadow after a batch that resyncs the switch.
      assert(!bdd_current);
      st.shadow.clear();
      st.non_catchall_denies = 0;
      st.max_allow_priority = kNoAllow;
      st.min_deny_priority = kNoDeny;
      st.verdict_valid = false;
      break;
    }
    case StreamEventType::kShadowResync: {
      // Ring overflow evicted this switch's events: the event mirror has a
      // gap, so re-collect the TCAM from ground truth — the one post-prime
      // exception to "events are the sole input", taken only while the
      // switch's publisher is quiescent (eviction policy runs in phased
      // mode; the free-running pipeline uses backpressure instead).
      const auto rules = st.agent->tcam().rules();
      st.shadow.assign(rules.begin(), rules.end());
      recompute_shape(st);
      st.resync_pending = true;
      st.verdict_valid = false;
      break;
    }
    default:
      break;
  }
}

void IncrementalChecker::refresh_verdict(Shard& shard, SwitchState& st,
                                         std::uint64_t rules_epoch,
                                         bool resynced) {
  if (st.epoch != rules_epoch) {
    rebuild_arena(shard, st, rules_epoch);  // re-encodes T from the shadow
    st.resync_pending = false;
  } else if (resynced) {
    // The resync's own T update, not a fallback: dropping every older T
    // version compacts the arena back to L plus T.
    rebuild_t(st);
    ++shard.stats.resync_encodes;
  } else if (st.resync_pending) {
    rebuild_t(st);
    st.resync_pending = false;
    ++shard.stats.overflow_resyncs;
    ++shard.stats.full_rebuilds;
    note_rebuild(shard, st, "full_rebuild.overflow");
    st.verdict_valid = false;
  } else if (st.t_dirty) {
    rebuild_t(st);
    ++shard.stats.unsafe_rebuilds;
    ++shard.stats.full_rebuilds;
    note_rebuild(shard, st, "full_rebuild.unsafe");
    st.verdict_valid = false;
  } else if (st.mgr.node_count() >
             static_cast<std::size_t>(
                 options_.divergence_factor *
                 static_cast<double>(st.nodes_at_rebuild)) +
                 options_.divergence_slack) {
    // Compaction: same boolean T, fresh arena — the cached verdict (a
    // function of L, T and the shadow, all unchanged) stays valid.
    rebuild_t(st);
    ++shard.stats.threshold_trips;
    ++shard.stats.full_rebuilds;
    note_rebuild(shard, st, "full_rebuild.threshold");
  }
  if (st.verdict_valid) {
    ++shard.stats.verdicts_reused;
    return;
  }
  const auto& logical = net_->controller().compiled().rules_for(st.sw);
  const auto cp = st.mgr.checkpoint();
  if (st.l_bdd == st.t_bdd) {
    st.verdict = CheckResult{};
  } else {
    st.verdict =
        bdd_rule_diff(st.mgr, st.l_bdd, st.t_bdd, logical, st.shadow);
  }
  st.mgr.rollback(cp);  // diff nodes are per-verdict scratch
  st.verdict_valid = true;
  ++shard.stats.diff_recomputes;
}

void IncrementalChecker::process_shard(std::size_t shard_index,
                                       std::uint64_t batch) {
  SCOUT_CHECK(shard_index < shards_.size(),
              "IncrementalChecker: shard " << shard_index << " of "
                  << shards_.size());
  Shard& shard = *shards_[shard_index];
  SCOUT_CHECK(!shard.in_flight.exchange(true, std::memory_order_acquire),
              "IncrementalChecker: shard " << shard_index
                  << " processed concurrently");
  struct InFlightToken {
    std::atomic<bool>& flag;
    ~InFlightToken() { flag.store(false, std::memory_order_release); }
  } token{shard.in_flight};
  shard.batch = batch;
  const telemetry::FlightRecorder::Scope span{
      flight_, shard.index + 1, "shard", batch,
      net_->clock().now().millis()};
  const CompiledPolicy& compiled = net_->controller().compiled();
  for (std::size_t i = shard_index; i < states_.size();
       i += shards_.size()) {
    SwitchState& st = *states_[i];
    const std::uint64_t rules_epoch = compiled.rules_epoch(st.sw);
    if (st.pending.empty() && st.epoch == rules_epoch && st.verdict_valid) {
      continue;
    }
    // Decide how T follows the batch before any event is applied: a stale
    // L re-encodes the arena and a resync re-encodes T, so their events
    // update only the shadow; otherwise each delta updates T by cubes.
    const bool resynced = std::any_of(
        st.pending.begin(), st.pending.end(), [](const StreamEvent* ev) {
          return ev->type == StreamEventType::kSwitchResynced;
        });
    const bool bdd_current = st.epoch == rules_epoch && !resynced;
    for (const StreamEvent* ev : st.pending) {
      apply_event(shard, st, *ev, bdd_current);
    }
    st.pending.clear();
    refresh_verdict(shard, st, rules_epoch, resynced);
  }
}

FabricCheck IncrementalChecker::compose() const {
  FabricCheck check;
  check.switches_checked = states_.size();
  for (const auto& st : states_) {
    assert(st->verdict_valid);
    if (st->verdict.equivalent) continue;
    check.inconsistent.push_back(st->sw);
    check.missing_rules.insert(check.missing_rules.end(),
                               st->verdict.missing.begin(),
                               st->verdict.missing.end());
    check.extra_rule_count += st->verdict.extra_rules.size();
  }
  return check;
}

std::vector<std::pair<SwitchId, std::uint64_t>>
IncrementalChecker::churn_by_switch() const {
  std::vector<std::pair<SwitchId, std::uint64_t>> out;
  out.reserve(states_.size());
  for (const auto& st : states_) out.emplace_back(st->sw, st->churn);
  return out;
}

BddManager::Stats IncrementalChecker::arena_totals() const {
  BddManager::Stats total;
  double load_sum = 0.0;
  for (const auto& st : states_) {
    const BddManager::Stats s = st->mgr.stats();
    total.nodes += s.nodes;
    total.peak_nodes += s.peak_nodes;
    total.unique_capacity += s.unique_capacity;
    load_sum += s.unique_load;
    total.cache_capacity += s.cache_capacity;
    total.unique_inserts += s.unique_inserts;
    total.cache_lookups += s.cache_lookups;
    total.cache_hits += s.cache_hits;
    total.rollbacks += s.rollbacks;
    total.rollback_floor = std::max(total.rollback_floor, s.rollback_floor);
  }
  total.unique_load = states_.empty()
                          ? 0.0
                          : load_sum / static_cast<double>(states_.size());
  return total;
}

IncrementalChecker::Stats IncrementalChecker::stats() const {
  Stats total;
  for (const auto& shard : shards_) {
    const Stats& s = shard->stats;
    total.initial_builds += s.initial_builds;
    total.events_applied += s.events_applied;
    total.incremental_updates += s.incremental_updates;
    total.full_rebuilds += s.full_rebuilds;
    total.epoch_rebuilds += s.epoch_rebuilds;
    total.resync_encodes += s.resync_encodes;
    total.threshold_trips += s.threshold_trips;
    total.unsafe_rebuilds += s.unsafe_rebuilds;
    total.overflow_resyncs += s.overflow_resyncs;
    total.diff_recomputes += s.diff_recomputes;
    total.verdicts_reused += s.verdicts_reused;
  }
  return total;
}

}  // namespace scout::stream
