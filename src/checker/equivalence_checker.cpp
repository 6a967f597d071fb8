#include "src/checker/equivalence_checker.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <vector>

#include "src/checker/packet_encoding.h"
#include "src/common/hash.h"

namespace scout {
namespace {

// ---------------------------------------------------------------------------
// Syntactic mode: packed match keys over a flat open-addressing multiset
// ---------------------------------------------------------------------------

// Match key (fields + action, priority excluded) packed into three words.
// Every field is at most 16 significant bits (vrf 12, EPG 16, proto 8,
// port 16 — FieldWidths), and every producer (exact(), wildcard(), range
// expansion, in-width bit corruption) keeps value/mask inside the width,
// so 16-bit lanes compare exactly like the field-wise key did.
struct PackedMatchKey {
  std::uint64_t w0 = 0, w1 = 0, w2 = 0;
  bool operator==(const PackedMatchKey&) const noexcept = default;
};

PackedMatchKey pack_key(const TcamRule& r) noexcept {
  const auto lane = [](std::uint32_t v, unsigned shift) {
    return static_cast<std::uint64_t>(v) << shift;
  };
  PackedMatchKey k;
  k.w0 = lane(r.vrf.value, 0) | lane(r.src_epg.value, 16) |
         lane(r.dst_epg.value, 32) | lane(r.proto.value, 48);
  k.w1 = lane(r.vrf.mask, 0) | lane(r.src_epg.mask, 16) |
         lane(r.dst_epg.mask, 32) | lane(r.proto.mask, 48);
  k.w2 = lane(r.dst_port.value, 0) | lane(r.dst_port.mask, 16) |
         lane(static_cast<std::uint32_t>(r.action), 32);
  return k;
}

[[nodiscard]] std::size_t hash_key(const PackedMatchKey& k) noexcept {
  return static_cast<std::size_t>(mix3_u64(k.w0, k.w1, k.w2));
}

// Reusable open-addressing multiset (linear probing, power-of-two
// capacity). Slots are validated by a generation stamp, so reset() between
// checks is O(1) instead of a clear — the fleet-sweep hot path builds one
// of these per switch per grid cell.
class MatchMultiset {
 public:
  void reset(std::size_t expected_keys) {
    const std::size_t want = next_pow2(std::max<std::size_t>(
        16, expected_keys * 2));
    if (slots_.size() < want) {
      slots_.assign(want, Slot{});
      mask_ = want - 1;
      stamp_ = 1;
      return;
    }
    if (++stamp_ == 0) {  // stamp wrapped: wipe once, restart
      std::fill(slots_.begin(), slots_.end(), Slot{});
      stamp_ = 1;
    }
  }

  // Insert-or-find; a fresh slot starts at count 0.
  std::uint32_t& acquire(const PackedMatchKey& key) {
    std::size_t i = hash_key(key) & mask_;
    for (;;) {
      Slot& s = slots_[i];
      if (s.stamp != stamp_) {
        s = Slot{key, 0, stamp_};
        return s.count;
      }
      if (s.key == key) return s.count;
      i = (i + 1) & mask_;
    }
  }

  // nullptr when the key was never inserted this generation.
  [[nodiscard]] std::uint32_t* find(const PackedMatchKey& key) {
    std::size_t i = hash_key(key) & mask_;
    for (;;) {
      Slot& s = slots_[i];
      if (s.stamp != stamp_) return nullptr;
      if (s.key == key) return &s.count;
      i = (i + 1) & mask_;
    }
  }

 private:
  struct Slot {
    PackedMatchKey key;
    std::uint32_t count = 0;
    std::uint32_t stamp = 0;
  };

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::uint32_t stamp_ = 0;
};

// Per-thread scratch: checks are leaf calls (no reentrancy), and each pool
// worker owns its thread, so a thread_local table gives every worker a
// warm multiset without any sharing.
thread_local MatchMultiset t_match_scratch;

bool is_catch_all_deny(const TcamRule& r) noexcept {
  return r.action == RuleAction::kDeny && r.wildcard_all();
}

// ---------------------------------------------------------------------------
// BDD mode: shared diff computation over an arena
// ---------------------------------------------------------------------------

// Build T above the caller's checkpoint and compute the full diff. Only
// canonical structure feeds the result, so the outcome is bit-identical
// whether `mgr` is a fresh manager or a cached arena with L resident.
CheckResult bdd_diff(BddManager& mgr, BddRef l_bdd,
                     std::span<const LogicalRule> logical,
                     std::span<const TcamRule> deployed) {
  const BddRef t_bdd = ruleset_to_bdd(mgr, deployed);
  return bdd_rule_diff(mgr, l_bdd, t_bdd, logical, deployed);
}

// Roll the arena back to the checkpoint even if the diff throws.
class ScopedRollback {
 public:
  ScopedRollback(BddManager& mgr, BddManager::Checkpoint cp)
      : mgr_(mgr), cp_(cp) {}
  ScopedRollback(const ScopedRollback&) = delete;
  ScopedRollback& operator=(const ScopedRollback&) = delete;
  ~ScopedRollback() { mgr_.rollback(cp_); }

 private:
  BddManager& mgr_;
  BddManager::Checkpoint cp_;
};

}  // namespace

CheckResult bdd_rule_diff(BddManager& mgr, BddRef l_bdd, BddRef t_bdd,
                          std::span<const LogicalRule> logical,
                          std::span<const TcamRule> deployed) {
  CheckResult result;
  if (mgr.equivalent(l_bdd, t_bdd)) {
    result.equivalent = true;
    return result;
  }
  result.equivalent = false;

  const BddRef missing_space = mgr.apply_diff(l_bdd, t_bdd);  // L ∧ ¬T
  const BddRef extra_space = mgr.apply_diff(t_bdd, l_bdd);    // T ∧ ¬L
  result.missing_packet_count = mgr.sat_count(missing_space);
  result.extra_packet_count = mgr.sat_count(extra_space);

  // An L-rule is missing iff some packet it should allow is in L ∧ ¬T.
  // (Deny rules never generate "missing allowed packets".)
  BddCube cube;
  cube.reserve(FieldWidths::kTotal);
  for (const auto& lr : logical) {
    if (lr.rule.action != RuleAction::kAllow) continue;
    rule_to_cube_into(cube, lr.rule);
    if (mgr.intersects_cube(missing_space, cube)) {
      result.missing.push_back(lr);
    }
  }
  // A T-rule is extra iff it admits packets in T ∧ ¬L.
  for (const auto& tr : deployed) {
    if (tr.action != RuleAction::kAllow) continue;
    rule_to_cube_into(cube, tr);
    if (mgr.intersects_cube(extra_space, cube)) {
      result.extra_rules.push_back(tr);
    }
  }
  return result;
}

void CheckResult::absorb(CheckResult&& other) {
  equivalent = equivalent && other.equivalent;
  missing.insert(missing.end(),
                 std::make_move_iterator(other.missing.begin()),
                 std::make_move_iterator(other.missing.end()));
  extra_rules.insert(extra_rules.end(),
                     std::make_move_iterator(other.extra_rules.begin()),
                     std::make_move_iterator(other.extra_rules.end()));
  extra_packet_count += other.extra_packet_count;
  missing_packet_count += other.missing_packet_count;
}

bool EquivalenceChecker::syntactically_identical(
    std::span<const LogicalRule> logical, std::span<const TcamRule> deployed) {
  MatchMultiset& ms = t_match_scratch;
  ms.reset(deployed.size());
  for (const auto& r : deployed) ++ms.acquire(pack_key(r));
  for (const auto& lr : logical) {
    std::uint32_t* count = ms.find(pack_key(lr.rule));
    if (count == nullptr || *count == 0) return false;
    --*count;
  }
  // Any leftover deployed rule other than the implicit catch-all deny means
  // the device has extra state.
  for (const auto& r : deployed) {
    if (is_catch_all_deny(r)) continue;
    std::uint32_t* count = ms.find(pack_key(r));
    if (count != nullptr && *count > 0) return false;
  }
  return true;
}

CheckResult EquivalenceChecker::check(std::span<const LogicalRule> logical,
                                      std::span<const TcamRule> deployed,
                                      const BddCheckContext* ctx) const {
  if (mode_ == CheckMode::kSyntactic) {
    // The syntactic diff already subsumes the identical-multiset test; a
    // separate pre-pass would just build the multiset twice.
    return check_syntactic(logical, deployed);
  }
  // BDD mode fast path: identical rule multisets are equivalent by
  // construction, no BDD needed.
  if (syntactically_identical(logical, deployed)) {
    CheckResult r;
    r.equivalent = true;
    return r;
  }
  return check_bdd(logical, deployed, ctx);
}

CheckResult EquivalenceChecker::check_bdd(
    std::span<const LogicalRule> logical, std::span<const TcamRule> deployed,
    const BddCheckContext* ctx) const {
  // Strip provenance only when a logical BDD actually has to be encoded:
  // the steady-state cached path below serves a resident L-BDD and never
  // reads the rules.
  const auto strip = [&logical] {
    std::vector<TcamRule> l_rules;
    l_rules.reserve(logical.size());
    for (const auto& lr : logical) l_rules.push_back(lr.rule);
    return l_rules;
  };

  if (ctx != nullptr && ctx->cache != nullptr) {
    LogicalBddCache::WorkerState& st = ctx->cache->state(ctx->worker,
                                                         ctx->key);
    BddRef l_bdd;
    if (const auto it = st.logical.find(ctx->sw); it != st.logical.end()) {
      l_bdd = it->second;
      ++st.logical_hits;
    } else {
      // First check of this switch under this compiled policy: encode L
      // into the arena and advance the watermark so it stays resident.
      l_bdd = ruleset_to_bdd(st.mgr, strip());
      st.logical.emplace(ctx->sw, l_bdd);
      st.watermark = st.mgr.checkpoint();
      ++st.logical_builds;
    }
    // T lives above the watermark for exactly this check. Between checks
    // the pool top sits at the watermark (every check rolls back to it),
    // so the guard restores to st.watermark directly.
    const ScopedRollback guard{st.mgr, st.watermark};
    return bdd_diff(st.mgr, l_bdd, logical, deployed);
  }

  BddManager mgr{PacketVars::kCount, /*node_hint=*/1 << 12};
  const BddRef l_bdd = ruleset_to_bdd(mgr, strip());
  return bdd_diff(mgr, l_bdd, logical, deployed);
}

CheckResult EquivalenceChecker::check_syntactic(
    std::span<const LogicalRule> logical,
    std::span<const TcamRule> deployed) const {
  CheckResult result;
  MatchMultiset& ms = t_match_scratch;
  ms.reset(deployed.size());
  for (const auto& r : deployed) ++ms.acquire(pack_key(r));
  for (const auto& lr : logical) {
    std::uint32_t* count = ms.find(pack_key(lr.rule));
    if (count != nullptr && *count > 0) {
      --*count;
    } else if (lr.rule.action == RuleAction::kAllow) {
      result.missing.push_back(lr);
    }
  }
  // Leftovers are extra device state. Walking the deployed rules (instead
  // of the table) keeps the report in deployment order and preserves each
  // rule's real priority; each key emits exactly its leftover count.
  double extra = 0.0;
  for (const auto& r : deployed) {
    if (is_catch_all_deny(r)) continue;
    std::uint32_t* count = ms.find(pack_key(r));
    if (count != nullptr && *count > 0) {
      --*count;
      result.extra_rules.push_back(r);
      extra += 1.0;
    }
  }
  // Syntactic mode reports *rule* counts, not packet counts; the quantities
  // are comparable only as zero/non-zero indicators.
  result.extra_packet_count = extra;
  result.missing_packet_count = static_cast<double>(result.missing.size());
  result.equivalent = result.missing.empty() && extra == 0.0;
  return result;
}

}  // namespace scout
