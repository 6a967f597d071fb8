// TCAM table model: priority-ordered rule storage with a hard capacity,
// first-match semantics, utilization accounting, local rule eviction and
// bit-level corruption injection. These are exactly the §II-B failure
// sources: "TCAM has insufficient space", "the agent may run a local rule
// eviction mechanism", "TCAM is simply corrupted due to hardware failure".
//
// Which entry the local eviction mechanism spills is a pluggable strategy
// (src/faults/fault_policy.h): the table keeps per-entry install/touch
// stamps and hands them to an EvictionPolicy when one is set; without one
// it keeps the historical lowest-priority behaviour. Stamps, the policy
// object and the eviction counter are bookkeeping, not network state —
// they steer fault selection but stay out of state_fingerprint(), so a
// journaled repair restores fingerprint-identical state under any policy.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "src/common/rng.h"
#include "src/tcam/tcam_rule.h"

namespace scout {

class EvictionPolicy;  // src/faults/fault_policy.h

enum class InstallStatus : std::uint8_t { kOk, kOverflow };

// Per-entry bookkeeping parallel to the rule vector. `installed` is the
// monotone stamp assigned when the entry was written; `touched` refreshes
// on in-place overwrites (replace_one with equal priority), modelling the
// update/match counters real eviction heuristics key off.
struct RuleMeta {
  std::uint64_t installed = 0;
  std::uint64_t touched = 0;
};

class TcamTable {
 public:
  explicit TcamTable(std::size_t capacity);
  ~TcamTable();
  TcamTable(TcamTable&&) noexcept;
  TcamTable& operator=(TcamTable&&) noexcept;

  // Install keeps rules sorted by priority (stable for equal priorities).
  [[nodiscard]] InstallStatus install(const TcamRule& rule);

  // Remove all rules for which `pred` holds; returns how many were removed.
  std::size_t remove_if(const std::function<bool(const TcamRule&)>& pred);

  // First-match lookup; nullopt when nothing matches (no default rule
  // installed). The deployment always installs a catch-all deny, so in a
  // healthy table this never returns nullopt.
  [[nodiscard]] std::optional<RuleAction> lookup(
      const PacketHeader& p) const noexcept;

  [[nodiscard]] std::span<const TcamRule> rules() const noexcept {
    return rules_;
  }
  [[nodiscard]] std::span<const RuleMeta> meta() const noexcept {
    return meta_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return rules_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] double utilization() const noexcept {
    return capacity_ == 0
               ? 1.0
               : static_cast<double>(rules_.size()) /
                     static_cast<double>(capacity_);
  }
  [[nodiscard]] bool full() const noexcept { return rules_.size() >= capacity_; }

  // --- fault injection hooks (used by src/faults) ---------------------------

  // What corrupt_random_bit changed: the entry's index plus its full
  // before/after images, so a repair journal can undo the flip exactly.
  struct Corruption {
    std::size_t index = 0;
    TcamRule before;
    TcamRule after;
  };

  // Flip one random bit in the value or mask of one random field of one
  // random non-default rule. Models TCAM hardware corruption; nullopt if
  // the table has no corruptible rule.
  std::optional<Corruption> corrupt_random_bit(Rng& rng);

  // Install an eviction policy (nullptr restores the built-in
  // lowest-priority behaviour). The policy object is owned by the table
  // and consulted by every subsequent evict_one.
  void set_eviction_policy(std::unique_ptr<EvictionPolicy> policy);
  [[nodiscard]] std::string_view eviction_policy_name() const noexcept;

  // Lifetime count of successful evictions (telemetry feed; monotone, not
  // rolled back by repair). Relaxed-atomic so the monitor's metrics
  // snapshot can read it while a pinned publisher thread is still evicting.
  [[nodiscard]] std::uint64_t evictions() const noexcept {
    return evictions_.load(std::memory_order_relaxed);
  }

  // --- exact-repair support (used by faults/repair_journal) -----------------

  // Remove exactly one rule bytewise-equal (priority included) to `rule`;
  // false when absent. remove_if would take every duplicate with it.
  bool remove_one(const TcamRule& rule);

  // Overwrite the one rule bytewise-equal to `from` with `to`. Equal
  // priorities are overwritten in place (position preserved, keeping the
  // sort invariant); a priority change falls back to remove_one + install.
  bool replace_one(const TcamRule& from, const TcamRule& to);

  // Evict one non-default rule as the local agent eviction mechanism
  // would: the victim comes from the installed EvictionPolicy, or from
  // the historical lowest-priority scan when none is set. Returns the
  // evicted rule.
  std::optional<TcamRule> evict_one();

  void clear() noexcept {
    rules_.clear();
    meta_.clear();
  }

 private:
  std::size_t capacity_;
  std::vector<TcamRule> rules_;  // invariant: sorted by priority ascending
  std::vector<RuleMeta> meta_;   // invariant: meta_[i] describes rules_[i]
  std::uint64_t next_stamp_ = 0;
  std::atomic<std::uint64_t> evictions_{0};
  std::unique_ptr<EvictionPolicy> policy_;  // null = lowest-priority
};

}  // namespace scout
