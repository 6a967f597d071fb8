// Record-and-undo journal for fault injection: exact repair of a deployed
// SimNetwork.
//
// The accuracy sweeps (paper §VI) evaluate one fixed fabric under
// different fault injections — every grid cell used to rebuild a
// byte-identical network just to damage it differently. The journal makes
// the rebuild unnecessary: arm() captures watermarks over every mutable
// log plus the clock and each agent's fault flags, the injectors record
// every TCAM mutation as they apply it, and repair() plays the rule ops
// back in reverse and truncates the logs — leaving the network
// bit-identical (SimNetwork::state_fingerprint) to the freshly deployed
// baseline. tests/test_network_repair.cpp proves that identity
// differentially over randomized fault sequences; the sweep cache in
// scout/experiment.* is built on it.
//
// Domain: TCAM rule removals / additions / modifications (priorities and
// actions included), agent fault flags (crash, responsiveness, VRF-rewrite
// bug, gray-fault profiles), agent and controller fault logs, the
// controller change log, control-channel outages raised after arm(), the
// simulation clock, and — via snapshot_agent() — whole-agent TCAM +
// logical-view images, which covers scenarios whose per-op damage is
// impractical to record (gray resyncs, reordered delivery, storm
// episodes). Outside the domain: policy mutations (deploy_new_filter,
// undeploy_filter, migrate_endpoint), logical-view edits from live pushes
// on *unsnapshotted* agents, and in-place edits of pre-watermark records
// (recover()/reconnect_switch() clearing an old fault record or closing a
// pre-arm outage). Cells that perform those must rebuild, not repair —
// the sweep cache verifies fingerprints and falls back to a rebuild if a
// repair ever diverges.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/agent/switch_agent.h"
#include "src/scout/sim_network.h"

namespace scout {

class RepairJournal {
 public:
  // Capture the pre-injection watermarks. The journal must be disarmed
  // (fresh, or after a repair()); arming twice without repairing is a
  // sequencing bug and throws.
  void arm(SimNetwork& net);
  [[nodiscard]] bool armed() const noexcept { return net_ != nullptr; }
  [[nodiscard]] std::size_t rule_ops() const noexcept { return ops_.size(); }

  // Recording hooks, called by the injectors as they mutate TCAM state.
  // No-ops while disarmed, so injector code does not need to branch.
  void note_removed(SwitchId sw, const TcamRule& rule);
  void note_added(SwitchId sw, const TcamRule& rule);
  void note_modified(SwitchId sw, const TcamRule& before,
                     const TcamRule& after);

  // Record a full image of one agent's TCAM and logical view. Scenario
  // drivers whose damage is not expressible as per-rule ops (gray
  // resyncs, reordered delivery, storm episodes replaying the compiled
  // policy through lying devices) snapshot each agent they will touch
  // *before* touching it; undo restores the images wholesale. Snapshots
  // interleave with rule ops in strict LIFO, so duplicate snapshots of
  // one agent are fine — the earliest (pre-damage) image is restored
  // last. No-op while disarmed, like the note_* hooks.
  void snapshot_agent(SimNetwork& net, SwitchId sw);

  // Undo only the recorded TCAM rule ops (newest first) and forget them;
  // watermarks stay armed. This is the gamma driver's per-iteration clean
  // slate: each fault is undone before the next lands, while the change
  // log and clock keep accumulating shard history.
  void undo_rule_ops(SimNetwork& net);

  // Full exact repair: undo the rule ops, restore every agent's fault
  // flags, truncate agent/controller fault logs and the change log to the
  // watermarks, and reset the clock. Disarms the journal.
  void repair(SimNetwork& net);

  // Lifetime totals across arm/undo/repair cycles (rule_ops() is only the
  // currently armed window).
  struct Stats {
    std::uint64_t ops_recorded = 0;
    std::uint64_t ops_undone = 0;
    std::uint64_t undo_failures = 0;  // op no longer undoable
    std::uint64_t repairs = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  struct AgentSnapshot {
    std::vector<TcamRule> tcam;      // in table (priority) order
    std::vector<LogicalRule> view;
  };
  struct RuleOp {
    enum class Kind : std::uint8_t {
      kRemoved,
      kAdded,
      kModified,
      kAgentSnapshot
    };
    Kind kind = Kind::kRemoved;
    SwitchId sw;
    TcamRule before;  // kRemoved: the removed rule; kModified: pre-image
    TcamRule after;   // kAdded: the added rule; kModified: post-image
    std::unique_ptr<AgentSnapshot> snapshot;  // kAgentSnapshot only
  };
  struct AgentMark {
    SwitchAgent::FaultState fault_state;
    std::size_t fault_log_size = 0;
  };

  void check_same_net(const SimNetwork& net) const;

  SimNetwork* net_ = nullptr;  // non-null while armed
  SimTime clock_mark_;
  std::size_t change_log_mark_ = 0;
  std::size_t controller_fault_log_mark_ = 0;
  std::size_t channel_mark_ = 0;  // outage count at arm()
  std::vector<AgentMark> agent_marks_;  // in net.agents() order
  std::vector<RuleOp> ops_;
  Stats stats_;
};

}  // namespace scout
