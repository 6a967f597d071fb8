// Centralized controller (APIC analogue): owns the authoritative network
// policy, compiles it, pushes instructions to switch agents, records every
// policy change in the change log, and monitors control-channel liveness
// (raising SWITCH_UNREACHABLE faults in its own fault log — paper §V-B
// "both maintained at the controller").
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/agent/switch_agent.h"
#include "src/common/rng.h"
#include "src/common/sim_clock.h"
#include "src/controller/compiler.h"
#include "src/policy/change_log.h"
#include "src/policy/network_policy.h"
#include "src/topology/fabric.h"

namespace scout {

namespace stream {
class EventBus;
}  // namespace stream

// Gray control channel: delayed/reordered delivery. With window > 0 every
// pushed instruction is ACKed into a bounded in-flight queue; each time
// `window` instructions accumulate the batch is delivered at once — in a
// seed-deterministic permutation with probability `reorder_rate` — so
// instructions land late and possibly out of order, across switches and
// within one switch's own sequence.
struct ChannelDelayProfile {
  std::size_t window = 0;      // 0 = immediate delivery (the default)
  double reorder_rate = 1.0;   // chance a full window is permuted
  std::uint64_t seed = 0;      // permutation stream seed

  [[nodiscard]] bool active() const noexcept { return window > 0; }
};

struct DeployStats {
  std::size_t applied = 0;
  std::size_t lost = 0;          // unresponsive agent / channel down
  std::size_t crashed = 0;       // agent crashed mid-batch
  std::size_t tcam_overflow = 0; // rejected by hardware

  [[nodiscard]] std::size_t total() const noexcept {
    return applied + lost + crashed + tcam_overflow;
  }
  void count(ApplyStatus s) noexcept;
};

class Controller {
 public:
  Controller(NetworkPolicy policy, SimClock& clock)
      : policy_(std::move(policy)), clock_(&clock) {}

  [[nodiscard]] SimTime now() const noexcept { return clock_->now(); }
  [[nodiscard]] SimClock& clock() noexcept { return *clock_; }

  [[nodiscard]] NetworkPolicy& policy() noexcept { return policy_; }
  [[nodiscard]] const NetworkPolicy& policy() const noexcept {
    return policy_;
  }
  [[nodiscard]] const ChangeLog& change_log() const noexcept {
    return change_log_;
  }
  [[nodiscard]] ChangeLog& change_log() noexcept { return change_log_; }
  [[nodiscard]] const FaultLog& fault_log() const noexcept {
    return fault_log_;
  }
  [[nodiscard]] ControlChannel& channel() noexcept { return channel_; }
  [[nodiscard]] const ControlChannel& channel() const noexcept {
    return channel_;
  }
  [[nodiscard]] const CompiledPolicy& compiled() const noexcept {
    return compiled_;
  }
  // Monotonic compilation counter: bumped every time `compiled()` is
  // regenerated. Consumers caching work derived from the whole compiled
  // policy (the monitor's risk model, LogicalBddCache) key it by this
  // epoch so a recompile invalidates them; per-switch work keys by
  // `compiled().rules_epoch(sw)` instead, which moves only with that
  // switch's rules.
  [[nodiscard]] std::uint64_t compiled_epoch() const noexcept {
    return compile_epoch_;
  }

  // Register the agents the controller manages (non-owning).
  void attach_agents(std::vector<SwitchAgent*> agents);
  [[nodiscard]] SwitchAgent* agent(SwitchId sw) const;

  // Continuous-verification hook (src/stream): while attached, compiled-
  // policy pushes (epoch bumps), switch resyncs, benign change records and
  // control-channel transitions publish typed events. nullptr detaches.
  void attach_event_bus(stream::EventBus* bus) noexcept { bus_ = bus; }

  // Compile the entire policy and push every rule to every agent. Records
  // one change-log 'add' per policy object. Idempotent on agent state only
  // if agents are empty beforehand.
  DeployStats deploy_full();

  // Re-run the compiler against the current policy without pushing
  // (used by collectors/checkers that need fresh L-rules). Bumps the
  // compiled epoch and publishes a policy-push event when a bus is
  // attached. It is the only writer of the per-switch rule epochs: a
  // switch whose rules compare equal (rule and provenance) keeps its
  // stamp, every other switch of the old or new compilation (one whose
  // rules all vanished included) gets the new epoch. So resident logical
  // BDDs can never serve a stale compilation, and a recompile of an
  // unchanged policy invalidates none of the stream monitor's.
  void recompile();

  // -- incremental operations (the §V-B use cases) ----------------------------

  // Create a new filter, attach it to `contract`, compile the resulting
  // rules for every pair using the contract, and push them.
  FilterId deploy_new_filter(std::string name, std::vector<FilterEntry> entries,
                             ContractId contract, DeployStats* stats = nullptr);

  // Record-only mutation: mark an object as recently modified (models an
  // admin action whose rules are unchanged or pushed elsewhere).
  void record_benign_change(ObjectRef object);

  // Remove a filter from a contract and push the corresponding rule
  // removals to the affected switches.
  void undeploy_filter(ContractId contract, FilterId filter,
                       DeployStats* stats = nullptr);

  // VM migration: re-attach `ep` to `to`, recompile, and resync the two
  // switches whose rule sets changed (the old and the new attachment
  // points). Returns combined push statistics.
  DeployStats migrate_endpoint(EndpointId ep, SwitchId to);

  // -- control-channel management ---------------------------------------------
  void disconnect_switch(SwitchId sw);
  void reconnect_switch(SwitchId sw);

  // -- state reconciliation -----------------------------------------------------
  // Full resync of one switch: wipe its TCAM and logical view and replay
  // the compiled ruleset. This is how a production controller recovers a
  // reconnected or replaced device. Returns push statistics.
  DeployStats resync_switch(SwitchId sw);

  // Stopgap remediation (paper §III-C: "simply reinstalling those missing
  // rules is a stopgap, not a fundamental solution"): restore the compiled
  // rule multiset for every (switch, match key) the missing rules name,
  // without a full resync. The compiler can emit N identical-match rules
  // for one key (same filter reached through several contracts); replaying
  // the compiled copies — rather than remove-then-add per missing copy —
  // makes one pass converge even when all N duplicates were stripped.
  DeployStats reinstall_rules(std::span<const LogicalRule> missing);

  // -- delayed/reordered delivery (gray channel) ------------------------------

  // Switch delivery mode. Pending instructions are flushed under the
  // *old* profile first (a mode change is a config action, not a way to
  // lose traffic), then the permutation stream is reseeded. The default
  // profile restores immediate delivery.
  void set_channel_delay(const ChannelDelayProfile& profile);
  [[nodiscard]] const ChannelDelayProfile& channel_delay() const noexcept {
    return delay_profile_;
  }

  // Deliver everything still in flight (one final, possibly permuted,
  // short batch). No-op when the queue is empty.
  void flush_delivery();

  // Outcomes of delayed deliveries. While the delay mode is active the
  // caller's DeployStats are ACK counts (every push books kApplied at
  // enqueue — that is the lie the gray channel tells); the statuses the
  // agents actually returned at delivery time accumulate here.
  [[nodiscard]] const DeployStats& delayed_stats() const noexcept {
    return delayed_stats_;
  }

  // Truncate the controller's own fault log to `n` records, forgetting
  // open unreachable episodes recorded at or after the watermark (repair-
  // journal support; a later loss to the same switch re-raises cleanly).
  void truncate_fault_log(std::size_t n);

 private:
  // Push one instruction to one agent. Immediate mode delivers through
  // push_now; delay mode ACKs into the in-flight queue and delivers full
  // windows. Updates stats and raises unreachable faults on loss.
  void push(SwitchAgent& agent, const Instruction& ins, DeployStats& stats);
  // Actual delivery honouring channel state at delivery time.
  void push_now(SwitchAgent& agent, const Instruction& ins,
                DeployStats& stats);
  void deliver_window();
  void note_unreachable(SwitchId sw);

  NetworkPolicy policy_;
  SimClock* clock_;
  stream::EventBus* bus_ = nullptr;
  ChangeLog change_log_;
  FaultLog fault_log_;
  ControlChannel channel_;
  CompiledPolicy compiled_;
  std::uint64_t compile_epoch_ = 0;
  std::unordered_map<SwitchId, SwitchAgent*> agents_;
  std::unordered_map<SwitchId, std::uint32_t> next_priority_;
  std::unordered_map<SwitchId, std::size_t> open_unreachable_;
  ChannelDelayProfile delay_profile_;
  Rng delay_rng_{0};
  std::vector<std::pair<SwitchId, Instruction>> in_flight_;
  DeployStats delayed_stats_;
};

}  // namespace scout
