#include "src/controller/controller.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "src/stream/event_bus.h"
#include "src/tcam/rule_key.h"

namespace scout {

void DeployStats::count(ApplyStatus s) noexcept {
  switch (s) {
    case ApplyStatus::kApplied:
      ++applied;
      break;
    case ApplyStatus::kLost:
      ++lost;
      break;
    case ApplyStatus::kCrashed:
      ++crashed;
      break;
    case ApplyStatus::kTcamOverflow:
      ++tcam_overflow;
      break;
  }
}

void Controller::recompile() {
  CompiledPolicy next = PolicyCompiler::compile(policy_);
  ++compile_epoch_;
  // A switch keeps its rule epoch while its rule vector compares equal
  // (rule and provenance: a verdict's missing rules carry provenance).
  // Every switch that had rules holds a stamp, so the old stamps plus the
  // new compilation's switches cover every switch either side names.
  const auto stamp = [&](SwitchId sw) {
    if (next.rules_epochs.contains(sw)) return;
    next.rules_epochs[sw] = compiled_.rules_for(sw) == next.rules_for(sw)
                                ? compiled_.rules_epoch(sw)
                                : compile_epoch_;
  };
  for (const auto& [sw, epoch] : compiled_.rules_epochs) stamp(sw);
  for (const auto& [sw, rules] : next.per_switch) stamp(sw);
  compiled_ = std::move(next);
  stream::StreamEvent ev;
  ev.type = stream::StreamEventType::kPolicyPushed;
  ev.time = clock_->now();
  ev.epoch = compile_epoch_;
  stream::publish_event(bus_, std::move(ev));
}

void Controller::attach_agents(std::vector<SwitchAgent*> agents) {
  for (SwitchAgent* a : agents) {
    if (a == nullptr) throw std::invalid_argument{"attach_agents: null agent"};
    agents_[a->id()] = a;
  }
}

SwitchAgent* Controller::agent(SwitchId sw) const {
  const auto it = agents_.find(sw);
  return it == agents_.end() ? nullptr : it->second;
}

void Controller::note_unreachable(SwitchId sw) {
  // One open fault record per unreachable episode.
  if (open_unreachable_.contains(sw)) return;
  const std::size_t idx =
      fault_log_.raise(clock_->now(), sw, FaultCode::kSwitchUnreachable,
                       FaultSeverity::kCritical,
                       "keepalive timeout: switch not responding");
  open_unreachable_[sw] = idx;
}

void Controller::push(SwitchAgent& agent, const Instruction& ins,
                      DeployStats& stats) {
  if (delay_profile_.active()) {
    // The gray channel ACKs at enqueue: the caller's stats book a
    // success now, the real outcome lands in delayed_stats_ when the
    // window delivers. That gap *is* the fault being modelled.
    stats.count(ApplyStatus::kApplied);
    in_flight_.emplace_back(agent.id(), ins);
    if (in_flight_.size() >= delay_profile_.window) deliver_window();
    return;
  }
  push_now(agent, ins, stats);
}

void Controller::push_now(SwitchAgent& agent, const Instruction& ins,
                          DeployStats& stats) {
  if (!channel_.connected(agent.id())) {
    // Instruction never reaches the device.
    stats.count(ApplyStatus::kLost);
    note_unreachable(agent.id());
    return;
  }
  const ApplyStatus status = agent.apply(ins, clock_->now());
  stats.count(status);
  if (status == ApplyStatus::kLost) note_unreachable(agent.id());
}

void Controller::deliver_window() {
  // Swap the batch out first: delivery must not interleave with new
  // enqueues if an apply ever pushes (it does not today, but the queue
  // being empty during delivery makes that a non-event, not a bug).
  std::vector<std::pair<SwitchId, Instruction>> batch;
  batch.swap(in_flight_);
  if (batch.size() > 1 && delay_rng_.chance(delay_profile_.reorder_rate)) {
    delay_rng_.shuffle(batch);
  }
  for (auto& [sw, ins] : batch) {
    SwitchAgent* a = agent(sw);
    if (a == nullptr) continue;
    push_now(*a, ins, delayed_stats_);
  }
}

void Controller::set_channel_delay(const ChannelDelayProfile& profile) {
  flush_delivery();
  delay_profile_ = profile;
  delay_rng_.reseed(profile.seed);
}

void Controller::flush_delivery() {
  if (!in_flight_.empty()) deliver_window();
}

DeployStats Controller::deploy_full() {
  DeployStats stats;
  // Change log: one 'add' per policy object, stamped in creation order.
  for (const auto& v : policy_.vrfs()) {
    change_log_.record(clock_->tick(), ObjectRef::of(v.id), ChangeAction::kAdd);
  }
  for (const auto& e : policy_.epgs()) {
    change_log_.record(clock_->tick(), ObjectRef::of(e.id), ChangeAction::kAdd);
  }
  for (const auto& f : policy_.filters()) {
    change_log_.record(clock_->tick(), ObjectRef::of(f.id), ChangeAction::kAdd);
  }
  for (const auto& c : policy_.contracts()) {
    change_log_.record(clock_->tick(), ObjectRef::of(c.id), ChangeAction::kAdd);
  }

  recompile();
  for (const auto& [sw, rules] : compiled_.per_switch) {
    SwitchAgent* a = agent(sw);
    if (a == nullptr) continue;  // endpoint on an unmanaged switch
    std::uint32_t max_priority = 0;
    for (const auto& lr : rules) {
      push(*a, Instruction{InstructionOp::kAddRule, lr}, stats);
      if (lr.rule.priority != PolicyCompiler::kDefaultDenyPriority) {
        max_priority = std::max(max_priority, lr.rule.priority + 1);
      }
    }
    next_priority_[sw] = max_priority;
  }
  return stats;
}

FilterId Controller::deploy_new_filter(std::string name,
                                       std::vector<FilterEntry> entries,
                                       ContractId contract,
                                       DeployStats* stats) {
  const FilterId filter =
      policy_.add_filter(std::move(name), std::move(entries));
  policy_.add_filter_to_contract(contract, filter);
  change_log_.record(clock_->tick(), ObjectRef::of(filter), ChangeAction::kAdd);
  change_log_.record(clock_->tick(), ObjectRef::of(contract),
                     ChangeAction::kModify);

  DeployStats local;
  DeployStats& s = stats != nullptr ? *stats : local;

  // Pairs using this contract, deduped.
  std::vector<EpgPair> pairs;
  for (const ContractLink& l : policy_.links()) {
    if (l.contract != contract) continue;
    const EpgPair p{l.consumer, l.provider};
    if (std::find(pairs.begin(), pairs.end(), p) == pairs.end()) {
      pairs.push_back(p);
    }
  }
  std::vector<SwitchId> touched;
  for (const EpgPair& pair : pairs) {
    for (SwitchId sw : policy_.switches_for_pair(pair)) {
      SwitchAgent* a = agent(sw);
      if (a == nullptr) continue;
      auto& cursor = next_priority_[sw];
      for (const LogicalRule& lr : PolicyCompiler::compile_filter_rules(
               policy_, sw, pair, contract, filter, cursor)) {
        push(*a, Instruction{InstructionOp::kAddRule, lr}, s);
      }
      if (std::find(touched.begin(), touched.end(), sw) == touched.end()) {
        touched.push_back(sw);
      }
    }
  }
  // Keep the compiled snapshot in sync for later L-T checks.
  recompile();
  return filter;
}

void Controller::undeploy_filter(ContractId contract, FilterId filter,
                                 DeployStats* stats) {
  DeployStats local;
  DeployStats& s = stats != nullptr ? *stats : local;

  // Push removals for every compiled rule of (contract, filter) before
  // mutating the policy, so the targets are still known.
  for (const auto& [sw, rules] : compiled_.per_switch) {
    SwitchAgent* a = agent(sw);
    if (a == nullptr) continue;
    for (const LogicalRule& lr : rules) {
      if (lr.prov.contract == contract && lr.prov.filter == filter) {
        push(*a, Instruction{InstructionOp::kRemoveRule, lr}, s);
      }
    }
  }
  policy_.remove_filter_from_contract(contract, filter);
  change_log_.record(clock_->tick(), ObjectRef::of(filter),
                     ChangeAction::kDelete);
  change_log_.record(clock_->tick(), ObjectRef::of(contract),
                     ChangeAction::kModify);
  recompile();
}

DeployStats Controller::migrate_endpoint(EndpointId ep, SwitchId to) {
  const SwitchId from = policy_.endpoint(ep).attached_switch;
  policy_.move_endpoint(ep, to);
  change_log_.record(clock_->tick(), ObjectRef::of(policy_.endpoint(ep).epg),
                     ChangeAction::kModify, {from, to});
  recompile();
  DeployStats stats = resync_switch(from);
  if (to != from) {
    const DeployStats added = resync_switch(to);
    stats.applied += added.applied;
    stats.lost += added.lost;
    stats.crashed += added.crashed;
    stats.tcam_overflow += added.tcam_overflow;
  }
  return stats;
}

DeployStats Controller::resync_switch(SwitchId sw) {
  DeployStats stats;
  SwitchAgent* a = agent(sw);
  if (a == nullptr) return stats;
  // Published before the wipe: the stream consumer sees "TCAM emptied"
  // first, then the reinstalls as the push events they are.
  stream::publish_event(
      bus_, stream::make_switch_event(
                stream::StreamEventType::kSwitchResynced, sw, clock_->now()));
  // Wipe device state, then replay. A real controller does this with a
  // state-transfer epoch; the observable effect is identical. The logical
  // view is cleared by removing each rule it holds (copy first: apply()
  // mutates the view).
  a->tcam().clear();
  const std::vector<LogicalRule> old_view(a->logical_view().begin(),
                                          a->logical_view().end());
  for (const LogicalRule& lr : old_view) {
    push(*a, Instruction{InstructionOp::kRemoveRule, lr}, stats);
  }
  for (const LogicalRule& lr : compiled_.rules_for(sw)) {
    push(*a, Instruction{InstructionOp::kAddRule, lr}, stats);
  }
  return stats;
}

DeployStats Controller::reinstall_rules(std::span<const LogicalRule> missing) {
  DeployStats stats;
  if (missing.empty()) return stats;

  // Distinct (switch, match key) targets plus one exemplar missing copy
  // per key, in first-seen order (deterministic push order). The diff can
  // report N copies of one key when the compiler emitted N duplicates and
  // the fault stripped them all; the old remove-then-add per *copy* left
  // exactly one installed (each remove takes every same-match copy with
  // it), so the syntactic multiset diff never converged.
  struct Target {
    SwitchId sw;
    // First-seen order (deterministic push order) + set form of the same
    // keys for membership tests during the compiled replay.
    std::vector<std::pair<RuleMatchKey, const LogicalRule*>> keys;
    std::unordered_set<RuleMatchKey, RuleMatchKeyHash> key_set;
  };
  std::vector<Target> targets;
  std::unordered_map<SwitchId, std::size_t> target_of;
  for (const LogicalRule& lr : missing) {
    const auto [it, fresh] = target_of.try_emplace(lr.prov.sw,
                                                   targets.size());
    if (fresh) targets.push_back(Target{lr.prov.sw, {}, {}});
    Target& target = targets[it->second];
    const RuleMatchKey key = RuleMatchKey::of(lr.rule);
    if (target.key_set.insert(key).second) {
      target.keys.emplace_back(key, &lr);
    }
  }

  for (const Target& target : targets) {
    SwitchAgent* a = agent(target.sw);
    if (a == nullptr) continue;
    // One remove per key clears every deployed/logical copy, then the
    // adds replay the *compiled* copies in compiled (priority) order, so
    // N duplicates come back as N rules with their original priorities.
    const auto& wanted = target.key_set;
    std::unordered_set<RuleMatchKey, RuleMatchKeyHash> compiled_keys;
    for (const auto& [key, exemplar] : target.keys) {
      push(*a, Instruction{InstructionOp::kRemoveRule, *exemplar}, stats);
    }
    for (const LogicalRule& lr : compiled_.rules_for(target.sw)) {
      const RuleMatchKey key = RuleMatchKey::of(lr.rule);
      if (!wanted.contains(key)) continue;
      compiled_keys.insert(key);
      push(*a, Instruction{InstructionOp::kAddRule, lr}, stats);
    }
    // Keys with no compiled counterpart (hand-installed rules in tests,
    // policy changed since the check): fall back to re-adding the reported
    // copy itself rather than silently dropping it.
    for (const auto& [key, exemplar] : target.keys) {
      if (!compiled_keys.contains(key)) {
        push(*a, Instruction{InstructionOp::kAddRule, *exemplar}, stats);
      }
    }
  }
  return stats;
}

void Controller::truncate_fault_log(std::size_t n) {
  fault_log_.truncate(n);
  std::erase_if(open_unreachable_,
                [n](const auto& entry) { return entry.second >= n; });
}

void Controller::record_benign_change(ObjectRef object) {
  change_log_.record(clock_->tick(), object, ChangeAction::kModify);
  stream::StreamEvent ev;
  ev.type = stream::StreamEventType::kPolicyChanged;
  ev.time = clock_->now();
  ev.object = object;
  stream::publish_event(bus_, std::move(ev));
}

void Controller::disconnect_switch(SwitchId sw) {
  channel_.disconnect(sw, clock_->now());
  stream::publish_event(
      bus_, stream::make_switch_event(stream::StreamEventType::kChannelDown,
                                      sw, clock_->now()));
}

void Controller::reconnect_switch(SwitchId sw) {
  channel_.reconnect(sw, clock_->now());
  const auto it = open_unreachable_.find(sw);
  if (it != open_unreachable_.end()) {
    fault_log_.clear(it->second, clock_->now());
    open_unreachable_.erase(it);
  }
  stream::publish_event(
      bus_, stream::make_switch_event(stream::StreamEventType::kChannelUp,
                                      sw, clock_->now()));
}

}  // namespace scout
