// Policy compiler: renders the abstract network policy into per-switch
// logical (L-type) rules (paper §II-A "network policy deployment").
//
// For every EPG pair with at least one contract link, and for every switch
// hosting an endpoint of either EPG, the compiler emits — per contract, per
// filter, per filter entry, per direction — one TCAM rule per ternary cube
// of the entry's port range. Rule priorities are assigned in deterministic
// emission order; a catch-all deny closes each switch's ruleset (whitelist
// model, Figure 2 rule 7).
//
// A CompiledPolicy also carries one rule epoch per switch, which the
// controller stamps at each recompile: a push moves only the epochs of the
// switches whose compiled rules it changed.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/checker/logical_rule.h"
#include "src/policy/network_policy.h"

namespace scout {

struct CompiledPolicy {
  // L-rules per switch, priority-ascending, catch-all deny last.
  std::unordered_map<SwitchId, std::vector<LogicalRule>> per_switch;
  // Per-switch rule epochs, read through rules_epoch(). Stamped by
  // Controller::recompile() only; compile() leaves this empty.
  std::unordered_map<SwitchId, std::uint64_t> rules_epochs;

  [[nodiscard]] std::size_t total_rules() const noexcept {
    std::size_t n = 0;
    for (const auto& [sw, rules] : per_switch) n += rules.size();
    return n;
  }
  [[nodiscard]] const std::vector<LogicalRule>& rules_for(SwitchId sw) const;
  // The compiled epoch at which rules_for(sw) last changed (rule and
  // provenance; losing every rule counts), or 0 if `sw` never had rules.
  // Work derived from rules_for(sw) (the stream checker's resident L)
  // keys by this, so a push costs only the switches it changed.
  [[nodiscard]] std::uint64_t rules_epoch(SwitchId sw) const;
};

class PolicyCompiler {
 public:
  // Priority reserved for the catch-all deny (always the largest).
  static constexpr std::uint32_t kDefaultDenyPriority = 0xFFFFFFFFU;

  [[nodiscard]] static CompiledPolicy compile(const NetworkPolicy& policy);

  // Rules for one (pair, contract, filter) triple on one switch — the unit
  // of incremental deployment when a filter is added to a live contract.
  [[nodiscard]] static std::vector<LogicalRule> compile_filter_rules(
      const NetworkPolicy& policy, SwitchId sw, const EpgPair& pair,
      ContractId contract, FilterId filter, std::uint32_t& priority_cursor);
};

}  // namespace scout
