#include "src/controller/compiler.h"

#include <algorithm>
#include <stdexcept>

#include "src/tcam/range_expansion.h"

namespace scout {

const std::vector<LogicalRule>& CompiledPolicy::rules_for(SwitchId sw) const {
  static const std::vector<LogicalRule> kEmpty;
  const auto it = per_switch.find(sw);
  return it == per_switch.end() ? kEmpty : it->second;
}

std::uint64_t CompiledPolicy::rules_epoch(SwitchId sw) const {
  const auto it = rules_epochs.find(sw);
  return it == rules_epochs.end() ? 0 : it->second;
}

namespace {

// Emit both directions of one filter entry for one pair on one switch.
void emit_entry_rules(std::vector<LogicalRule>& out, const EpgPair& pair,
                      VrfId vrf, ContractId contract, FilterId filter,
                      std::uint32_t entry_index, const FilterEntry& entry,
                      SwitchId sw, std::uint32_t& priority) {
  const auto port_cubes =
      entry.single_port()
          ? std::vector<TernaryField>{TernaryField::exact(entry.port_lo,
                                                          FieldWidths::kPort)}
          : expand_port_range(entry.port_lo, entry.port_hi, FieldWidths::kPort);

  const TernaryField proto_field =
      entry.protocol == IpProtocol::kAny
          ? TernaryField::wildcard()
          : TernaryField::exact(static_cast<std::uint32_t>(entry.protocol),
                                FieldWidths::kProto);

  for (const bool reversed : {false, true}) {
    const EpgId src = reversed ? pair.b : pair.a;
    const EpgId dst = reversed ? pair.a : pair.b;
    for (const TernaryField& cube : port_cubes) {
      TcamRule rule;
      rule.priority = priority++;
      rule.vrf = TernaryField::exact(vrf.value(), FieldWidths::kVrf);
      rule.src_epg = TernaryField::exact(src.value(), FieldWidths::kEpg);
      rule.dst_epg = TernaryField::exact(dst.value(), FieldWidths::kEpg);
      rule.proto = proto_field;
      rule.dst_port = cube;
      rule.action = entry.action == FilterAction::kAllow ? RuleAction::kAllow
                                                         : RuleAction::kDeny;
      out.push_back(LogicalRule{
          rule, RuleProvenance{sw, pair, vrf, contract, filter, entry_index,
                               reversed}});
    }
    // Intra-EPG pair: one direction suffices.
    if (pair.a == pair.b) break;
  }
}

}  // namespace

std::vector<LogicalRule> PolicyCompiler::compile_filter_rules(
    const NetworkPolicy& policy, SwitchId sw, const EpgPair& pair,
    ContractId contract, FilterId filter, std::uint32_t& priority_cursor) {
  const VrfId vrf = policy.epg(pair.a).vrf;
  if (policy.epg(pair.b).vrf != vrf) {
    throw std::logic_error{"compile: EPG pair crosses VRFs"};
  }
  std::vector<LogicalRule> out;
  const Filter& f = policy.filter(filter);
  for (std::uint32_t e = 0; e < f.entries.size(); ++e) {
    emit_entry_rules(out, pair, vrf, contract, filter, e, f.entries[e], sw,
                     priority_cursor);
  }
  return out;
}

CompiledPolicy PolicyCompiler::compile(const NetworkPolicy& policy) {
  CompiledPolicy compiled;

  // pair -> contracts, deduped, in link order (deterministic priorities).
  std::unordered_map<EpgPair, std::vector<ContractId>> pair_contracts;
  std::vector<EpgPair> pair_order;
  for (const ContractLink& l : policy.links()) {
    const EpgPair pair{l.consumer, l.provider};
    auto& contracts = pair_contracts[pair];
    if (contracts.empty()) pair_order.push_back(pair);
    if (std::find(contracts.begin(), contracts.end(), l.contract) ==
        contracts.end()) {
      contracts.push_back(l.contract);
    }
  }

  // epg -> hosting switches, memoized (switches_hosting walks endpoints).
  std::unordered_map<EpgId, std::vector<SwitchId>> hosting;
  auto switches_of = [&](EpgId epg) -> const std::vector<SwitchId>& {
    auto [it, inserted] = hosting.try_emplace(epg);
    if (inserted) it->second = policy.switches_hosting(epg);
    return it->second;
  };

  std::unordered_map<SwitchId, std::uint32_t> priority_cursor;

  for (const EpgPair& pair : pair_order) {
    // Union of switches hosting either side: each gets the pair's rules.
    std::vector<SwitchId> switches = switches_of(pair.a);
    for (SwitchId sw : switches_of(pair.b)) {
      if (std::find(switches.begin(), switches.end(), sw) == switches.end()) {
        switches.push_back(sw);
      }
    }
    std::sort(switches.begin(), switches.end());

    for (SwitchId sw : switches) {
      auto& cursor = priority_cursor[sw];  // zero-initialized on first use
      auto& rules = compiled.per_switch[sw];
      for (ContractId c : pair_contracts[pair]) {
        for (FilterId f : policy.contract(c).filters) {
          auto filter_rules =
              compile_filter_rules(policy, sw, pair, c, f, cursor);
          rules.insert(rules.end(),
                       std::make_move_iterator(filter_rules.begin()),
                       std::make_move_iterator(filter_rules.end()));
        }
      }
    }
  }

  // Close every switch's ruleset with the implicit whitelist deny.
  for (auto& [sw, rules] : compiled.per_switch) {
    LogicalRule deny;
    deny.rule = TcamRule::default_deny(kDefaultDenyPriority);
    deny.prov.sw = sw;  // other provenance fields stay invalid: no object
    rules.push_back(deny);
  }
  return compiled;
}

}  // namespace scout
