#include "src/checker/equivalence_checker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <tuple>
#include <vector>

#include "src/checker/packet_encoding.h"
#include "src/common/rng.h"
#include "src/controller/compiler.h"
#include "src/workload/three_tier.h"

namespace scout {
namespace {

// Compile the 3-tier policy and return (L-rules, matching T-rules) for S2.
struct Deployed {
  std::vector<LogicalRule> logical;
  std::vector<TcamRule> tcam;
};

Deployed deploy_s2() {
  const ThreeTierNetwork net = make_three_tier();
  const CompiledPolicy compiled = PolicyCompiler::compile(net.policy);
  Deployed d;
  d.logical = compiled.rules_for(net.s2);
  for (const LogicalRule& lr : d.logical) d.tcam.push_back(lr.rule);
  return d;
}

class CheckerModes : public ::testing::TestWithParam<CheckMode> {};

TEST_P(CheckerModes, CleanDeploymentIsEquivalent) {
  const Deployed d = deploy_s2();
  const EquivalenceChecker checker{GetParam()};
  const CheckResult result = checker.check(d.logical, d.tcam);
  EXPECT_TRUE(result.equivalent);
  EXPECT_TRUE(result.missing.empty());
}

TEST_P(CheckerModes, SingleMissingRuleIsReported) {
  Deployed d = deploy_s2();
  // Remove the first allow rule from the TCAM.
  const auto it = std::find_if(
      d.tcam.begin(), d.tcam.end(),
      [](const TcamRule& r) { return r.action == RuleAction::kAllow; });
  ASSERT_NE(it, d.tcam.end());
  const TcamRule removed = *it;
  d.tcam.erase(it);

  const EquivalenceChecker checker{GetParam()};
  const CheckResult result = checker.check(d.logical, d.tcam);
  EXPECT_FALSE(result.equivalent);
  ASSERT_EQ(result.missing.size(), 1u);
  EXPECT_TRUE(result.missing[0].rule.same_match(removed));
  // Provenance identifies the affected pair and objects.
  EXPECT_TRUE(result.missing[0].prov.contract.valid());
}

TEST_P(CheckerModes, AllRulesMissingReportsEveryAllowRule) {
  Deployed d = deploy_s2();
  const std::size_t allow_count = static_cast<std::size_t>(
      std::count_if(d.logical.begin(), d.logical.end(),
                    [](const LogicalRule& lr) {
                      return lr.rule.action == RuleAction::kAllow;
                    }));
  d.tcam.clear();
  const EquivalenceChecker checker{GetParam()};
  const CheckResult result = checker.check(d.logical, d.tcam);
  EXPECT_FALSE(result.equivalent);
  EXPECT_EQ(result.missing.size(), allow_count);
}

TEST_P(CheckerModes, ExtraRuleDetected) {
  Deployed d = deploy_s2();
  const TcamRule stale = TcamRule::exact_allow(
      500, 3000, 99, 98, 6, TernaryField::exact(1234, FieldWidths::kPort));
  d.tcam.push_back(stale);
  const EquivalenceChecker checker{GetParam()};
  const CheckResult result = checker.check(d.logical, d.tcam);
  EXPECT_FALSE(result.equivalent);
  EXPECT_TRUE(result.missing.empty());
  EXPECT_GT(result.extra_packet_count, 0.0);
  ASSERT_EQ(result.extra_rules.size(), 1u);
  EXPECT_TRUE(result.extra_rules[0].same_match(stale));
}

TEST_P(CheckerModes, DuplicatedDeployedRuleIsNotExtra) {
  // A duplicate of a legitimate rule allows no packets beyond L. The BDD
  // mode correctly ignores it; the syntactic mode flags the surplus entry
  // (a real operational signal: duplicated TCAM entries waste space).
  Deployed d = deploy_s2();
  const auto it = std::find_if(
      d.tcam.begin(), d.tcam.end(),
      [](const TcamRule& r) { return r.action == RuleAction::kAllow; });
  ASSERT_NE(it, d.tcam.end());
  d.tcam.push_back(*it);
  const EquivalenceChecker checker{GetParam()};
  const CheckResult result = checker.check(d.logical, d.tcam);
  if (GetParam() == CheckMode::kExactBdd) {
    EXPECT_TRUE(result.equivalent);
    EXPECT_TRUE(result.extra_rules.empty());
  } else {
    EXPECT_FALSE(result.equivalent);
    EXPECT_EQ(result.extra_rules.size(), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, CheckerModes,
                         ::testing::Values(CheckMode::kExactBdd,
                                           CheckMode::kSyntactic),
                         [](const auto& info) {
                           return info.param == CheckMode::kExactBdd
                                      ? "ExactBdd"
                                      : "Syntactic";
                         });

TEST(EquivalenceChecker, SyntacticIdenticalFastPath) {
  const Deployed d = deploy_s2();
  EXPECT_TRUE(EquivalenceChecker::syntactically_identical(d.logical, d.tcam));
  auto shuffled = d.tcam;
  std::rotate(shuffled.begin(), shuffled.begin() + 2, shuffled.end());
  EXPECT_TRUE(
      EquivalenceChecker::syntactically_identical(d.logical, shuffled));
}

TEST(EquivalenceChecker, SyntacticIdenticalRejectsMissingAndExtra) {
  Deployed d = deploy_s2();
  auto missing_one = d.tcam;
  missing_one.pop_back();
  EXPECT_FALSE(
      EquivalenceChecker::syntactically_identical(d.logical, missing_one));
  auto extra_one = d.tcam;
  extra_one.push_back(TcamRule::exact_allow(
      600, 1, 1, 1, 6, TernaryField::exact(1, FieldWidths::kPort)));
  EXPECT_FALSE(
      EquivalenceChecker::syntactically_identical(d.logical, extra_one));
}

// The semantic difference between modes: a missing rule whose packets are
// fully covered by another *present* rule is a syntactic diff but not a
// semantic one. The BDD mode must stay quiet; the syntactic mode reports it.
TEST(EquivalenceChecker, BddModeIgnoresShadowedMissingRule) {
  Deployed d = deploy_s2();
  // Add a broad allow rule to L and T that covers everything in the VRF
  // (id 0) between App(1) and DB(2) on any port...
  TcamRule broad;
  broad.priority = 400;
  broad.vrf = TernaryField::exact(0, FieldWidths::kVrf);
  broad.src_epg = TernaryField::exact(1, FieldWidths::kEpg);
  broad.dst_epg = TernaryField::exact(2, FieldWidths::kEpg);
  broad.proto = TernaryField::wildcard();
  broad.dst_port = TernaryField::wildcard();
  broad.action = RuleAction::kAllow;
  LogicalRule broad_lr;
  broad_lr.rule = broad;
  broad_lr.prov = d.logical.front().prov;
  d.logical.push_back(broad_lr);
  d.tcam.push_back(broad);

  // ...then drop the narrow App->DB port-80 rule from the TCAM only.
  const auto narrow = std::find_if(
      d.tcam.begin(), d.tcam.end(), [](const TcamRule& r) {
        return r.action == RuleAction::kAllow &&
               r.src_epg.value == 1 && r.dst_epg.value == 2 &&
               r.dst_port.value == 80;
      });
  ASSERT_NE(narrow, d.tcam.end());
  d.tcam.erase(narrow);

  const CheckResult bdd =
      EquivalenceChecker{CheckMode::kExactBdd}.check(d.logical, d.tcam);
  EXPECT_TRUE(bdd.equivalent) << "broad rule shadows the missing narrow one";

  const CheckResult syn =
      EquivalenceChecker{CheckMode::kSyntactic}.check(d.logical, d.tcam);
  EXPECT_FALSE(syn.equivalent);
  EXPECT_EQ(syn.missing.size(), 1u);
}

TEST(EquivalenceChecker, MissingPacketCountMatchesRuleWidth) {
  Deployed d = deploy_s2();
  // Drop one exact (single-packet) allow rule.
  const auto it = std::find_if(
      d.tcam.begin(), d.tcam.end(),
      [](const TcamRule& r) { return r.action == RuleAction::kAllow; });
  d.tcam.erase(it);
  const CheckResult result =
      EquivalenceChecker{CheckMode::kExactBdd}.check(d.logical, d.tcam);
  EXPECT_DOUBLE_EQ(result.missing_packet_count, 1.0);
  EXPECT_DOUBLE_EQ(result.extra_packet_count, 0.0);
}

TEST(EquivalenceChecker, EmptyBothSidesIsEquivalent) {
  const EquivalenceChecker checker{CheckMode::kExactBdd};
  const CheckResult result = checker.check({}, {});
  EXPECT_TRUE(result.equivalent);
}

// ---------------------------------------------------------------------------
// Differential: the engine rewrite against a textbook reference
// ---------------------------------------------------------------------------
//
// A deliberately naive map-based ROBDD without complement edges — the old
// engine's semantics, reimplemented independently so the rewritten
// complement-edge engine is checked against a reference build of the
// result, not against itself.
class RefBdd {
 public:
  explicit RefBdd(std::uint32_t var_count) : var_count_(var_count) {
    nodes_.push_back({var_count, 0, 0});  // 0 = false
    nodes_.push_back({var_count, 1, 1});  // 1 = true
  }

  std::uint32_t apply_and(std::uint32_t a, std::uint32_t b) {
    return apply(0, a, b);
  }
  std::uint32_t apply_or(std::uint32_t a, std::uint32_t b) {
    return apply(1, a, b);
  }
  std::uint32_t negate(std::uint32_t a) {
    if (a <= 1) return 1 - a;
    const auto key = std::tuple{2, a, 0U};
    if (const auto it = op_memo_.find(key); it != op_memo_.end()) {
      return it->second;
    }
    const Node n = nodes_[a];
    const std::uint32_t r = mk(n.var, negate(n.low), negate(n.high));
    op_memo_[key] = r;
    return r;
  }
  std::uint32_t ite(std::uint32_t f, std::uint32_t g, std::uint32_t h) {
    return apply_or(apply_and(f, g), apply_and(negate(f), h));
  }
  std::uint32_t cube(BddCube literals) {
    std::sort(literals.begin(), literals.end(),
              [](const BddLiteral& a, const BddLiteral& b) {
                return a.var > b.var;
              });
    std::uint32_t acc = 1;
    for (const auto& lit : literals) {
      acc = lit.positive ? mk(lit.var, 0, acc) : mk(lit.var, acc, 0);
    }
    return acc;
  }
  std::uint32_t ruleset(std::span<const TcamRule> rules) {
    std::vector<std::size_t> order(rules.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&rules](std::size_t a, std::size_t b) {
                       return rules[a].priority > rules[b].priority;
                     });
    std::uint32_t acc = 0;
    for (const std::size_t idx : order) {
      const std::uint32_t match = cube(rule_to_cube(rules[idx]));
      acc = ite(match, rules[idx].action == RuleAction::kAllow ? 1U : 0U,
                acc);
    }
    return acc;
  }
  bool intersects(std::uint32_t f, const BddCube& partial) {
    std::vector<std::int8_t> phase(var_count_, -1);
    for (const auto& lit : partial) phase[lit.var] = lit.positive ? 1 : 0;
    std::vector<std::uint32_t> stack{f};
    std::map<std::uint32_t, bool> seen;
    while (!stack.empty()) {
      const std::uint32_t cur = stack.back();
      stack.pop_back();
      if (cur == 1) return true;
      if (cur == 0 || seen[cur]) continue;
      seen[cur] = true;
      const Node& n = nodes_[cur];
      if (phase[n.var] != 1) stack.push_back(n.low);
      if (phase[n.var] != 0) stack.push_back(n.high);
    }
    return false;
  }
  double sat_count(std::uint32_t f) {
    std::map<std::uint32_t, double> memo;
    const auto rec = [&](auto&& self, std::uint32_t r) -> double {
      if (r == 0) return 0.0;
      if (r == 1) return 1.0;
      if (const auto it = memo.find(r); it != memo.end()) return it->second;
      const Node& n = nodes_[r];
      const double lo =
          self(self, n.low) *
          std::pow(2.0, static_cast<double>(nodes_[n.low].var - n.var - 1));
      const double hi =
          self(self, n.high) *
          std::pow(2.0, static_cast<double>(nodes_[n.high].var - n.var - 1));
      memo[r] = lo + hi;
      return lo + hi;
    };
    const std::uint32_t top = f <= 1 ? var_count_ : nodes_[f].var;
    return rec(rec, f) * std::pow(2.0, static_cast<double>(top));
  }

 private:
  struct Node {
    std::uint32_t var, low, high;
  };

  std::uint32_t mk(std::uint32_t v, std::uint32_t lo, std::uint32_t hi) {
    if (lo == hi) return lo;
    const auto key = std::tuple{v, lo, hi};
    if (const auto it = unique_.find(key); it != unique_.end()) {
      return it->second;
    }
    nodes_.push_back({v, lo, hi});
    const auto r = static_cast<std::uint32_t>(nodes_.size() - 1);
    unique_[key] = r;
    return r;
  }
  std::uint32_t apply(int op, std::uint32_t a, std::uint32_t b) {
    if (op == 0) {
      if (a == 0 || b == 0) return 0;
      if (a == 1) return b;
      if (b == 1) return a;
    } else {
      if (a == 1 || b == 1) return 1;
      if (a == 0) return b;
      if (b == 0) return a;
    }
    if (a == b) return a;
    if (a > b) std::swap(a, b);
    const auto key = std::tuple{op, a, b};
    if (const auto it = op_memo_.find(key); it != op_memo_.end()) {
      return it->second;
    }
    const Node na = nodes_[a];
    const Node nb = nodes_[b];
    const std::uint32_t v = std::min(na.var, nb.var);
    const std::uint32_t a_lo = na.var == v ? na.low : a;
    const std::uint32_t a_hi = na.var == v ? na.high : a;
    const std::uint32_t b_lo = nb.var == v ? nb.low : b;
    const std::uint32_t b_hi = nb.var == v ? nb.high : b;
    const std::uint32_t r =
        mk(v, apply(op, a_lo, b_lo), apply(op, a_hi, b_hi));
    op_memo_[key] = r;
    return r;
  }

  std::uint32_t var_count_;
  std::vector<Node> nodes_;
  std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>,
           std::uint32_t>
      unique_;
  std::map<std::tuple<int, std::uint32_t, std::uint32_t>, std::uint32_t>
      op_memo_;
};

// The old check_bdd result, computed through the reference engine.
struct RefCheck {
  bool equivalent = true;
  std::vector<std::size_t> missing_idx;
  std::vector<std::size_t> extra_idx;
  double missing_count = 0.0;
  double extra_count = 0.0;
};

RefCheck ref_check(std::span<const LogicalRule> logical,
                   std::span<const TcamRule> deployed) {
  RefBdd bdd{PacketVars::kCount};
  std::vector<TcamRule> l_rules;
  for (const auto& lr : logical) l_rules.push_back(lr.rule);
  const std::uint32_t l = bdd.ruleset(l_rules);
  const std::uint32_t t = bdd.ruleset(deployed);
  RefCheck out;
  if (l == t) return out;
  out.equivalent = false;
  const std::uint32_t missing_space = bdd.apply_and(l, bdd.negate(t));
  const std::uint32_t extra_space = bdd.apply_and(t, bdd.negate(l));
  out.missing_count = bdd.sat_count(missing_space);
  out.extra_count = bdd.sat_count(extra_space);
  for (std::size_t i = 0; i < logical.size(); ++i) {
    if (logical[i].rule.action != RuleAction::kAllow) continue;
    if (bdd.intersects(missing_space, rule_to_cube(logical[i].rule))) {
      out.missing_idx.push_back(i);
    }
  }
  for (std::size_t i = 0; i < deployed.size(); ++i) {
    if (deployed[i].action != RuleAction::kAllow) continue;
    if (bdd.intersects(extra_space, rule_to_cube(deployed[i]))) {
      out.extra_idx.push_back(i);
    }
  }
  return out;
}

// Random overlapping rulesets: exact and wildcarded fields, mixed actions,
// then a perturbed deployment (dropped, duplicated and stale rules).
struct RandomDeployment {
  std::vector<LogicalRule> logical;
  std::vector<TcamRule> deployed;
};

RandomDeployment random_deployment(std::uint64_t seed) {
  Rng rng{seed};
  RandomDeployment d;
  const std::size_t n = 24 + rng.below(24);
  for (std::size_t i = 0; i < n; ++i) {
    TcamRule r;
    r.priority = static_cast<std::uint32_t>(i);
    r.vrf = TernaryField::exact(static_cast<std::uint32_t>(rng.below(2)),
                                FieldWidths::kVrf);
    r.src_epg = rng.chance(0.15)
                    ? TernaryField::wildcard()
                    : TernaryField::exact(
                          static_cast<std::uint32_t>(rng.below(6)),
                          FieldWidths::kEpg);
    r.dst_epg = rng.chance(0.15)
                    ? TernaryField::wildcard()
                    : TernaryField::exact(
                          static_cast<std::uint32_t>(rng.below(6)),
                          FieldWidths::kEpg);
    r.proto = TernaryField::exact(6, FieldWidths::kProto);
    r.dst_port = rng.chance(0.3)
                     ? TernaryField::wildcard()
                     : TernaryField::exact(
                           static_cast<std::uint32_t>(rng.below(8)),
                           FieldWidths::kPort);
    r.action = rng.chance(0.8) ? RuleAction::kAllow : RuleAction::kDeny;
    LogicalRule lr;
    lr.rule = r;
    lr.prov.sw = SwitchId{1};
    lr.prov.contract = ContractId{static_cast<std::uint32_t>(i + 1)};
    d.logical.push_back(lr);
    if (!rng.chance(0.15)) d.deployed.push_back(r);  // 15%: dropped
    if (rng.chance(0.1)) d.deployed.push_back(r);    // 10%: duplicated
  }
  // Stale device-only rules.
  for (std::size_t i = 0; i < 3; ++i) {
    TcamRule stale;
    stale.priority = 1000 + static_cast<std::uint32_t>(i);
    stale.vrf = TernaryField::exact(3, FieldWidths::kVrf);
    stale.src_epg = TernaryField::exact(
        static_cast<std::uint32_t>(40 + rng.below(4)), FieldWidths::kEpg);
    stale.dst_epg = TernaryField::exact(50, FieldWidths::kEpg);
    stale.proto = TernaryField::exact(6, FieldWidths::kProto);
    stale.dst_port = TernaryField::wildcard();
    stale.action = RuleAction::kAllow;
    d.deployed.push_back(stale);
  }
  d.logical.push_back(LogicalRule{TcamRule::default_deny(0xFFFFFFFF), {}});
  d.deployed.push_back(TcamRule::default_deny(0xFFFFFFFF));
  return d;
}

class CheckerDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CheckerDifferential, NewEngineMatchesReferenceSemantics) {
  const RandomDeployment d = random_deployment(GetParam());
  const RefCheck ref = ref_check(d.logical, d.deployed);
  const CheckResult got =
      EquivalenceChecker{CheckMode::kExactBdd}.check(d.logical, d.deployed);

  EXPECT_EQ(got.equivalent, ref.equivalent);
  ASSERT_EQ(got.missing.size(), ref.missing_idx.size());
  for (std::size_t i = 0; i < ref.missing_idx.size(); ++i) {
    EXPECT_EQ(got.missing[i].rule, d.logical[ref.missing_idx[i]].rule);
  }
  ASSERT_EQ(got.extra_rules.size(), ref.extra_idx.size());
  for (std::size_t i = 0; i < ref.extra_idx.size(); ++i) {
    EXPECT_EQ(got.extra_rules[i], d.deployed[ref.extra_idx[i]]);
  }
  // Counts can exceed 2^53 (68-variable space): compare with a relative
  // tolerance, the two engines order their float sums differently.
  EXPECT_NEAR(got.missing_packet_count, ref.missing_count,
              1e-9 * std::max(1.0, ref.missing_count));
  EXPECT_NEAR(got.extra_packet_count, ref.extra_count,
              1e-9 * std::max(1.0, ref.extra_count));
}

TEST_P(CheckerDifferential, CachedArenaCheckIsBitIdenticalToFresh) {
  const RandomDeployment d = random_deployment(GetParam());
  const EquivalenceChecker checker{CheckMode::kExactBdd};
  const CheckResult fresh = checker.check(d.logical, d.deployed);

  LogicalBddCache cache{1};
  EquivalenceChecker::BddCheckContext ctx;
  ctx.cache = &cache;
  ctx.worker = 0;
  ctx.sw = SwitchId{1};
  ctx.key = 7;

  // Repeated checks reuse the resident logical BDD; every repetition must
  // reproduce the fresh result field for field (exact doubles included —
  // same canonical DAG, same traversal order).
  for (int rep = 0; rep < 3; ++rep) {
    const CheckResult cached = checker.check(d.logical, d.deployed, &ctx);
    EXPECT_EQ(cached.equivalent, fresh.equivalent);
    ASSERT_EQ(cached.missing.size(), fresh.missing.size());
    for (std::size_t i = 0; i < fresh.missing.size(); ++i) {
      EXPECT_EQ(cached.missing[i].rule, fresh.missing[i].rule);
    }
    ASSERT_EQ(cached.extra_rules.size(), fresh.extra_rules.size());
    for (std::size_t i = 0; i < fresh.extra_rules.size(); ++i) {
      EXPECT_EQ(cached.extra_rules[i], fresh.extra_rules[i]);
    }
    EXPECT_EQ(cached.missing_packet_count, fresh.missing_packet_count);
    EXPECT_EQ(cached.extra_packet_count, fresh.extra_packet_count);
  }
  const LogicalBddCache::Stats stats = cache.stats();
  if (!fresh.equivalent) {  // equivalent multisets short-circuit before BDD
    EXPECT_EQ(stats.logical_builds, 1u);
    EXPECT_EQ(stats.logical_hits, 2u);
    // Every check rolls its T-BDD region back (a no-op rollback — the T
    // nodes all resident already — is possible but not counted).
    EXPECT_LE(stats.rollbacks, 3u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckerDifferential,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST(LogicalBddCache, KeyChangeDropsResidentArena) {
  const RandomDeployment d1 = random_deployment(5);
  const RandomDeployment d2 = random_deployment(6);
  const EquivalenceChecker checker{CheckMode::kExactBdd};

  LogicalBddCache cache{1};
  EquivalenceChecker::BddCheckContext ctx;
  ctx.cache = &cache;
  ctx.sw = SwitchId{1};

  ctx.key = 1;  // epoch 1: d1's compiled rules
  const CheckResult r1 = checker.check(d1.logical, d1.deployed, &ctx);
  ctx.key = 2;  // "recompile": same switch id, different logical rules
  const CheckResult r2 = checker.check(d2.logical, d2.deployed, &ctx);

  // The arena was replaced, not reused: the second result must equal a
  // fresh check of d2, not anything derived from d1's logical BDD.
  const CheckResult fresh2 =
      checker.check(d2.logical, d2.deployed);
  EXPECT_EQ(r2.equivalent, fresh2.equivalent);
  EXPECT_EQ(r2.missing.size(), fresh2.missing.size());
  EXPECT_EQ(r2.missing_packet_count, fresh2.missing_packet_count);
  EXPECT_EQ(cache.stats().arena_builds, 2u);
  (void)r1;
}

}  // namespace
}  // namespace scout
