#include "src/bdd/bdd.h"

#include <gtest/gtest.h>

#include <bitset>
#include <cmath>

#include "src/checker/packet_encoding.h"
#include "src/common/rng.h"

namespace scout {
namespace {

TEST(Bdd, ConstantsAreTerminals) {
  BddManager mgr{4};
  EXPECT_TRUE(mgr.is_true(mgr.constant(true)));
  EXPECT_TRUE(mgr.is_false(mgr.constant(false)));
  // Complement edges: one terminal node, false is its complemented edge.
  EXPECT_EQ(mgr.node_count(), 1u);
  EXPECT_EQ(mgr.constant(false), BddManager::negate(mgr.constant(true)));
}

TEST(Bdd, VarAndNvarAreComplements) {
  BddManager mgr{4};
  const BddRef x = mgr.var(1);
  EXPECT_EQ(mgr.negate(x), mgr.nvar(1));
  EXPECT_EQ(mgr.negate(mgr.nvar(1)), x);
}

TEST(Bdd, CanonicityIdenticalFunctionsShareNodes) {
  BddManager mgr{4};
  const BddRef a = mgr.apply_and(mgr.var(0), mgr.var(1));
  const BddRef b = mgr.apply_and(mgr.var(1), mgr.var(0));
  EXPECT_EQ(a, b);
  const BddRef c = mgr.apply_or(mgr.negate(mgr.var(0)),
                                mgr.negate(mgr.var(1)));
  EXPECT_EQ(mgr.negate(a), c);  // De Morgan, canonically
}

TEST(Bdd, ContradictionAndTautology) {
  BddManager mgr{4};
  const BddRef x = mgr.var(2);
  EXPECT_TRUE(mgr.is_false(mgr.apply_and(x, mgr.negate(x))));
  EXPECT_TRUE(mgr.is_true(mgr.apply_or(x, mgr.negate(x))));
}

TEST(Bdd, XorBasics) {
  BddManager mgr{4};
  const BddRef x = mgr.var(0), y = mgr.var(1);
  EXPECT_TRUE(mgr.is_false(mgr.apply_xor(x, x)));
  EXPECT_EQ(mgr.apply_xor(x, mgr.constant(false)), x);
  EXPECT_EQ(mgr.apply_xor(x, mgr.constant(true)), mgr.negate(x));
  EXPECT_EQ(mgr.apply_xor(x, y), mgr.apply_xor(y, x));
}

TEST(Bdd, IteBasics) {
  BddManager mgr{4};
  const BddRef f = mgr.var(0), g = mgr.var(1), h = mgr.var(2);
  EXPECT_EQ(mgr.ite(mgr.constant(true), g, h), g);
  EXPECT_EQ(mgr.ite(mgr.constant(false), g, h), h);
  EXPECT_EQ(mgr.ite(f, g, g), g);
  EXPECT_EQ(mgr.ite(f, mgr.constant(true), mgr.constant(false)), f);
  EXPECT_EQ(mgr.ite(f, mgr.constant(false), mgr.constant(true)),
            mgr.negate(f));
}

TEST(Bdd, EvaluateFollowsAssignment) {
  BddManager mgr{3};
  // f = (x0 & x1) | !x2
  const BddRef f = mgr.apply_or(mgr.apply_and(mgr.var(0), mgr.var(1)),
                                mgr.nvar(2));
  const bool t = true, o = false;
  EXPECT_TRUE(mgr.evaluate(f, {t, t, t}));
  EXPECT_TRUE(mgr.evaluate(f, {o, o, o}));
  EXPECT_FALSE(mgr.evaluate(f, {o, t, t}));
  EXPECT_FALSE(mgr.evaluate(f, {t, o, t}));
}

TEST(Bdd, CubeBuildsConjunction) {
  BddManager mgr{4};
  const BddRef c = mgr.cube({{0, true}, {2, false}, {3, true}});
  const BddRef expected = mgr.apply_and(
      mgr.apply_and(mgr.var(0), mgr.nvar(2)), mgr.var(3));
  EXPECT_EQ(c, expected);
}

TEST(Bdd, EmptyCubeIsTrue) {
  BddManager mgr{4};
  EXPECT_TRUE(mgr.is_true(mgr.cube({})));
}

TEST(Bdd, CubeRejectsDuplicateVariable) {
  BddManager mgr{4};
  EXPECT_THROW((void)mgr.cube({{1, true}, {1, false}}),
               std::invalid_argument);
}

TEST(Bdd, CubeRejectsOutOfRangeVariable) {
  BddManager mgr{4};
  EXPECT_THROW((void)mgr.cube({{7, true}}), std::out_of_range);
}

TEST(Bdd, SatCountSimple) {
  BddManager mgr{3};
  EXPECT_DOUBLE_EQ(mgr.sat_count(mgr.constant(true)), 8.0);
  EXPECT_DOUBLE_EQ(mgr.sat_count(mgr.constant(false)), 0.0);
  EXPECT_DOUBLE_EQ(mgr.sat_count(mgr.var(0)), 4.0);
  EXPECT_DOUBLE_EQ(mgr.sat_count(mgr.apply_and(mgr.var(0), mgr.var(2))), 2.0);
  EXPECT_DOUBLE_EQ(mgr.sat_count(mgr.apply_or(mgr.var(0), mgr.var(1))), 6.0);
}

TEST(Bdd, IntersectsCubeAgreesWithConjunction) {
  BddManager mgr{4};
  const BddRef f = mgr.apply_or(mgr.apply_and(mgr.var(0), mgr.var(1)),
                                mgr.apply_and(mgr.nvar(0), mgr.var(3)));
  EXPECT_TRUE(mgr.intersects_cube(f, {{0, true}, {1, true}}));
  EXPECT_FALSE(mgr.intersects_cube(f, {{0, true}, {1, false}}));
  EXPECT_TRUE(mgr.intersects_cube(f, {{0, false}}));
  EXPECT_FALSE(mgr.intersects_cube(mgr.constant(false), {}));
  EXPECT_TRUE(mgr.intersects_cube(mgr.constant(true), {{2, false}}));
}

TEST(Bdd, ForeachCubeVisitsDisjointCover) {
  BddManager mgr{3};
  const BddRef f = mgr.apply_or(mgr.var(0), mgr.var(1));
  double covered = 0.0;
  mgr.foreach_cube(f, [&](std::span<const std::int8_t> cube) {
    double weight = 1.0;
    for (const std::int8_t v : cube) {
      if (v == -1) weight *= 2.0;
    }
    covered += weight;
    return true;
  });
  EXPECT_DOUBLE_EQ(covered, mgr.sat_count(f));
}

TEST(Bdd, ForeachCubeEarlyStop) {
  BddManager mgr{4};
  const BddRef f = mgr.constant(true);
  std::size_t calls = 0;
  const std::size_t visited = mgr.foreach_cube(f, [&](auto) {
    ++calls;
    return false;
  });
  EXPECT_EQ(visited, 1u);
  EXPECT_EQ(calls, 1u);
}

TEST(Bdd, AnySatReturnsSatisfyingAssignment) {
  BddManager mgr{4};
  const BddRef f = mgr.cube({{0, true}, {3, false}});
  const auto a = mgr.any_sat(f);
  EXPECT_EQ(a[0], 1);
  EXPECT_EQ(a[3], 0);
  EXPECT_THROW((void)mgr.any_sat(mgr.constant(false)),
               std::invalid_argument);
}

TEST(Bdd, DagSizeCountsReachableNodes) {
  BddManager mgr{4};
  EXPECT_EQ(mgr.dag_size(mgr.constant(true)), 1u);
  EXPECT_EQ(mgr.dag_size(mgr.var(0)), 2u);  // node + the single terminal
  // Both phases share the structure: same DAG, same size.
  EXPECT_EQ(mgr.dag_size(mgr.nvar(0)), 2u);
}

// Property: BDD operations agree with brute-force truth-table evaluation
// over random formulas on few variables.
class BddBruteForce : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BddBruteForce, RandomFormulasMatchTruthTables) {
  constexpr std::uint32_t kVars = 6;
  Rng rng{GetParam()};
  BddManager mgr{kVars};

  // Random formula as a vector of ops over a stack of sub-formulas, each
  // tracked both as BDD and as a truth table (bitmask over 2^6 = 64 rows).
  struct Entry {
    BddRef bdd;
    std::uint64_t table;
  };
  std::vector<Entry> stack;
  auto var_table = [](std::uint32_t v) {
    std::uint64_t t = 0;
    for (std::uint32_t row = 0; row < 64; ++row) {
      if ((row >> v) & 1U) t |= (1ULL << row);
    }
    return t;
  };
  for (std::uint32_t v = 0; v < kVars; ++v) {
    stack.push_back({mgr.var(v), var_table(v)});
  }

  for (int step = 0; step < 300; ++step) {
    const std::size_t i = rng.below(stack.size());
    const std::size_t j = rng.below(stack.size());
    const std::uint64_t op = rng.below(4);
    Entry e{};
    switch (op) {
      case 0:
        e = {mgr.apply_and(stack[i].bdd, stack[j].bdd),
             stack[i].table & stack[j].table};
        break;
      case 1:
        e = {mgr.apply_or(stack[i].bdd, stack[j].bdd),
             stack[i].table | stack[j].table};
        break;
      case 2:
        e = {mgr.apply_xor(stack[i].bdd, stack[j].bdd),
             stack[i].table ^ stack[j].table};
        break;
      default:
        e = {mgr.negate(stack[i].bdd), ~stack[i].table};
        break;
    }
    stack.push_back(e);

    // Verify by evaluating all 64 assignments.
    for (std::uint32_t row = 0; row < 64; ++row) {
      std::vector<bool> assignment(kVars);
      for (std::uint32_t v = 0; v < kVars; ++v) {
        assignment[v] = (row >> v) & 1U;
      }
      ASSERT_EQ(mgr.evaluate(e.bdd, assignment),
                static_cast<bool>((e.table >> row) & 1ULL))
          << "step " << step << " row " << row;
    }
    // And sat_count must equal popcount of the table.
    ASSERT_DOUBLE_EQ(mgr.sat_count(e.bdd),
                     static_cast<double>(__builtin_popcountll(e.table)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddBruteForce,
                         ::testing::Values(11, 22, 33, 44));

// --- complement-edge canonicity -------------------------------------------

// Build a random formula over `vars` variables, returning the refs of every
// intermediate sub-formula (exercises AND/OR/XOR/NOT/ITE mixes).
std::vector<BddRef> random_formula_stack(BddManager& mgr, Rng& rng,
                                         std::uint32_t vars, int steps) {
  std::vector<BddRef> stack;
  for (std::uint32_t v = 0; v < vars; ++v) stack.push_back(mgr.var(v));
  for (int step = 0; step < steps; ++step) {
    const BddRef a = stack[rng.below(stack.size())];
    const BddRef b = stack[rng.below(stack.size())];
    switch (rng.below(5)) {
      case 0: stack.push_back(mgr.apply_and(a, b)); break;
      case 1: stack.push_back(mgr.apply_or(a, b)); break;
      case 2: stack.push_back(mgr.apply_xor(a, b)); break;
      case 3: stack.push_back(mgr.negate(a)); break;
      default:
        stack.push_back(mgr.ite(a, b, stack[rng.below(stack.size())]));
        break;
    }
  }
  return stack;
}

TEST(Bdd, NegateIsAnInvolutionByReference) {
  BddManager mgr{6};
  Rng rng{17};
  for (const BddRef f : random_formula_stack(mgr, rng, 6, 200)) {
    EXPECT_EQ(mgr.negate(mgr.negate(f)), f);  // ref equality, not just equiv
    EXPECT_NE(mgr.negate(f), f);
  }
}

TEST(Bdd, CanonicityNoComplementedLowEdges) {
  // check_invariants verifies the stored form directly: regular low edges,
  // distinct children, ordered variables, exactly one unique-table entry
  // per node.
  BddManager mgr{8};
  Rng rng{23};
  (void)random_formula_stack(mgr, rng, 8, 500);
  EXPECT_TRUE(mgr.check_invariants());
}

TEST(Bdd, DeMorganHoldsCanonically) {
  BddManager mgr{5};
  Rng rng{29};
  const auto stack = random_formula_stack(mgr, rng, 5, 100);
  for (std::size_t i = 0; i + 1 < stack.size(); i += 2) {
    const BddRef a = stack[i], b = stack[i + 1];
    EXPECT_EQ(mgr.negate(mgr.apply_and(a, b)),
              mgr.apply_or(mgr.negate(a), mgr.negate(b)));
    EXPECT_EQ(mgr.apply_diff(a, b), mgr.apply_and(a, mgr.negate(b)));
  }
}

TEST(Bdd, StatsCountersAreConsistent) {
  BddManager mgr{8};
  Rng rng{31};
  (void)random_formula_stack(mgr, rng, 8, 500);
  const BddManager::Stats s = mgr.stats();
  EXPECT_EQ(s.nodes, mgr.node_count());
  EXPECT_GE(s.peak_nodes, s.nodes);
  EXPECT_GT(s.unique_capacity, s.nodes);  // grown before full
  EXPECT_GT(s.unique_load, 0.0);
  EXPECT_LT(s.unique_load, 1.0);
  EXPECT_LE(s.cache_hits, s.cache_lookups);
  EXPECT_EQ(s.rollbacks, 0u);
}

// --- checkpoint / rollback -------------------------------------------------

TEST(Bdd, RollbackTruncatesToWatermark) {
  BddManager mgr{6};
  const BddRef base = mgr.apply_and(mgr.var(0), mgr.var(1));
  const auto cp = mgr.checkpoint();
  const std::size_t nodes_at_cp = mgr.node_count();

  const BddRef scratch = mgr.apply_or(mgr.var(2), mgr.apply_xor(base,
                                                                mgr.var(3)));
  EXPECT_GT(mgr.node_count(), nodes_at_cp);
  (void)scratch;

  mgr.rollback(cp);
  EXPECT_EQ(mgr.node_count(), nodes_at_cp);
  EXPECT_TRUE(mgr.check_invariants());
  EXPECT_EQ(mgr.stats().rollbacks, 1u);

  // Refs below the watermark survive and still evaluate.
  EXPECT_TRUE(mgr.evaluate(base, {true, true, false, false, false, false}));
  EXPECT_FALSE(mgr.evaluate(base, {true, false, false, false, false, false}));
}

TEST(Bdd, RollbackToCurrentWatermarkIsNoop) {
  BddManager mgr{4};
  (void)mgr.apply_and(mgr.var(0), mgr.var(1));
  const auto cp = mgr.checkpoint();
  mgr.rollback(cp);
  EXPECT_EQ(mgr.node_count(), cp.nodes);
  EXPECT_EQ(mgr.stats().rollbacks, 0u);  // nothing truncated, cache kept
}

TEST(Bdd, OpCacheEntriesBelowWatermarkSurviveRollback) {
  // Entries whose arguments and result all live below the rollback
  // watermark are revalidated via their max-node tag instead of dying
  // with the generation bump: re-running a sub-watermark operation after
  // a rollback is a cache hit, not a recompute.
  BddManager mgr{6};
  const BddRef a = mgr.apply_and(mgr.var(0), mgr.var(1));
  const BddRef b = mgr.apply_or(mgr.var(2), mgr.var(3));
  const BddRef c = mgr.apply_and(a, b);
  const auto cp = mgr.checkpoint();
  (void)mgr.apply_xor(c, mgr.var(4));  // scratch above the watermark
  mgr.rollback(cp);

  const auto before = mgr.stats();
  EXPECT_EQ(mgr.apply_and(a, b), c);  // same canonical ref...
  const auto after = mgr.stats();
  EXPECT_EQ(after.cache_hits, before.cache_hits + 1);  // ...from the cache

  // The surviving entry was re-stamped on that hit, so it stays alive
  // across further rollbacks too.
  (void)mgr.apply_xor(c, mgr.var(5));
  mgr.rollback(cp);
  const auto again = mgr.stats();
  EXPECT_EQ(mgr.apply_and(a, b), c);
  EXPECT_EQ(mgr.stats().cache_hits, again.cache_hits + 1);
}

TEST(Bdd, OpCacheEntriesAboveWatermarkDieWithRollback) {
  BddManager mgr{6};
  const BddRef a = mgr.apply_and(mgr.var(0), mgr.var(1));
  const auto cp = mgr.checkpoint();
  const BddRef x = mgr.var(2);
  const BddRef above = mgr.apply_or(a, mgr.apply_and(x, mgr.var(3)));
  mgr.rollback(cp);
  // Replaying the sequence must rebuild identical refs (hash-consing),
  // never serve a cache entry referencing truncated nodes.
  const BddRef x2 = mgr.var(2);
  EXPECT_EQ(x2, x);
  const BddRef rebuilt = mgr.apply_or(a, mgr.apply_and(x2, mgr.var(3)));
  EXPECT_EQ(rebuilt, above);
  EXPECT_TRUE(mgr.check_invariants());
}

TEST(Bdd, RollbackRejectsBadCheckpoint) {
  BddManager mgr{4};
  const auto cp = mgr.checkpoint();
  (void)mgr.var(0);
  mgr.rollback(cp);  // backwards is fine
  EXPECT_THROW(mgr.rollback(BddManager::Checkpoint{999}),
               std::invalid_argument);
  EXPECT_THROW(mgr.rollback(BddManager::Checkpoint{0}),
               std::invalid_argument);
}

// Randomized arena round-trips: ops above a checkpoint are rolled back,
// then the identical op sequence is replayed — hash-consing must hand out
// the identical refs, and the pre-checkpoint region must be untouched.
class BddRollbackRoundTrip : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(BddRollbackRoundTrip, ReplayAfterRollbackIsIdentical) {
  constexpr std::uint32_t kVars = 7;
  BddManager mgr{kVars};
  Rng base_rng{GetParam()};
  const std::vector<BddRef> base =
      random_formula_stack(mgr, base_rng, kVars, 150);
  const auto cp = mgr.checkpoint();

  // Truth tables of the resident region, for corruption detection. 2^kVars
  // rows don't fit a 64-bit word at kVars = 7 — a packed uint64 here would
  // silently compare only the first 64 rows (and shift past the word, UB).
  const auto truth = [&](BddRef f) {
    std::bitset<(1U << kVars)> t;
    for (std::uint32_t row = 0; row < (1U << kVars); ++row) {
      std::vector<bool> assignment(kVars);
      for (std::uint32_t v = 0; v < kVars; ++v) {
        assignment[v] = (row >> v) & 1U;
      }
      if (mgr.evaluate(f, assignment)) t.set(row);
    }
    return t;
  };
  std::vector<std::bitset<(1U << kVars)>> base_truth;
  for (const BddRef f : base) base_truth.push_back(truth(f));

  for (int round = 0; round < 4; ++round) {
    // Replaying the same seed must produce the same refs each round: the
    // arena below the watermark is intact and node ids are allocated in
    // op order.
    Rng op_rng{derive_seed(GetParam(), static_cast<std::uint64_t>(round))};
    std::vector<BddRef> first, second;
    {
      Rng r = op_rng;
      BddManager& m = mgr;
      std::vector<BddRef> stack = base;
      for (int step = 0; step < 120; ++step) {
        const BddRef a = stack[r.below(stack.size())];
        const BddRef b = stack[r.below(stack.size())];
        stack.push_back(r.chance(0.5) ? m.apply_and(a, b)
                                      : m.ite(a, b, m.negate(b)));
      }
      first = std::move(stack);
    }
    mgr.rollback(cp);
    ASSERT_EQ(mgr.node_count(), cp.nodes);
    ASSERT_TRUE(mgr.check_invariants());
    {
      Rng r = op_rng;
      std::vector<BddRef> stack = base;
      for (int step = 0; step < 120; ++step) {
        const BddRef a = stack[r.below(stack.size())];
        const BddRef b = stack[r.below(stack.size())];
        stack.push_back(r.chance(0.5) ? mgr.apply_and(a, b)
                                      : mgr.ite(a, b, mgr.negate(b)));
      }
      second = std::move(stack);
    }
    ASSERT_EQ(first, second) << "round " << round;
    mgr.rollback(cp);

    // The resident region still denotes the same functions.
    for (std::size_t i = 0; i < base.size(); ++i) {
      ASSERT_EQ(truth(base[i]), base_truth[i]) << "round " << round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddRollbackRoundTrip,
                         ::testing::Values(101, 202, 303, 404, 505));

// One seeded op over `stack` (pushed onto it): the same Rng state over the
// same arena always builds the same ref.
void seeded_op(BddManager& mgr, Rng& rng, std::vector<BddRef>& stack) {
  const BddRef a = stack[rng.below(stack.size())];
  const BddRef b = stack[rng.below(stack.size())];
  stack.push_back(rng.chance(0.5) ? mgr.apply_and(a, b)
                                  : mgr.apply_xor(a, b));
}

std::vector<BddRef> seeded_ops(BddManager& mgr, std::uint64_t seed,
                               std::vector<BddRef> stack, int steps) {
  Rng rng{seed};
  for (int step = 0; step < steps; ++step) seeded_op(mgr, rng, stack);
  return stack;
}

// What every rollback must leave, whichever path it takes: the pool at the
// watermark, a unique table that holds exactly the kept nodes at unchanged
// capacity, and an arena in which replaying the ops that built `built`
// over `base` hands out the very same refs.
void expect_clean_rollback(BddManager& mgr, BddManager::Checkpoint cp,
                           const std::vector<BddRef>& base,
                           std::uint64_t seed, int steps,
                           const std::vector<BddRef>& built) {
  const std::size_t capacity = mgr.stats().unique_capacity;
  mgr.rollback(cp);
  EXPECT_EQ(mgr.node_count(), cp.nodes);
  EXPECT_TRUE(mgr.check_invariants());
  EXPECT_EQ(mgr.stats().unique_capacity, capacity);
  EXPECT_EQ(seeded_ops(mgr, seed, base, steps), built);
  EXPECT_TRUE(mgr.check_invariants());
}

TEST(Bdd, RollbackUnwindsSmallScratchAboveLargeResident) {
  BddManager mgr{12};
  Rng rng{7};
  const std::vector<BddRef> base = random_formula_stack(mgr, rng, 12, 1500);
  const auto cp = mgr.checkpoint();
  const std::vector<BddRef> built = seeded_ops(mgr, 11, base, 20);
  const std::size_t dropped = mgr.node_count() - cp.nodes;
  ASSERT_GT(dropped, 0u);
  ASSERT_LT(dropped, cp.nodes);  // fewer dropped than kept: the unwind
  expect_clean_rollback(mgr, cp, base, 11, 20, built);
}

TEST(Bdd, RollbackNearTheBottomRebuilds) {
  BddManager mgr{12};
  Rng rng{8};
  const std::vector<BddRef> base = random_formula_stack(mgr, rng, 12, 0);
  const auto cp = mgr.checkpoint();
  const std::vector<BddRef> built = seeded_ops(mgr, 12, base, 400);
  ASSERT_GE(mgr.node_count() - cp.nodes, cp.nodes);  // the rebuild
  expect_clean_rollback(mgr, cp, base, 12, 400, built);
}

TEST(Bdd, RollbackUnwindsAcrossTableGrowth) {
  // Fill the table to just under its growth threshold, checkpoint, and
  // build until the table doubles: the unwind then clears slots the
  // growth rehash placed, not the ones the nodes were first inserted into.
  BddManager mgr{12};
  Rng rng{9};
  std::vector<BddRef> base = random_formula_stack(mgr, rng, 12, 0);
  while (mgr.node_count() < 2000 ||
         (mgr.node_count() + 64) * 4 < mgr.stats().unique_capacity * 3) {
    seeded_op(mgr, rng, base);
  }
  const auto cp = mgr.checkpoint();
  const std::size_t capacity_at_cp = mgr.stats().unique_capacity;
  Rng op_rng{13};
  std::vector<BddRef> built = base;
  int steps = 0;
  while (mgr.stats().unique_capacity == capacity_at_cp) {
    seeded_op(mgr, op_rng, built);
    ++steps;
  }
  ASSERT_GT(mgr.stats().unique_capacity, capacity_at_cp);
  ASSERT_LT(mgr.node_count() - cp.nodes, cp.nodes);  // still the unwind
  expect_clean_rollback(mgr, cp, base, 13, steps, built);
}

TEST(Bdd, NestedRollbacksInnerThenOuter) {
  BddManager mgr{12};
  Rng rng{10};
  const std::vector<BddRef> base = random_formula_stack(mgr, rng, 12, 1000);
  const auto outer = mgr.checkpoint();
  const std::vector<BddRef> middle = seeded_ops(mgr, 21, base, 30);
  const auto inner = mgr.checkpoint();
  const std::vector<BddRef> top = seeded_ops(mgr, 22, middle, 30);
  ASSERT_GT(mgr.node_count(), inner.nodes);
  ASSERT_GT(inner.nodes, outer.nodes);
  expect_clean_rollback(mgr, inner, middle, 22, 30, top);
  expect_clean_rollback(mgr, outer, base, 21, 30, middle);
}

// --- query scratch ---------------------------------------------------------

// Policy-shaped rules: exact VRF and protocol, source/destination EPGs and
// ports exact or wildcarded, about one in ten a deny. Every path of their
// BDD fixes VRF and protocol, so path weights and all their sums are
// integers below 2^53: the counts below compare exactly.
std::vector<TcamRule> policy_shaped_rules(std::uint64_t seed, std::size_t n) {
  Rng rng{seed};
  std::vector<TcamRule> rules;
  rules.reserve(n);
  const auto epg = [&rng] {
    return rng.chance(0.1) ? TernaryField::wildcard()
                           : TernaryField::exact(
                                 static_cast<std::uint32_t>(rng.below(48)),
                                 FieldWidths::kEpg);
  };
  for (std::size_t i = 0; i < n; ++i) {
    TcamRule r;
    r.priority = static_cast<std::uint32_t>(i);
    r.vrf = TernaryField::exact(static_cast<std::uint32_t>(rng.below(2)),
                                FieldWidths::kVrf);
    r.src_epg = epg();
    r.dst_epg = epg();
    r.proto = TernaryField::exact(rng.chance(0.5) ? 6 : 17,
                                  FieldWidths::kProto);
    r.dst_port = rng.chance(0.3)
                     ? TernaryField::wildcard()
                     : TernaryField::exact(
                           static_cast<std::uint32_t>(rng.below(1024)),
                           FieldWidths::kPort);
    r.action = rng.chance(0.9) ? RuleAction::kAllow : RuleAction::kDeny;
    rules.push_back(r);
  }
  return rules;
}

std::vector<TcamRule> drop_some(const std::vector<TcamRule>& rules,
                                std::uint64_t seed) {
  Rng rng{seed};
  std::vector<TcamRule> kept;
  for (const TcamRule& r : rules) {
    if (!rng.chance(0.15)) kept.push_back(r);
  }
  return kept;
}

double sum_over_paths(const BddManager& mgr, BddRef f) {
  double total = 0.0;
  (void)mgr.foreach_cube(f, [&](std::span<const std::int8_t> path) {
    double weight = 1.0;
    for (const std::int8_t v : path) {
      if (v == -1) weight *= 2.0;
    }
    total += weight;
    return true;
  });
  return total;
}

// sat_count against an independent count, and intersects_cube against the
// conjunction it short-cuts, for every rule cube; the conjunctions are
// built above a checkpoint and rolled back.
void expect_queries_agree(BddManager& mgr, BddRef f,
                          const std::vector<TcamRule>& rules) {
  EXPECT_EQ(mgr.sat_count(f), sum_over_paths(mgr, f));
  const auto cp = mgr.checkpoint();
  BddCube c;
  std::size_t hits = 0;
  for (const TcamRule& r : rules) {
    rule_to_cube_into(c, r);
    const bool hit = mgr.intersects_cube(f, c);
    ASSERT_EQ(hit, !mgr.is_false(mgr.apply_and(f, mgr.cube(c))));
    hits += hit ? 1 : 0;
  }
  mgr.rollback(cp);
  EXPECT_GT(hits, 0u);
}

TEST(Bdd, QueryScratchFollowsTheQueryAcrossRollbackAndRegrowth) {
  BddManager mgr{PacketVars::kCount};
  const std::size_t initial = mgr.stats().scratch_capacity;
  const std::vector<TcamRule> rules = policy_shaped_rules(77, 600);
  const BddRef l = ruleset_to_bdd(mgr, rules);
  ASSERT_GT(mgr.dag_size(l), 8 * initial);

  // The scratch is sized by what a query visits, not by the pool: a query
  // over one cube leaves it at its starting size.
  BddManager small{PacketVars::kCount};
  (void)ruleset_to_bdd(small, rules);
  const BddRef one = small.cube(rule_to_cube(rules[0]));
  EXPECT_GT(small.sat_count(one), 0.0);
  EXPECT_TRUE(small.intersects_cube(one, rule_to_cube(rules[0])));
  EXPECT_GT(small.node_count(), 8 * initial);
  EXPECT_EQ(small.stats().scratch_capacity, initial);

  // A T-BDD and the missing space L ∧ ¬T above a checkpoint, queried
  // before the rollback...
  const auto cp = mgr.checkpoint();
  const BddRef t = ruleset_to_bdd(mgr, drop_some(rules, 1));
  const BddRef missing = mgr.apply_diff(l, t);
  ASSERT_FALSE(mgr.is_false(missing));
  expect_queries_agree(mgr, l, rules);
  expect_queries_agree(mgr, missing, rules);
  expect_queries_agree(mgr, mgr.negate(missing), rules);
  EXPECT_GT(mgr.stats().scratch_capacity, initial);

  // ...and after it, once a different T has regrown over the same node
  // indices: a ref the scratch saw before now names another node.
  mgr.rollback(cp);
  const BddRef t2 = ruleset_to_bdd(mgr, drop_some(rules, 2));
  const BddRef missing2 = mgr.apply_diff(l, t2);
  ASSERT_FALSE(mgr.is_false(missing2));
  ASSERT_NE(missing2, missing);
  expect_queries_agree(mgr, l, rules);
  expect_queries_agree(mgr, missing2, rules);
  expect_queries_agree(mgr, mgr.negate(missing2), rules);
  EXPECT_TRUE(mgr.check_invariants());
}

TEST(Bdd, IteMatchesExpandedForm) {
  Rng rng{5};
  BddManager mgr{5};
  for (int i = 0; i < 100; ++i) {
    // random cubes as f, g, h
    auto random_func = [&]() {
      BddRef acc = mgr.constant(rng.chance(0.5));
      for (std::uint32_t v = 0; v < 5; ++v) {
        if (rng.chance(0.4)) {
          const BddRef lit = rng.chance(0.5) ? mgr.var(v) : mgr.nvar(v);
          acc = rng.chance(0.5) ? mgr.apply_and(acc, lit)
                                : mgr.apply_or(acc, lit);
        }
      }
      return acc;
    };
    const BddRef f = random_func(), g = random_func(), h = random_func();
    const BddRef expanded = mgr.apply_or(
        mgr.apply_and(f, g), mgr.apply_and(mgr.negate(f), h));
    ASSERT_EQ(mgr.ite(f, g, h), expanded);
  }
}

}  // namespace
}  // namespace scout
