// L-T equivalence checker (paper §III-C).
//
// Compares the logical rules compiled from the network policy (L) against
// the TCAM rules collected from a switch (T) and reports the missing rules:
// L-rules whose packets should be allowed but are not allowed by T. Each
// missing rule carries provenance, which downstream risk-model augmentation
// consumes.
//
// Two modes:
//  * kExactBdd   — the paper's method: build ROBDDs for L and T, test
//    equivalence, and intersect each L-rule cube with L∧¬T. Semantically
//    exact: an L-rule absent from the TCAM but shadowed by other present
//    rules is correctly not reported. With a BddCheckContext, the logical
//    BDD comes from a per-worker LogicalBddCache arena and only the T-BDD
//    is built (above a checkpoint watermark, rolled back after the check).
//  * kSyntactic  — multiset diff on match keys over a flat open-addressing
//    table with packed 128+-bit keys (no unordered_map, no per-call
//    allocation in steady state). Exact only when allow rules are pairwise
//    non-overlapping (which the policy compiler guarantees for distinct
//    EPG-pair keys); used by the large-scale benches where building
//    hundreds of BDDs dominates runtime. Tests pin the agreement of the
//    two modes on non-overlapping rulesets.
#pragma once

#include <span>
#include <vector>

#include "src/bdd/bdd.h"
#include "src/checker/logical_bdd_cache.h"
#include "src/checker/logical_rule.h"
#include "src/tcam/tcam_rule.h"

namespace scout {

enum class CheckMode : std::uint8_t { kExactBdd, kSyntactic };

struct CheckResult {
  bool equivalent = true;
  // L-rules not realized in the TCAM (their allowed packets are not all
  // allowed by T).
  std::vector<LogicalRule> missing;
  // Deployed rules that allow packets the policy does not — stale state,
  // corrupted entries, or leftovers from incomplete removals. These have
  // no provenance (they exist only on the device).
  std::vector<TcamRule> extra_rules;
  // Packets allowed by T but not by L / by L but not by T.
  double extra_packet_count = 0.0;
  double missing_packet_count = 0.0;

  // Fold one switch's outcome into this fabric-level accumulator:
  // concatenates missing/extra, sums the packet counts, and stays
  // equivalent only if every absorbed result was.
  void absorb(CheckResult&& other);
};

// Missing/extra-rule diff over *already built* L and T BDDs in `mgr`:
// equivalence is a reference comparison, the spaces L∧¬T / T∧¬L are one
// apply each, and each candidate rule is classified by cube intersection.
// Nothing walks L or T whole: the queries visit only the diff spaces, so
// the cost follows how far T strays from L, not how large either is.
// Shared by the batch checker (which builds T per check) and the stream
// monitor's IncrementalChecker (which keeps both BDDs resident and updates
// T per event). Allocates diff nodes in `mgr` above the current top — the
// caller owns checkpoint/rollback around the call.
[[nodiscard]] CheckResult bdd_rule_diff(BddManager& mgr, BddRef l_bdd,
                                        BddRef t_bdd,
                                        std::span<const LogicalRule> logical,
                                        std::span<const TcamRule> deployed);

class EquivalenceChecker {
 public:
  explicit EquivalenceChecker(CheckMode mode = CheckMode::kExactBdd)
      : mode_(mode) {}

  [[nodiscard]] CheckMode mode() const noexcept { return mode_; }

  // Routing for the cached-BDD path: which worker's arena to use, the key
  // identifying the compiled policy (fold a network identity in when one
  // cache sees several controllers), and the switch whose logical BDD to
  // reuse. Ignored in syntactic mode or when `cache` is null; results are
  // bit-identical with and without a context.
  struct BddCheckContext {
    LogicalBddCache* cache = nullptr;
    std::size_t worker = 0;
    SwitchId sw{};
    std::uint64_t key = 0;
  };

  // Check one switch's deployment. `logical` are the L-rules compiled for
  // the switch; `deployed` the rules collected from its TCAM.
  [[nodiscard]] CheckResult check(std::span<const LogicalRule> logical,
                                  std::span<const TcamRule> deployed,
                                  const BddCheckContext* ctx = nullptr) const;

  // Fast pre-filter: true iff the two rulesets are identical as multisets
  // of match keys (sufficient for equivalence, not necessary).
  [[nodiscard]] static bool syntactically_identical(
      std::span<const LogicalRule> logical,
      std::span<const TcamRule> deployed);

 private:
  [[nodiscard]] CheckResult check_bdd(std::span<const LogicalRule> logical,
                                      std::span<const TcamRule> deployed,
                                      const BddCheckContext* ctx) const;
  [[nodiscard]] CheckResult check_syntactic(
      std::span<const LogicalRule> logical,
      std::span<const TcamRule> deployed) const;

  CheckMode mode_;
};

}  // namespace scout
