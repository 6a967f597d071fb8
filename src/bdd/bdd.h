// Reduced Ordered Binary Decision Diagrams with complement edges — the
// equivalence-check substrate, built for throughput.
//
// The paper's L-T equivalence checker compares two rulesets by building one
// ROBDD from the logical rules (L) and one from the collected TCAM rules (T)
// and testing equivalence (§III-C). Canonicity makes the test a pointer
// comparison; the diff L ∧ ¬T is the exact packet set that should be
// deployed but is not, from which missing rules are recovered.
//
// Design notes (Brace–Rudell–Bryant engine layout):
//  * Complement edges: a BddRef is (node index << 1) | complement bit, so
//    negation is a single XOR and `L ∧ ¬T` is one AND. There is a single
//    terminal (node 0 = constant true); false is its complement. Canonical
//    form: the low edge of a stored node is never complemented (make_node
//    pushes the complement to the parent edge), so structural equality is
//    still reference equality.
//  * The unique table is a flat open-addressing array (linear probing,
//    power-of-two capacity) over a contiguous node pool — no per-node heap
//    allocation, no std::unordered_map. The table stores node indices; it
//    grows with the pool and rebuilds in one pass. Nodes are only ever
//    appended, and slots are only ever cleared newest node first, so the
//    table always equals the in-order insertion of nodes 1..n — the
//    property rollback's unwind rests on.
//  * One lossy direct-mapped operation cache serves every boolean operation:
//    AND/OR/XOR are normalized into ITE standard triples (terminal rules,
//    commutative argument ordering, complement canonicalization), so a
//    single (f, g, h) entry format covers them all. Entries are stamped
//    with a generation counter; rollback invalidates the cache by bumping
//    the generation instead of wiping the array — but entries tagged with
//    a max referenced node index wholly below the rollback watermark stay
//    servable (see CacheEntry), so the resident-logical-BDD workload keeps
//    its sub-watermark operation results across per-check rollbacks.
//  * checkpoint()/rollback(): the node pool is an arena. A checkpoint is a
//    pool watermark; rollback truncates the pool to it, restores the unique
//    table and invalidates the op cache. A rollback that drops fewer nodes
//    than it keeps unwinds the table instead of rebuilding it: it clears
//    the dropped nodes' slots newest first, which by the in-order
//    property above leaves the table slot-for-slot what a rebuild would
//    produce, so a per-verdict rollback costs what the verdict built, not
//    what the arena holds. Bulk truncations (most of the pool dropped)
//    rebuild in one pass. The checker keeps the per-switch logical BDDs
//    resident below the watermark and builds each cell's T-BDD above it
//    (see checker/logical_bdd_cache.h).
//  * Queries (intersects_cube, sat_count, dag_size) share one
//    manager-owned scratch map keyed by ref: flat open addressing, each
//    query starts by bumping an epoch stamp (O(1), nothing cleared), and
//    the map doubles at half load, so its size follows the largest query's
//    visited set rather than the pool. foreach_cube takes a template
//    callback, so the hot enumeration path has no std::function
//    indirection. A manager is single-threaded (the runtime gives each
//    worker its own); queries mutate scratch and are not reentrant.
//  * Variables are identified by index 0..var_count-1 with a fixed global
//    order equal to the index order. No garbage collection: managers are
//    dropped wholesale or rolled back to a watermark.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/check.h"

namespace scout {

// Tagged reference: bits 1..31 = node pool index, bit 0 = complement.
// Node 0 is the single terminal (constant true).
using BddRef = std::uint32_t;

inline constexpr BddRef kBddTrue = 0;   // terminal, regular edge
inline constexpr BddRef kBddFalse = 1;  // terminal, complemented edge

// A literal: variable index plus phase (true = positive).
struct BddLiteral {
  std::uint32_t var;
  bool positive;
};

// A conjunction of literals (a cube). Every TCAM rule encodes to one cube.
using BddCube = std::vector<BddLiteral>;

class BddManager {
 public:
  // `node_hint` preallocates the pool and sizes the unique table/op cache
  // so steady-state checks run without rehashing.
  explicit BddManager(std::uint32_t var_count, std::size_t node_hint = 0);

  BddManager(const BddManager&) = delete;
  BddManager& operator=(const BddManager&) = delete;
  BddManager(BddManager&&) = default;
  BddManager& operator=(BddManager&&) = default;

  [[nodiscard]] std::uint32_t var_count() const noexcept { return var_count_; }

  // -- leaf/variable constructors -------------------------------------------
  [[nodiscard]] BddRef constant(bool b) const noexcept {
    return b ? kBddTrue : kBddFalse;
  }
  [[nodiscard]] BddRef var(std::uint32_t index);   // f = x_index
  [[nodiscard]] BddRef nvar(std::uint32_t index);  // f = !x_index

  // -- boolean operations ----------------------------------------------------
  // All ternary/binary ops are one memoized ITE; negate is free.
  [[nodiscard]] BddRef ite(BddRef f, BddRef g, BddRef h);
  [[nodiscard]] BddRef apply_and(BddRef a, BddRef b) {
    return ite(a, b, kBddFalse);
  }
  [[nodiscard]] BddRef apply_or(BddRef a, BddRef b) {
    return ite(a, kBddTrue, b);
  }
  [[nodiscard]] BddRef apply_xor(BddRef a, BddRef b) {
    return ite(a, negate(b), b);
  }
  [[nodiscard]] static constexpr BddRef negate(BddRef a) noexcept {
    return a ^ 1U;
  }
  [[nodiscard]] BddRef apply_diff(BddRef a, BddRef b) {  // a ∧ ¬b
    return ite(a, negate(b), kBddFalse);
  }

  // Conjunction of a cube (linear construction, no op-cache pressure).
  [[nodiscard]] BddRef cube(const BddCube& literals);

  // -- checkpoint/rollback ---------------------------------------------------
  // A checkpoint is a node-pool watermark. rollback(cp) truncates the pool
  // to it and restores the unique table to exactly the state inserting the
  // kept nodes would give: when fewer nodes are dropped than kept it
  // clears the dropped nodes' slots newest first (O(dropped)), otherwise it
  // rebuilds the table in one pass (O(table)). The table keeps its
  // capacity either way. Every BddRef handed out at or above the watermark
  // is dead afterwards, every ref below stays valid (the arena contract
  // the logical-BDD cache rests on). Op-cache entries referencing only
  // sub-watermark nodes survive the rollback; the rest are invalidated.
  // Rolling back to the current watermark is a no-op. A dropped node the
  // unwind cannot find in the table is a fatal SCOUT_CHECK. With
  // SCOUT_BDD_PARANOID=1 in the environment every rollback re-runs
  // check_invariants() and aborts on violation (O(nodes + table) —
  // debugging aid).
  struct Checkpoint {
    std::uint32_t nodes = 0;
  };
  [[nodiscard]] Checkpoint checkpoint() const noexcept {
    return Checkpoint{static_cast<std::uint32_t>(nodes_.size())};
  }
  void rollback(Checkpoint cp);

  // -- queries ---------------------------------------------------------------
  [[nodiscard]] bool is_false(BddRef f) const noexcept { return f == kBddFalse; }
  [[nodiscard]] bool is_true(BddRef f) const noexcept { return f == kBddTrue; }

  // Equivalence is canonical-reference equality.
  [[nodiscard]] bool equivalent(BddRef a, BddRef b) const noexcept {
    return a == b;
  }

  // Evaluate under a full assignment (element i = value of variable i).
  // Takes vector<bool> by reference: it is not contiguous, so span<const
  // bool> cannot view it.
  [[nodiscard]] bool evaluate(BddRef f,
                              const std::vector<bool>& assignment) const;

  // Does f have a satisfying assignment consistent with `partial`?
  // `partial` maps var -> phase for a subset of variables (a cube).
  // Uses the manager-owned query scratch: no per-call allocation.
  [[nodiscard]] bool intersects_cube(BddRef f, const BddCube& partial) const;

  // Number of satisfying assignments over the full variable set (double:
  // 2^68 overflows uint64). Explicit stack + precomputed powers of two.
  [[nodiscard]] double sat_count(BddRef f) const;

  // Enumerate the satisfying paths of f as cubes: callback receives a
  // vector of per-variable values: 0, 1 or -1 (don't-care) and returns
  // false to stop early. Returns the number of paths visited.
  template <typename Callback>
  std::size_t foreach_cube(BddRef f, Callback&& callback) const {
    std::vector<std::int8_t> assignment(var_count_, -1);
    std::size_t visited = 0;
    (void)foreach_cube_rec(f, assignment, visited, callback);
    return visited;
  }

  // One satisfying assignment (arbitrary), as per-variable 0/1/-1 values.
  // f must not be kBddFalse.
  [[nodiscard]] std::vector<std::int8_t> any_sat(BddRef f) const;

  // -- introspection ---------------------------------------------------------
  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  // Distinct nodes reachable from f (complement bits ignored; the single
  // terminal counts once).
  [[nodiscard]] std::size_t dag_size(BddRef f) const;

  // Structural self-check (tests): every stored node has a regular low
  // edge, distinct children, strictly increasing variable order toward the
  // leaves, and exactly one unique-table entry, and the table holds no
  // other entries. O(nodes + table).
  [[nodiscard]] bool check_invariants() const;

  // Engine counters for benches/CI: unique-table load factor, op-cache hit
  // rate, pool growth and rollback traffic.
  struct Stats {
    std::size_t nodes = 0;           // live pool size (incl. the terminal)
    std::size_t peak_nodes = 0;      // high-water mark across rollbacks
    std::size_t unique_capacity = 0;
    double unique_load = 0.0;        // live nodes / table slots
    std::size_t cache_capacity = 0;
    std::uint64_t unique_inserts = 0;
    std::uint64_t cache_lookups = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t rollbacks = 0;
    std::size_t rollback_floor = 0;  // watermark of the most recent rollback
    std::size_t scratch_capacity = 0;  // query scratch map slots

    [[nodiscard]] double cache_hit_rate() const noexcept {
      return cache_lookups == 0
                 ? 0.0
                 : static_cast<double>(cache_hits) /
                       static_cast<double>(cache_lookups);
    }
  };
  [[nodiscard]] Stats stats() const noexcept;

 private:
  struct Node {
    std::uint32_t var;  // variable index; the terminal uses kTermVar
    BddRef low;         // stored regular (never complemented)
    BddRef high;
  };

  // Direct-mapped op-cache entry. Valid iff stamp == generation_, or the
  // entry is from the immediately preceding generation and every node it
  // references (arguments and result) lies strictly below the watermark of
  // the rollback that ended that generation — those nodes were untouched
  // by the truncation, so the canonical result still holds. A valid
  // cross-generation hit is re-stamped to the current generation, which
  // keeps hot sub-watermark entries (the resident logical BDDs' operation
  // results) alive across arbitrarily many rollbacks.
  struct CacheEntry {
    BddRef f = 0, g = 0, h = 0;
    BddRef result = 0;
    std::uint32_t stamp = 0;
    std::uint32_t max_node = 0;  // largest node index among f, g, h, result
  };

  static constexpr std::uint32_t kTermVar = 0xFFFFFFFFU;

  [[nodiscard]] static constexpr std::uint32_t index_of(BddRef r) noexcept {
    return r >> 1;
  }
  [[nodiscard]] bool is_terminal(BddRef r) const noexcept {
    return index_of(r) == 0;
  }
  [[nodiscard]] const Node& node(BddRef r) const noexcept {
    // A ref above the pool is a use-after-rollback — the exact bug class
    // the checkpoint contract exists to prevent.
    SCOUT_DCHECK(index_of(r) < nodes_.size(),
                 "BddManager: ref to node " << index_of(r) << " but pool has "
                                            << nodes_.size());
    return nodes_[index_of(r)];
  }

  // Per-query scratch: an open-addressing map from BddRef to a double
  // (sat_count's memo; intersects_cube and dag_size use it as a visited
  // set). begin() bumps the epoch, and a slot stamped with an older epoch
  // reads as empty, so starting a query clears nothing. The map doubles
  // when half full, so its size tracks the largest visited set.
  class QueryScratch {
   public:
    QueryScratch();
    void begin();
    // Adds `r` with `value`; false (map unchanged) if `r` is already in.
    bool insert(BddRef r, double value = 0.0);
    // The value stored for `r` in this query, or nullptr. Invalidated by
    // the next insert.
    [[nodiscard]] const double* find(BddRef r) const noexcept;
    [[nodiscard]] std::size_t capacity() const noexcept {
      return slots_.size();
    }

   private:
    struct Slot {
      BddRef key = 0;
      std::uint32_t stamp = 0;  // live iff == epoch_
      double value = 0.0;
    };
    [[nodiscard]] std::size_t home(BddRef r) const noexcept;
    void grow();

    std::vector<Slot> slots_;
    std::uint32_t shift_ = 0;  // 32 - log2(capacity): Fibonacci hashing
    std::uint32_t epoch_ = 0;
    std::size_t live_ = 0;     // slots stamped with epoch_
  };

  [[nodiscard]] BddRef make_node(std::uint32_t var, BddRef low, BddRef high);
  // low must be regular and low != high.
  [[nodiscard]] BddRef hash_cons(std::uint32_t var, BddRef low, BddRef high);
  void grow_table();
  void rebuild_table();
  void unwind_table(std::uint32_t floor);
  void bump_generation();

  template <typename Callback>
  bool foreach_cube_rec(BddRef f, std::vector<std::int8_t>& assignment,
                        std::size_t& visited, Callback& callback) const {
    if (f == kBddFalse) return true;
    if (f == kBddTrue) {
      ++visited;
      return static_cast<bool>(
          callback(std::span<const std::int8_t>(assignment)));
    }
    const Node& n = node(f);
    const BddRef c = f & 1U;
    assignment[n.var] = 0;
    bool keep_going = foreach_cube_rec(n.low ^ c, assignment, visited,
                                       callback);
    if (keep_going) {
      assignment[n.var] = 1;
      keep_going = foreach_cube_rec(n.high ^ c, assignment, visited,
                                    callback);
    }
    assignment[n.var] = -1;
    return keep_going;
  }

  std::uint32_t var_count_;
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> table_;  // unique table: node index, 0 = empty
  std::uint32_t table_mask_ = 0;
  std::vector<CacheEntry> cache_;     // direct-mapped op cache
  std::uint32_t cache_mask_ = 0;
  std::uint32_t generation_ = 1;
  std::uint32_t last_floor_ = 0;      // watermark of the most recent rollback
  std::vector<double> powers_;        // powers_[i] = 2^i, i in [0, var_count]

  // Query scratch, shared across calls.
  mutable std::vector<std::int8_t> phase_;  // per variable
  mutable QueryScratch scratch_;
  mutable std::vector<BddRef> walk_stack_;

  std::uint64_t unique_inserts_ = 0;
  std::uint64_t cache_lookups_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t rollbacks_ = 0;
  std::size_t peak_nodes_ = 1;
};

}  // namespace scout
