#include "src/bdd/bdd.h"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#include "src/common/check.h"
#include "src/common/hash.h"

namespace scout {
namespace {

// SCOUT_BDD_PARANOID=1 re-verifies the full structural invariants after
// every rollback — O(nodes + table) per rollback, so it is an explicit
// debugging switch rather than a DCHECK. Read once; the flag cannot change
// mid-run.
[[nodiscard]] bool paranoid_invariants_enabled() noexcept {
  static const bool enabled = [] {
    // NOLINTNEXTLINE(concurrency-mt-unsafe): magic-static init runs once,
    // and nothing in this process calls setenv.
    const char* v = std::getenv("SCOUT_BDD_PARANOID");
    return v != nullptr && v[0] != '\0' && v[0] != '0';
  }();
  return enabled;
}

// Three-word key mixer for the unique table and op cache (common/hash.h).
[[nodiscard]] std::uint64_t mix3(std::uint32_t a, std::uint32_t b,
                                 std::uint32_t c) noexcept {
  return mix3_u64(a, b, c);
}

constexpr std::size_t kMinTable = 1 << 6;
constexpr std::size_t kMinCache = 1 << 12;
constexpr std::size_t kMaxCache = 1 << 21;
constexpr std::uint32_t kScratchBits = 8;  // initial query scratch: 256 slots

}  // namespace

BddManager::BddManager(std::uint32_t var_count, std::size_t node_hint)
    : var_count_(var_count) {
  nodes_.reserve(std::max<std::size_t>(node_hint, 2));
  nodes_.push_back(Node{kTermVar, kBddTrue, kBddTrue});  // the one terminal
  table_.assign(std::max(kMinTable, next_pow2(node_hint * 2)), 0);
  table_mask_ = static_cast<std::uint32_t>(table_.size() - 1);
  cache_.assign(std::clamp(next_pow2(node_hint), kMinCache, kMaxCache),
                CacheEntry{});
  cache_mask_ = static_cast<std::uint32_t>(cache_.size() - 1);
  powers_.resize(var_count_ + 1);
  double p = 1.0;
  for (std::uint32_t i = 0; i <= var_count_; ++i, p *= 2.0) powers_[i] = p;
  phase_.assign(var_count_, -1);
}

BddRef BddManager::hash_cons(std::uint32_t var, BddRef low, BddRef high) {
  SCOUT_DCHECK((low & 1U) == 0, "hash_cons: complemented low edge");
  SCOUT_DCHECK(low != high, "hash_cons: redundant node");
  std::size_t slot = mix3(var, low, high) & table_mask_;
  while (table_[slot] != 0) {
    const Node& n = nodes_[table_[slot]];
    if (n.var == var && n.low == low && n.high == high) {
      return table_[slot] << 1;
    }
    slot = (slot + 1) & table_mask_;
  }
  const auto idx = static_cast<std::uint32_t>(nodes_.size());
  nodes_.push_back(Node{var, low, high});
  table_[slot] = idx;
  ++unique_inserts_;
  peak_nodes_ = std::max(peak_nodes_, nodes_.size());
  // Grow at 3/4 load: lower thresholds measured slower here — the extra
  // rehash passes cost more than the longer probe runs they avoid.
  if (nodes_.size() * 4 >= table_.size() * 3) grow_table();
  return idx << 1;
}

BddRef BddManager::make_node(std::uint32_t var, BddRef low, BddRef high) {
  if (low == high) return low;  // reduction rule
  // Canonical form: the stored low edge is never complemented. Push a
  // complemented low up to the parent edge: node(v,¬a,¬b) == ¬node(v,a,b).
  if (low & 1U) {
    return hash_cons(var, low ^ 1U, high ^ 1U) ^ 1U;
  }
  return hash_cons(var, low, high);
}

void BddManager::grow_table() {
  table_.assign(table_.size() * 2, 0);
  table_mask_ = static_cast<std::uint32_t>(table_.size() - 1);
  rebuild_table();
  // Keep the op cache roughly half the unique table so a hot build does
  // not thrash a tiny cache (lossy: resizing drops prior entries).
  const std::size_t want =
      std::clamp(table_.size() / 2, kMinCache, kMaxCache);
  if (want > cache_.size()) {
    cache_.assign(want, CacheEntry{});
    cache_mask_ = static_cast<std::uint32_t>(cache_.size() - 1);
  }
}

void BddManager::rebuild_table() {
  std::fill(table_.begin(), table_.end(), 0U);
  for (std::uint32_t idx = 1; idx < nodes_.size(); ++idx) {
    const Node& n = nodes_[idx];
    std::size_t slot = mix3(n.var, n.low, n.high) & table_mask_;
    while (table_[slot] != 0) slot = (slot + 1) & table_mask_;
    table_[slot] = idx;
  }
}

void BddManager::unwind_table(std::uint32_t floor) {
  // The table is the in-order insertion of nodes 1..n. Node n went into
  // the first free slot of its probe run, and every slot that run passed
  // holds an older node, so clearing node n's slot gives back exactly the
  // table of nodes 1..n-1. Newest first, that holds all the way down to
  // `floor`.
  for (auto idx = static_cast<std::uint32_t>(nodes_.size() - 1); idx >= floor;
       --idx) {
    const Node& n = nodes_[idx];
    std::size_t slot = mix3(n.var, n.low, n.high) & table_mask_;
    while (table_[slot] != idx) {
      SCOUT_CHECK(table_[slot] != 0,
                  "BddManager: rollback found no unique-table slot for node "
                      << idx);
      slot = (slot + 1) & table_mask_;
    }
    table_[slot] = 0;
  }
}

void BddManager::bump_generation() {
  if (++generation_ == 0) {
    // Wrapped: stale entries could alias stamp 0; wipe them once. The
    // floor must drop too, or wiped (stamp-0) entries could alias the
    // previous-generation survival test while generation_ is 1.
    std::fill(cache_.begin(), cache_.end(), CacheEntry{});
    generation_ = 1;
    last_floor_ = 0;
  }
}

void BddManager::rollback(Checkpoint cp) {
  if (cp.nodes < 1 || cp.nodes > nodes_.size()) {
    throw std::invalid_argument{"BddManager::rollback: bad checkpoint"};
  }
  if (cp.nodes == nodes_.size()) return;  // nothing was built above it
  // Both paths leave the same table; pick the one that touches less.
  if (nodes_.size() - cp.nodes < cp.nodes) {
    unwind_table(cp.nodes);
    nodes_.resize(cp.nodes);
  } else {
    nodes_.resize(cp.nodes);
    rebuild_table();
  }
  // Op-cache entries may reference truncated nodes: bump the generation.
  // Entries referencing only nodes below the watermark survive one
  // generation via the max_node tag (revalidated and re-stamped on hit),
  // so the resident-logical work below the watermark keeps its cache.
  last_floor_ = cp.nodes;
  bump_generation();
  ++rollbacks_;
  if (paranoid_invariants_enabled()) {
    SCOUT_CHECK(check_invariants(),
                "BddManager: structural invariants violated after rollback"
                " to watermark "
                    << cp.nodes << " (SCOUT_BDD_PARANOID)");
  }
}

BddRef BddManager::var(std::uint32_t index) {
  if (index >= var_count_) throw std::out_of_range{"BddManager::var"};
  return make_node(index, kBddFalse, kBddTrue);
}

BddRef BddManager::nvar(std::uint32_t index) {
  if (index >= var_count_) throw std::out_of_range{"BddManager::nvar"};
  return make_node(index, kBddTrue, kBddFalse);
}

BddRef BddManager::ite(BddRef f, BddRef g, BddRef h) {
  // Terminal rules.
  if (f == kBddTrue) return g;
  if (f == kBddFalse) return h;
  if (g == h) return g;
  if (f == g) {
    g = kBddTrue;  // ITE(f, f, h) = ITE(f, 1, h)
  } else if (f == (g ^ 1U)) {
    g = kBddFalse;  // ITE(f, ¬f, h) = ITE(f, 0, h)
  }
  if (f == h) {
    h = kBddFalse;  // ITE(f, g, f) = ITE(f, g, 0)
  } else if (f == (h ^ 1U)) {
    h = kBddTrue;  // ITE(f, g, ¬f) = ITE(f, g, 1)
  }
  if (g == kBddTrue && h == kBddFalse) return f;
  if (g == kBddFalse && h == kBddTrue) return f ^ 1U;
  if (g == h) return g;

  // Commutative standard triples: pick a canonical argument order so
  // equivalent calls share one cache entry. `before` orders by top
  // variable, then node index (both operands are non-terminal here: the
  // mixed-terminal forms were all resolved above).
  const auto before = [this](BddRef a, BddRef b) noexcept {
    const Node& na = node(a);
    const Node& nb = node(b);
    if (na.var != nb.var) return na.var < nb.var;
    return index_of(a) < index_of(b);
  };
  if (g == kBddTrue) {  // f ∨ h == ITE(h, 1, f)
    if (before(h, f)) std::swap(f, h);
  } else if (h == kBddFalse) {  // f ∧ g == ITE(g, f, 0)
    if (before(g, f)) std::swap(f, g);
  } else if (g == kBddFalse) {  // ¬f ∧ h == ITE(¬h, 0, ¬f)
    if (before(h, f)) {
      const BddRef t = f;
      f = h ^ 1U;
      h = t ^ 1U;
    }
  } else if (h == kBddTrue) {  // ¬f ∨ g == ITE(¬g, ¬f, 1)
    if (before(g, f)) {
      const BddRef t = f;
      f = g ^ 1U;
      g = t ^ 1U;
    }
  } else if (g == (h ^ 1U)) {  // f XNOR g == ITE(g, f, ¬f)
    if (before(g, f)) {
      const BddRef t = f;
      f = g;
      g = t;
      h = t ^ 1U;
    }
  }

  // Complement canonicalization: first argument regular, then-branch
  // regular (complement pulled out of the result).
  if (f & 1U) {
    f ^= 1U;
    std::swap(g, h);
  }
  bool negate_result = false;
  if (g & 1U) {
    negate_result = true;
    g ^= 1U;
    h ^= 1U;
  }

  ++cache_lookups_;
  const std::size_t slot = mix3(f, g, h) & cache_mask_;
  {
    CacheEntry& e = cache_[slot];
    // Current generation, or survived the last rollback: an entry from the
    // immediately preceding generation whose nodes all sit below that
    // rollback's watermark was untouched by the truncation.
    const bool live =
        e.stamp == generation_ ||
        (e.stamp + 1 == generation_ && e.max_node < last_floor_);
    if (live && e.f == f && e.g == g && e.h == h) {
      e.stamp = generation_;  // keep hot survivors alive across rollbacks
      ++cache_hits_;
      return negate_result ? (e.result ^ 1U) : e.result;
    }
  }

  // Copies, not references: the recursion below may reallocate the pool.
  const Node nf = node(f);
  const Node ng = node(g);
  const Node nh = node(h);
  const std::uint32_t v = std::min({nf.var, ng.var, nh.var});
  // Cofactors; a complemented edge complements both children (the low
  // child is stored regular, so folding the parent's bit is enough).
  const BddRef f0 = nf.var == v ? nf.low : f;
  const BddRef f1 = nf.var == v ? nf.high : f;
  const BddRef g0 = ng.var == v ? ng.low : g;
  const BddRef g1 = ng.var == v ? ng.high : g;
  const BddRef h0 = nh.var == v ? (nh.low ^ (h & 1U)) : h;
  const BddRef h1 = nh.var == v ? (nh.high ^ (h & 1U)) : h;

  const BddRef lo = ite(f0, g0, h0);
  const BddRef hi = ite(f1, g1, h1);
  const BddRef result = make_node(v, lo, hi);

  const std::uint32_t max_node =
      std::max(std::max(index_of(f), index_of(g)),
               std::max(index_of(h), index_of(result)));
  cache_[slot] = CacheEntry{f, g, h, result, generation_, max_node};
  return negate_result ? (result ^ 1U) : result;
}

BddRef BddManager::cube(const BddCube& literals) {
  // Build bottom-up in descending variable order so each make_node call is
  // O(1) — no ITE needed for a pure conjunction of literals. Rule encoding
  // (packet_encoding) emits literals in strictly ascending order, so the
  // common case just walks the input backwards without copying or sorting.
  bool ascending = true;
  for (std::size_t i = 1; i < literals.size(); ++i) {
    if (literals[i - 1].var >= literals[i].var) {
      ascending = false;
      break;
    }
  }
  const auto fold = [this](auto first, auto last) {
    BddRef acc = kBddTrue;
    std::uint32_t prev_var = var_count_;
    for (auto it = first; it != last; ++it) {
      if (it->var >= var_count_) throw std::out_of_range{"BddManager::cube"};
      if (it->var == prev_var) {
        throw std::invalid_argument{"BddManager::cube: duplicate variable"};
      }
      prev_var = it->var;
      acc = it->positive ? make_node(it->var, kBddFalse, acc)
                         : make_node(it->var, acc, kBddFalse);
    }
    return acc;
  };
  if (ascending) return fold(literals.rbegin(), literals.rend());
  BddCube sorted = literals;
  std::sort(sorted.begin(), sorted.end(),
            [](const BddLiteral& a, const BddLiteral& b) {
              return a.var > b.var;
            });
  return fold(sorted.begin(), sorted.end());
}

bool BddManager::evaluate(BddRef f,
                          const std::vector<bool>& assignment) const {
  SCOUT_DCHECK(assignment.size() >= var_count_,
               "evaluate: " << assignment.size() << " values for "
                            << var_count_ << " variables");
  while (!is_terminal(f)) {
    const Node& n = node(f);
    f = (assignment[n.var] ? n.high : n.low) ^ (f & 1U);
  }
  return f == kBddTrue;
}

BddManager::QueryScratch::QueryScratch()
    : slots_(std::size_t{1} << kScratchBits), shift_(32 - kScratchBits) {}

void BddManager::QueryScratch::begin() {
  live_ = 0;
  if (++epoch_ == 0) {
    // Wrapped: stale stamps could alias epoch 0; reset them once.
    std::fill(slots_.begin(), slots_.end(), Slot{});
    epoch_ = 1;
  }
}

std::size_t BddManager::QueryScratch::home(BddRef r) const noexcept {
  // Fibonacci hashing: a query visits runs of nearby refs, and the
  // multiplicative spread keeps those runs from clustering.
  return static_cast<std::uint32_t>(r * 0x9E3779B1U) >> shift_;
}

bool BddManager::QueryScratch::insert(BddRef r, double value) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home(r);
  while (slots_[i].stamp == epoch_) {
    if (slots_[i].key == r) return false;
    i = (i + 1) & mask;
  }
  slots_[i] = Slot{r, epoch_, value};
  if (++live_ * 2 > slots_.size()) grow();
  return true;
}

const double* BddManager::QueryScratch::find(BddRef r) const noexcept {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home(r);
  while (slots_[i].stamp == epoch_) {
    if (slots_[i].key == r) return &slots_[i].value;
    i = (i + 1) & mask;
  }
  return nullptr;
}

void BddManager::QueryScratch::grow() {
  std::vector<Slot> old(slots_.size() * 2);
  old.swap(slots_);
  --shift_;
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.stamp != epoch_) continue;
    std::size_t i = home(s.key);
    while (slots_[i].stamp == epoch_) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

bool BddManager::intersects_cube(BddRef f, const BddCube& partial) const {
  // phase_[v]: -1 unconstrained, 0 forced low, 1 forced high. The scratch
  // lives in the manager and is restored to -1 before returning, so the
  // per-rule loop in the checker allocates nothing. Validate before the
  // first write: a mid-loop throw must not leave phases behind for later
  // calls.
  for (const auto& lit : partial) {
    if (lit.var >= var_count_) {
      throw std::out_of_range{"BddManager::intersects_cube"};
    }
  }
  for (const auto& lit : partial) phase_[lit.var] = lit.positive ? 1 : 0;
  scratch_.begin();

  // DFS with a visited set keyed by ref (node, complement): a ref that
  // failed once under this cube always fails (the cube fixes the same
  // branch every time we reach it).
  bool found = false;
  walk_stack_.clear();
  walk_stack_.push_back(f);
  while (!walk_stack_.empty()) {
    const BddRef cur = walk_stack_.back();
    walk_stack_.pop_back();
    if (cur == kBddTrue) {
      found = true;
      break;
    }
    if (cur == kBddFalse || !scratch_.insert(cur)) continue;
    const Node& n = node(cur);
    const BddRef c = cur & 1U;
    const std::int8_t ph = phase_[n.var];
    if (ph != 1) walk_stack_.push_back(n.low ^ c);
    if (ph != 0) walk_stack_.push_back(n.high ^ c);
  }
  for (const auto& lit : partial) phase_[lit.var] = -1;
  return found;
}

double BddManager::sat_count(BddRef f) const {
  if (f == kBddFalse) return 0.0;
  if (f == kBddTrue) return powers_[var_count_];
  scratch_.begin();

  // memo[ref] = satisfying assignments of the function at `ref` over
  // variables [var(ref), var_count). Memoized per *ref* — both phases of a
  // node — so every contribution is a sum of path products: computing a
  // complement as 2^k - m would cancel catastrophically in a 68-variable
  // space (a 1-packet set under a 2^56 subtraction rounds to 0). Explicit
  // post-order stack: no std::function, no recursion.
  walk_stack_.clear();
  walk_stack_.push_back(f);
  while (!walk_stack_.empty()) {
    const BddRef cur = walk_stack_.back();
    if (scratch_.find(cur) != nullptr) {
      walk_stack_.pop_back();
      continue;
    }
    const Node& n = node(cur);
    const BddRef lo = n.low ^ (cur & 1U);   // cofactors under complement
    const BddRef hi = n.high ^ (cur & 1U);
    const double* lo_memo = is_terminal(lo) ? nullptr : scratch_.find(lo);
    const double* hi_memo = is_terminal(hi) ? nullptr : scratch_.find(hi);
    bool ready = true;
    if (!is_terminal(lo) && lo_memo == nullptr) {
      walk_stack_.push_back(lo);
      ready = false;
    }
    if (!is_terminal(hi) && hi_memo == nullptr) {
      walk_stack_.push_back(hi);
      ready = false;
    }
    if (!ready) continue;
    walk_stack_.pop_back();
    const auto edge = [&](BddRef r, const double* memo) -> double {
      // Count of r over variables [n.var + 1, var_count).
      if (is_terminal(r)) {
        return r == kBddTrue ? powers_[var_count_ - n.var - 1] : 0.0;
      }
      const std::uint32_t cv = node(r).var;
      return *memo * powers_[cv - n.var - 1];
    };
    // Both memos are read before the insert, which may move the slots.
    (void)scratch_.insert(cur, edge(lo, lo_memo) + edge(hi, hi_memo));
  }

  // Vars above the root are free.
  return *scratch_.find(f) * powers_[node(f).var];
}

std::vector<std::int8_t> BddManager::any_sat(BddRef f) const {
  if (f == kBddFalse) {
    throw std::invalid_argument{"any_sat: unsatisfiable"};
  }
  std::vector<std::int8_t> assignment(var_count_, -1);
  while (!is_terminal(f)) {
    const Node& n = node(f);
    const BddRef lo = n.low ^ (f & 1U);
    if (lo != kBddFalse) {
      assignment[n.var] = 0;
      f = lo;
    } else {
      assignment[n.var] = 1;
      f = n.high ^ (f & 1U);
    }
  }
  return assignment;
}

std::size_t BddManager::dag_size(BddRef f) const {
  scratch_.begin();
  // Visited per node: keyed by the regular ref, complement ignored.
  std::size_t count = 0;
  walk_stack_.clear();
  walk_stack_.push_back(f & ~1U);
  while (!walk_stack_.empty()) {
    const BddRef cur = walk_stack_.back();
    walk_stack_.pop_back();
    if (!scratch_.insert(cur)) continue;
    ++count;
    if (is_terminal(cur)) continue;
    const Node& n = node(cur);
    walk_stack_.push_back(n.low);  // stored regular
    walk_stack_.push_back(n.high & ~1U);
  }
  return count;
}

bool BddManager::check_invariants() const {
  if (nodes_.empty() || nodes_[0].var != kTermVar) return false;
  // The table holds live nodes only: a slot a rollback failed to clear
  // would point at or past the pool top.
  std::size_t occupied = 0;
  for (const std::uint32_t idx : table_) {
    if (idx == 0) continue;
    if (idx >= nodes_.size()) return false;
    ++occupied;
  }
  if (occupied != nodes_.size() - 1) return false;
  std::size_t in_table = 0;
  for (std::uint32_t idx = 1; idx < nodes_.size(); ++idx) {
    const Node& n = nodes_[idx];
    if (n.var >= var_count_) return false;
    if (n.low & 1U) return false;  // low edge never complemented
    if (n.low == n.high) return false;
    // Bounds before dereference: a dangling edge is exactly the corruption
    // this check exists to report, not to crash on.
    if (index_of(n.low) >= nodes_.size() || index_of(n.high) >= nodes_.size()) {
      return false;
    }
    const auto child_var = [this](BddRef r) {
      return nodes_[index_of(r)].var;  // kTermVar for the terminal
    };
    if (child_var(n.low) <= n.var || child_var(n.high) <= n.var) return false;
    // Exactly this node under its key in the unique table.
    std::size_t slot = mix3(n.var, n.low, n.high) & table_mask_;
    while (table_[slot] != 0) {
      if (table_[slot] == idx) {
        ++in_table;
        break;
      }
      const Node& o = nodes_[table_[slot]];
      if (o.var == n.var && o.low == n.low && o.high == n.high) {
        return false;  // duplicate node
      }
      slot = (slot + 1) & table_mask_;
    }
  }
  return in_table == nodes_.size() - 1;
}

BddManager::Stats BddManager::stats() const noexcept {
  Stats s;
  s.nodes = nodes_.size();
  s.peak_nodes = peak_nodes_;
  s.unique_capacity = table_.size();
  s.unique_load =
      static_cast<double>(nodes_.size()) / static_cast<double>(table_.size());
  s.cache_capacity = cache_.size();
  s.unique_inserts = unique_inserts_;
  s.cache_lookups = cache_lookups_;
  s.cache_hits = cache_hits_;
  s.rollbacks = rollbacks_;
  s.rollback_floor = last_floor_;
  s.scratch_capacity = scratch_.capacity();
  return s;
}

}  // namespace scout
