// Deterministic churn: the paper's §II-B / §V-B failure and policy actions
// replayed against a live SimNetwork, every action publishing its events to
// the attached bus. ConcurrentChurnDriver below is the one op stream the
// continuous monitoring driver pumps between drains; the same (seed, mix,
// network) always produces the same op sequence and therefore the same
// event stream, which is what lets incremental and full-recheck monitoring
// runs, and serial and ring transports, be compared verdict-for-verdict.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/rng.h"
#include "src/scout/sim_network.h"
#include "src/stream/cause.h"
#include "src/stream/event_bus.h"

namespace scout::stream {

// Relative op weights (zero disables an op). A quarter of each pump (at
// least one op) is control ops; the rest are data ops. evict/corrupt pick
// among the data ops, the other six weights among the control ops, each
// group normalized on its own. The defaults model a fault-dominated live fabric: a steady
// drip of 1-3-event TCAM faults, occasional repair/resync bursts that
// republish a whole switch, and rare policy-layer actions (a migration
// bumps the compiled epoch, the monitor's most expensive path).
struct ChurnMix {
  double evict = 0.50;           // data: agent drops 1-3 low-priority rules
  double corrupt = 0.28;         // data: one TCAM bit flip, half detected
  double resync = 0.05;          // controller re-pushes one healthy switch
  double crash = 0.015;          // agent crashes mid-resync (switch wiped)
  double recover = 0.015;        // crashed agent recovers + resync
  double channel_flap = 0.03;    // control channel down; up + resync later
  double benign_change = 0.10;   // record-only policy churn (stage-2 noise)
  double migrate = 0.005;        // endpoint migration: epoch bump + resyncs
};

// The control-plane ops of a ChurnMix (everything that touches the
// controller: resyncs, crashes, recoveries, flaps, change records,
// migrations), run serially. ConcurrentChurnDriver runs one as the serial
// tail of each interval; the mix's evict/corrupt weights are ignored here.
class ChurnGenerator {
 public:
  ChurnGenerator(SimNetwork& net, EventBus& bus, std::uint64_t seed,
                 ChurnMix mix = {});

  // Apply `ops` control ops and return how many events they published.
  // Most publish nothing or a handful; repair/resync ops burst a whole
  // switch's reinstalls.
  std::size_t pump(std::size_t ops);

  [[nodiscard]] std::size_t ops_applied() const noexcept { return ops_; }

  // Incident-provenance ground truth: while attached, every crash (the one
  // control op that can break L-T consistency) appends one entry. Causes
  // are minted regardless (counter bumps, no RNG draws), so attaching a
  // ledger never changes the op stream or the verdict digests. The other
  // ops (resyncs, recoveries, flaps, change records, migrations) stay
  // null-cause.
  void set_cause_ledger(CauseLedger* ledger) noexcept { ledger_ = ledger; }

 private:
  void step();
  // A random connected, non-crashed switch; nullptr when none qualifies.
  [[nodiscard]] SwitchAgent* healthy_agent();

  SimNetwork* net_;
  EventBus* bus_;
  Rng rng_;
  ChurnMix mix_;
  std::size_t ops_ = 0;
  std::vector<SwitchId> crashed_;
  std::vector<SwitchId> disconnected_;
  CauseLedger* ledger_ = nullptr;
  std::uint64_t cause_ordinal_ = 0;
};

// The churn schedule. Each pump() interval is a quarter control ops, run
// serially by a nested ChurnGenerator tail, and three quarters data-plane
// faults (evict / corrupt, the switch-local ops), drawn up front as a
// schedule. With publishers == 0 the driver executes that schedule itself
// through the bus: the serial transport, no threads and no ring. With
// publishers > 0, that many persistent publisher threads execute it and
// append to the bus's attached MpscRing.
//
// Determinism contract: the data-op schedule is a pure function of
// (seed, interval index, op index) — never of the publisher count or of
// thread timing. Each op pins its fault parameters at schedule time
// (agent, kind, private rng seed, pre-advanced sim time); publishers only
// execute them. All of one switch's ops route to one shard
// (agent_index % publishers) and stay in schedule order there, so
// per-switch event order — the only order the incremental checker's
// verdict depends on — is identical across 1/2/4 publishers and equal to
// the serial transport's. That is what lets tests/test_stream_monitor.cpp
// and bench/stream_latency.cpp demand bit-identical verdict digests
// between the serial and concurrent legs.
//
// Two driving modes:
//  * pump(ops) — phased: schedule the interval's data ops, run them to
//    completion (serially or on the publishers), ingest the ring, then run
//    the serial control tail. The monitor drains between pumps (the
//    lock-step shape run_continuous_monitoring uses for digest comparison).
//  * start(total) / producing() / stop() — pipelined, publishers > 0 only:
//    publishers free-run the whole budget while the monitor drains
//    concurrently. Use a kBackpressure ring so nothing is evicted mid-run;
//    stop() closes the ring (unblocking any spinner) and joins the
//    in-flight generation.
class ConcurrentChurnDriver {
 public:
  struct Options {
    // 0 = serial transport; > 0 needs a ring with at least this many
    // shards attached to the bus.
    std::size_t publishers = 0;
    ChurnMix mix{};
  };

  ConcurrentChurnDriver(SimNetwork& net, EventBus& bus, std::uint64_t seed,
                        Options options);
  ~ConcurrentChurnDriver();
  ConcurrentChurnDriver(const ConcurrentChurnDriver&) = delete;
  ConcurrentChurnDriver& operator=(const ConcurrentChurnDriver&) = delete;

  // Phased interval: data phase, ring ingest, control tail. Returns the
  // events that reached the serial log. Driver thread only.
  std::size_t pump(std::size_t ops);

  // Pipelined: hand the publishers a segment's schedule and return
  // immediately. Driver thread only; requires publishers > 0.
  void start(std::size_t total_ops);
  [[nodiscard]] bool producing() const;
  // Serial control-plane tail for `ops` interval-ops (the same quarter
  // pump() runs as control ops). Pipelined drivers call this between
  // free-run segments, at publisher quiescence — control churn mutates the
  // controller and republishes switches, which must never overlap the
  // data-plane publishers.
  std::size_t pump_control(std::size_t ops);
  // Request early stop, close the ring (unblocks backpressure spinners)
  // and join the in-flight generation. Idempotent.
  void stop();

  // Attach the provenance ground-truth ledger (data ops and the serial
  // control tail alike). Data-op truths are buffered as per-op mutation
  // flags by whichever publisher executed the op and folded into the
  // ledger serially at generation quiescence, so the ledger itself is
  // never touched concurrently.
  void set_cause_ledger(CauseLedger* ledger) noexcept {
    ledger_ = ledger;
    control_.set_cause_ledger(ledger);
  }

  [[nodiscard]] std::size_t ops_applied() const noexcept;

 private:
  struct DataOp {
    enum class Kind : std::uint8_t { kEvict, kCorrupt };
    std::size_t agent_index = 0;
    Kind kind = Kind::kEvict;
    std::uint64_t rng_seed = 0;  // private to the op: no shared rng state
    SimTime time{};              // pre-advanced at schedule time
    // Minted at schedule time, so the id is a pure function of
    // (seed, interval, op index) — identical across publisher counts and
    // across the serial / ring transports, like every other op field.
    CauseId cause{};
  };

  void make_schedule(std::size_t data_ops);
  // Executes the op under its CauseScope; returns whether it mutated
  // state (an empty evict or a corrupt on an empty TCAM is not truth).
  bool run_op(const DataOp& op);
  // Serial fold of the generation's mutation flags into the ledger.
  // Driver thread only, at publisher quiescence.
  void fold_schedule_truths();
  void dispatch(bool wait_done);
  void worker_main(std::size_t pub);

  SimNetwork* net_;
  EventBus* bus_;
  Options options_;
  std::uint64_t schedule_seed_;
  std::uint64_t interval_ = 0;
  ChurnGenerator control_;

  // Read-only to workers while a generation is in flight; mutated by the
  // driver only between generations (pending_workers_ == 0).
  std::vector<DataOp> schedule_;
  // Parallel to schedule_: 1 where the op mutated state. Each slot is
  // written by exactly one worker (the op's shard owner) while a
  // generation is in flight — disjoint bytes, no race — and read by the
  // driver only after the generation barrier.
  std::vector<std::uint8_t> schedule_mutated_;
  bool schedule_folded_ = true;
  CauseLedger* ledger_ = nullptr;
  std::uint64_t data_cause_ordinal_ = 0;
  std::atomic<std::size_t> executed_{0};
  std::atomic<bool> stop_requested_{false};

  // Generation barrier: the driver bumps generation_ to hand the current
  // schedule_ to every worker; each worker runs its residue class and
  // decrements pending_workers_, the last one waking done_cv_.
  mutable Mutex mu_;
  CondVar work_cv_;
  CondVar done_cv_;
  std::uint64_t generation_ SCOUT_GUARDED_BY(mu_) = 0;
  std::size_t pending_workers_ SCOUT_GUARDED_BY(mu_) = 0;
  bool shutdown_ SCOUT_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace scout::stream
