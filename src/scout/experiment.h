// Experiment drivers for the paper's evaluation (§VI). Each bench binary is
// a thin printer over these functions, so tests can pin the experiment
// logic itself.
//
// Every driver fans its grid out over a runtime::Executor. A grid cell is a
// pure function of (options, coordinates): it builds its own network, BDD
// manager and RNG (seeded via derive_seed over the coordinates), so serial
// and multi-threaded executions produce bit-identical results and the
// reduction happens in cell-index order after the join.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/checker/equivalence_checker.h"
#include "src/riskmodel/risk_model.h"
#include "src/runtime/campaign.h"
#include "src/runtime/result_sink.h"
#include "src/scout/scout_system.h"
#include "src/stream/churn_generator.h"
#include "src/stream/incident.h"
#include "src/stream/incremental_checker.h"
#include "src/telemetry/metrics.h"
#include "src/workload/policy_generator.h"

namespace scout {

// ---------------------------------------------------------------------------
// Per-worker cached sweep networks
// ---------------------------------------------------------------------------
//
// The accuracy/gamma/scalability grids sweep one fixed fabric under
// different fault injections: every cell of a (profile, seed) group used to
// rebuild a byte-identical network (~70 ms at fig8 scale, ~22 s over a
// 300-cell campaign) just to damage it differently. The cache gives each
// pool worker one deployed network per profile: cells arm a RepairJournal
// (faults/repair_journal.h) before injecting and exact-repair afterwards,
// so the next cell on that worker starts from state bit-identical
// (SimNetwork::state_fingerprint) to a fresh deployment. Results are
// therefore unchanged — cached, uncached, serial and multi-threaded sweeps
// all memcmp-equal, which tests/test_network_repair.cpp pins.
//
// Every repair is verified against the baseline fingerprint, and a
// diverged entry is dropped (the next cell rebuilds). The fingerprint
// covers the *whole* observable state, immutable compiled/logical parts
// included, which is what catches out-of-domain mutations (policy edits,
// live pushes) that TCAM-only hashing could miss. It costs one full hash
// per cell (~3 ms at fig8 scale, vs the ~45 ms build it replaces).
//
// A slot holds one entry, keyed by (profile, network seed): sweeping a
// different profile on the same cache rebuilds instead of repairing.

struct SweepDiagnostics {
  std::size_t network_builds = 0;   // full generate+deploy passes
  std::size_t network_repairs = 0;  // exact-repair passes between cells
  double setup_seconds = 0.0;       // time in builds + repairs, all workers
};

class SweepNetworkCache {
 public:
  explicit SweepNetworkCache(std::size_t workers);
  ~SweepNetworkCache();
  SweepNetworkCache(const SweepNetworkCache&) = delete;
  SweepNetworkCache& operator=(const SweepNetworkCache&) = delete;

  [[nodiscard]] std::size_t workers() const noexcept;

  struct Stats {
    std::size_t builds = 0;   // cold slots + profile switches
    std::size_t repairs = 0;  // cells served from a repaired network
    std::size_t verify_failures = 0;  // diverged repairs (entry dropped)
  };
  [[nodiscard]] Stats stats() const;

  // Append one diagnostics row (cache_builds / cache_repairs /
  // cache_verify_failures) to a bench recorder's JSON output.
  void record_diagnostics(runtime::BenchRecorder& recorder) const;

  struct Entry;  // worker-owned deployed network + journal (experiment.cpp)

 private:
  friend struct SweepCacheAccess;
  runtime::WorkerCache<std::unique_ptr<Entry>> slots_;
  runtime::WorkerLocal<std::size_t> verify_failures_;
};

// ---------------------------------------------------------------------------
// Accuracy sweeps (Figures 8, 9, 10)
// ---------------------------------------------------------------------------

enum class AlgorithmKind : std::uint8_t { kScout, kScore };

struct AlgorithmSpec {
  std::string name;          // e.g. "SCOUT", "SCORE-0.6"
  AlgorithmKind kind = AlgorithmKind::kScout;
  double score_threshold = 1.0;  // SCORE hit-ratio threshold
  bool scout_stage2 = true;      // ablation knob (A1)
};

struct AccuracyOptions {
  GeneratorProfile profile;
  RiskModelKind model = RiskModelKind::kSwitch;
  std::size_t runs = 30;        // paper: 30 (simulation), 10 (testbed)
  std::size_t max_faults = 10;  // x-axis: 1..max_faults simultaneous faults
  // Change-log noise: benign modifications recorded before injection so
  // SCOUT's stage 2 cannot treat the change log as an oracle.
  std::size_t benign_changes = 20;
  std::int64_t change_window_ms = 60'000;
  // Checker mode. Accuracy sweeps default to the syntactic diff (exact for
  // the compiler's non-overlapping rulesets); integration tests pin
  // BDD/syntactic agreement. In kExactBdd mode each cached network entry
  // keeps its per-switch logical BDDs resident (LogicalBddCache), so cells
  // re-encode only the collected T side.
  CheckMode check_mode = CheckMode::kSyntactic;
  std::uint64_t seed = 42;
  // Per-worker cached sweep network with exact repair between cells (see
  // SweepNetworkCache above). Off = rebuild every cell (the benches' --no-
  // cache); results are bit-identical either way.
  bool cache_networks = true;
};

struct AccuracyCell {
  double precision = 0.0;
  double recall = 0.0;
};

struct AccuracySeries {
  std::string name;
  std::vector<AccuracyCell> by_faults;  // index i = i+1 simultaneous faults
};

// Bitwise equality of two sweep outputs (shape + memcmp over every
// AccuracyCell). The single definition of "identical" that both the fig8
// cached-vs-uncached gate and the differential tests apply.
[[nodiscard]] bool accuracy_series_identical(
    std::span<const AccuracySeries> a, std::span<const AccuracySeries> b);

// Fan the (fault-count x run) grid out over `executor`. Results are
// bit-identical for any executor / thread count, cached or not.
//
// `cache`: reuse an external per-worker network cache across sweeps (its
// worker count must cover the executor's); nullptr builds a sweep-local
// cache when options.cache_networks is set. `diagnostics`, when non-null,
// receives the build/repair tallies and setup wall time of this sweep.
[[nodiscard]] std::vector<AccuracySeries> run_accuracy_sweep(
    const AccuracyOptions& options, std::span<const AlgorithmSpec> algorithms,
    runtime::Executor& executor, SweepNetworkCache* cache = nullptr,
    SweepDiagnostics* diagnostics = nullptr);

// Serial convenience overload (tests, existing callers).
[[nodiscard]] std::vector<AccuracySeries> run_accuracy_sweep(
    const AccuracyOptions& options, std::span<const AlgorithmSpec> algorithms);

// ---------------------------------------------------------------------------
// Suspect-set reduction (Figure 7)
// ---------------------------------------------------------------------------

struct GammaOptions {
  GeneratorProfile profile;
  std::size_t faults = 1500;  // paper: 1500 simulated, 200 testbed
  std::uint64_t seed = 7;
  // Bucket upper bounds over the suspect-set size, e.g. {10, 50, 100, 500,
  // 1000} reproduces Figure 7(b)'s x-axis.
  std::vector<std::size_t> bucket_bounds{10, 50, 100, 500, 1000};
  // Fault stream is split into this many independent shards (each with its
  // own network and derived seed). Fixed by options — not by thread count —
  // so results do not depend on the executor.
  std::size_t shards = 8;
  // Shards on one worker share a cached network restored by exact repair
  // (the per-iteration clean-slate the shards already used now goes
  // through the same journal). Results are bit-identical either way.
  bool cache_networks = true;
};

struct GammaBucket {
  std::size_t lo = 0;
  std::size_t hi = 0;
  double mean_gamma = 0.0;
  double max_hypothesis = 0.0;
  std::size_t samples = 0;
};

[[nodiscard]] std::vector<GammaBucket> run_gamma_experiment(
    const GammaOptions& options, runtime::Executor& executor,
    SweepDiagnostics* diagnostics = nullptr);

[[nodiscard]] std::vector<GammaBucket> run_gamma_experiment(
    const GammaOptions& options);

// ---------------------------------------------------------------------------
// Scalability (§VI "Scalability")
// ---------------------------------------------------------------------------

struct ScalePoint {
  std::size_t switches = 0;
  std::size_t epg_pairs = 0;
  std::size_t elements = 0;
  std::size_t risks = 0;
  std::size_t edges = 0;
  double model_build_seconds = 0.0;
  double check_seconds = 0.0;
  double localize_seconds = 0.0;
};

// Full pipeline timing at `switches` leaves (controller risk model):
// generate + deploy + inject `n_faults` + check + build + localize. The
// executor overload shards the L-T check stage per switch
// (ScoutSystem::check_all); the default runs it serially.
[[nodiscard]] ScalePoint run_scalability_point(std::size_t switches,
                                               std::uint64_t seed,
                                               std::size_t n_faults = 5,
                                               std::size_t pairs_per_switch =
                                                   200);
[[nodiscard]] ScalePoint run_scalability_point(std::size_t switches,
                                               std::uint64_t seed,
                                               std::size_t n_faults,
                                               std::size_t pairs_per_switch,
                                               runtime::Executor&
                                                   check_executor);

// Campaign form: (switch-count x rep) grid fanned over the executor, one
// independently seeded full pipeline per cell. Returned in grid index order
// (switch-count major, rep minor).
struct ScaleCampaignOptions {
  std::vector<std::size_t> switch_counts{10, 30, 50, 100};
  std::size_t reps = 1;  // independent seeded repetitions per count
  std::uint64_t seed = 5;
  std::size_t n_faults = 5;
  std::size_t pairs_per_switch = 200;
  // The campaign builds one fabric per switch count (network seed derived
  // from (seed, count index)); reps vary only the injected faults, exactly
  // like the accuracy sweeps vary only the damage. That makes the fabric
  // repeat across a count's reps, so workers can repair instead of
  // rebuild. Off = fresh build per cell; results bit-identical either way.
  bool cache_networks = true;
};

[[nodiscard]] std::vector<ScalePoint> run_scalability_campaign(
    const ScaleCampaignOptions& options, runtime::Executor& executor,
    SweepDiagnostics* diagnostics = nullptr);

// ---------------------------------------------------------------------------
// Continuous monitoring (src/stream): churn -> events -> verdict stream
// ---------------------------------------------------------------------------
//
// Builds one fabric, attaches an EventBus, primes a MonitorLoop and then
// alternates churn pumps with drains until `events` events have been
// verified. The churn is stream::ConcurrentChurnDriver's seeded schedule:
// each pump is a quarter control ops (the mix's resync ... migrate
// weights) and three quarters data ops (its evict/corrupt weights), a pure
// function of (profile, seed, mix). The monitor mode (incremental vs full
// recheck per batch), the executor's worker count and the transport
// (serial, or 1/2/4 ring publishers) only change how events travel and
// how verdicts are computed, never what they are: such runs must produce
// identical verdict digests — bench/stream_latency.cpp and
// tests/test_stream_monitor.cpp enforce it.

struct MonitoringOptions {
  GeneratorProfile profile = GeneratorProfile::scaled(32);
  std::size_t events = 2000;   // stop after verifying this many events
  // Churn ops applied per drain — one monitoring interval's worth of
  // fabric activity. Event counts per batch vary: most ops publish 1-3
  // events, repair/resync ops burst a whole switch's reinstalls.
  std::size_t batch_ops = 24;
  stream::ChurnMix mix{};
  std::uint64_t seed = 21;
  bool incremental = true;         // false = full check_all per batch
  stream::IncrementalChecker::Options checker{};
  // Paced replay: sleep between batches toward this published-events/sec
  // target; 0 = unpaced (maximum sustained throughput measurement).
  double target_events_per_sec = 0.0;
  // Cross-check every batch verdict against a fresh serial
  // ScoutSystem::check_all on the same network (differential tests).
  bool verify_batches = false;
  // Run SCOUT localization over the final verdict's suspects.
  bool localize_final = true;
  // Telemetry. On, the run owns a MetricsRegistry wired through the
  // monitor and the report's snapshot carries every latency, ring and
  // fault-engine series; off is the zero-instrumentation baseline the
  // overhead gate in bench/stream_latency.cpp compares against.
  bool collect_telemetry = true;
  // Remediate the final verdict (reinstall missing rules + re-check).
  bool remediate_final = false;
  // Transport of the data-op schedule. 0 = serial: the driver executes it
  // on the calling thread through the bus. > 0 = that many publisher
  // threads append it to an MpscRing attached to the bus. The schedule is
  // publisher-count independent, so verdict digests match across
  // {publishers} x {workers}.
  std::size_t publishers = 0;
  // Ring shard capacity (0 = the MpscRing default). Tests set tiny values
  // to force overflow evictions -> shadow resyncs.
  std::size_t ring_capacity = 0;
  // Free-run (needs publishers > 0): publishers run the whole event budget
  // while the monitor drains concurrently (kBackpressure ring; evictions
  // only possible at stop()-time close). Batch digests are
  // timing-dependent here, so the correctness gate is
  // final_verdict_matches_fresh instead; pacing and verify_batches are
  // ignored.
  bool pipelined = false;
  // -- fault classes beyond the churn mix (src/faults) ----------------------
  // Gray agents: every agent gets a misrender/drop profile scaled off this
  // rate (misrender_rate = gray_rate with burst 3, drop_rate = gray_rate/2
  // with burst 2) before monitoring starts. Partial collections stay off —
  // they fault the detection path and would break the digest gates by
  // construction. 0 = no gray behaviour.
  double gray_rate = 0.0;
  // Correlated storms: profile name resolved via storm_profile() ("rack-
  // power", "rolling-upgrade", "pod-brownout"); empty = no storms. An
  // episode fires every `storm_every_batches` drained batches (phased) or
  // at every segment boundary (pipelined) — serial-phase actions either
  // way, so batch counts and therefore episode schedules are identical
  // across {serial, ring} legs.
  // Batches are big (a resync op bursts a whole switch's reinstalls), so
  // the default cadence fires within a handful of drains.
  std::string storm;
  std::size_t storm_every_batches = 2;
  // TCAM eviction policy name for every agent, resolved via
  // make_eviction_policy() (per-agent seeds, so "random" agents evict
  // independently); empty = the built-in lowest-priority behaviour.
  std::string evict_policy;
  // Delayed/reordered control-channel delivery window (gray channel);
  // 0 = immediate delivery.
  std::size_t delivery_window = 0;
  // -- incident provenance / flight recorder ---------------------------------
  // Correlate failing verdicts with fault-engine cause stamps into
  // Incident records (stream/incident.h): the run owns a CauseLedger,
  // attaches it to every fault engine and feeds an IncidentBuilder from
  // the monitor. Observe-only — verdict digests are bit-identical with
  // this on or off (tests/test_incidents.cpp pins it).
  bool collect_incidents = false;
  // Attach a flight recorder (telemetry/flight_recorder.h) to the monitor:
  // it holds the monitor's spans (report.trace_json exports them) and is
  // dumped on every clean→failing verdict transition.
  bool collect_flight = false;
  std::string flight_dump_path;
  // Storm split mode: an episode's damage and heal split across two
  // consecutive cadence ticks instead of self-healing atomically, so
  // failing verdicts can observe storm damage (incident-provenance legs).
  bool storm_split = false;
  // Gray drop-rate override: negative = the default gray_rate * 0.5;
  // >= 0 replaces it. Incident-accuracy legs pin 0 — dropped updates
  // publish no event, so their damage is structurally unattributable.
  double gray_drop_rate = -1.0;
};

// What only the driver knows. Every other number — detection latency
// (stream.wall_latency_ms / stream.sim_latency_ms), ring evictions and
// stalls (stream.ring_*), storm episodes (faults.storm.episodes), gray
// misrenders and drops (faults.gray.*), TCAM evictions (tcam.evictions.*),
// health (health.status) — is read from `telemetry`, the monitor's metrics
// snapshot taken at the end of the run (empty when collect_telemetry is
// off).
struct MonitoringReport {
  std::size_t events = 0;
  std::size_t batches = 0;
  std::size_t inconsistent_batches = 0;
  std::size_t churn_ops = 0;
  // Order-sensitive digest over the batch verdict stream (seeded from the
  // options seed, so runs with equal options-but-for-mode are comparable).
  std::uint64_t verdict_digest = 0;
  double wall_seconds = 0.0;    // whole run, churn included
  double drain_seconds = 0.0;   // verification cost only (mode-dependent)
  // The last batch's verdict, and what localization / remediation
  // (localize_final / remediate_final) made of it.
  FabricCheck final_check;
  std::size_t hypothesis_size = 0;
  std::size_t final_still_missing = 0;  // rules missing after remediation
  std::size_t verify_mismatches = 0;    // verify_batches failures
  // Pipelined runs: does the final composed verdict equal a fresh
  // ScoutSystem::check_all after quiescence? (true for every other mode.)
  bool final_verdict_matches_fresh = true;
  stream::IncrementalChecker::Stats checker;  // zeros in full-recheck mode
  stream::IncidentBuilder::Totals incident_totals;  // collect_incidents
  // Artifacts.
  telemetry::MetricsSnapshot telemetry;
  std::uint64_t flight_entries = 0;  // collect_flight: lifetime entries
  // collect_flight: Chrome trace of the ring's surviving entries, with the
  // telemetry snapshot embedded when collect_telemetry is on.
  std::string trace_json;
  std::string incident_json;         // scout-incidents-v1 log

  // Verification throughput: events / drain_seconds.
  [[nodiscard]] double events_per_sec() const noexcept;
  // End-to-end rate, churn included (overlapped with verification in
  // pipelined mode): events / wall_seconds. The >=10x concurrent-vs-serial
  // gate compares this one.
  [[nodiscard]] double wall_events_per_sec() const noexcept;
  // Event-to-detection latency out of the snapshot, wall clock (publish
  // steady_clock stamp -> verdict instant) and sim time (event SimTime ->
  // network clock at the verdict); empty histograms without telemetry.
  [[nodiscard]] const LogHistogram& wall_latency() const noexcept;
  [[nodiscard]] const LogHistogram& sim_latency() const noexcept;
};

[[nodiscard]] MonitoringReport run_continuous_monitoring(
    const MonitoringOptions& options, runtime::Executor& executor);

// ---------------------------------------------------------------------------
// Single-fabric sharded analysis ("how fast is one large check?")
// ---------------------------------------------------------------------------
//
// The campaign above parallelizes *across* independent cells; this driver
// parallelizes *within* one analysis: build one fabric, inject faults once,
// then run the sharded L-T check (ScoutSystem::check_all) at each requested
// worker count over the same deployment. The structural outputs must be
// identical at every worker count — only check_seconds may vary.

struct AnalysisScalingOptions {
  std::size_t switches = 64;
  std::size_t pairs_per_switch = 200;
  std::size_t n_faults = 5;
  std::uint64_t seed = 11;
  CheckMode check_mode = CheckMode::kSyntactic;
  std::vector<std::size_t> thread_counts{1, 2, 4};
};

struct AnalysisScalingPoint {
  std::size_t threads = 0;
  double check_seconds = 0.0;
  // Structural outputs (identical across worker counts by construction).
  std::size_t missing_rules = 0;
  std::size_t switches_inconsistent = 0;
  std::size_t extra_rules = 0;
};

[[nodiscard]] std::vector<AnalysisScalingPoint> run_analysis_scaling(
    const AnalysisScalingOptions& options);

}  // namespace scout
