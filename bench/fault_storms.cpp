// Gray-failure & fault-storm bench: drive the continuous monitor through
// every fault class the chaos engine adds — gray rendering faults,
// correlated storm episodes (rack-power, rolling-upgrade, pod-brownout),
// the pluggable TCAM eviction policies, and delayed/reordered control
// delivery — and measure event-to-detection latency and final suspect
// sets under each.
//
// Self-verifying twice over, exiting non-zero on either gate:
//  * digest identity — per (fault class, seed) the serial-transport leg
//    and the phased MPSC-ring leg (--publishers threads) must produce
//    bit-identical verdict-stream digests: none of the new fault classes
//    may introduce publisher-count- or transport-dependent behaviour;
//  * journal round-trip — per (fault class, seed) a journaled scenario on
//    a fresh fabric must repair to a bit-identical state_fingerprint().
//
// Writes BENCH_storms.json: one row per (fault class, seed) ring leg with
// throughput, p50/p99 detection latency, final verdict sizes, the
// localizer's hypothesis size, and the fault-engine activity counters.
// Flags: --events N, --publishers N, --seeds N, --seed S, --switches N,
// --threads N, --json PATH.
#include <cstdio>
#include <string>
#include <utility>

#include "bench/bench_cli.h"
#include "src/faults/fault_policy.h"
#include "src/faults/gray_faults.h"
#include "src/faults/repair_journal.h"
#include "src/faults/storm.h"
#include "src/runtime/result_sink.h"
#include "src/scout/experiment.h"
#include "src/scout/sim_network.h"
#include "src/workload/policy_generator.h"

namespace {

using namespace scout;

// One leg per fault class; exactly one knob is active per leg so a gate
// failure names the culprit directly.
struct Leg {
  const char* name;
  double gray_rate;
  const char* storm;
  const char* evict;
  std::size_t delivery_window;
};

constexpr Leg kLegs[] = {
    {"gray", 0.15, "", "", 0},
    {"storm-rack-power", 0.0, "rack-power", "", 0},
    {"storm-rolling-upgrade", 0.0, "rolling-upgrade", "", 0},
    {"storm-pod-brownout", 0.0, "pod-brownout", "", 0},
    {"evict-fifo", 0.0, "", "fifo", 0},
    {"evict-random", 0.0, "", "random", 0},
    {"evict-lru-touch", 0.0, "", "lru-touch", 0},
    {"reorder", 0.0, "", "", 6},
};

// The journal gate: run the leg's fault class journaled on a fresh fabric
// and demand a bit-identical fingerprint after repair().
bool journal_round_trip(const Leg& leg, std::size_t switches,
                        std::uint64_t seed) {
  GeneratorProfile profile = GeneratorProfile::scaled(switches);
  profile.target_pairs = switches * 20;
  Rng net_rng{derive_seed(seed, 0xF0)};
  GeneratedNetwork generated = generate_network(profile, net_rng);
  SimNetwork net{std::move(generated.fabric), std::move(generated.policy)};
  net.deploy();
  net.clock().advance(3'600'000);
  if (leg.evict[0] != '\0') {
    // Policies are fault-selection bookkeeping, outside the fingerprint;
    // installing them before the baseline mirrors the monitoring setup.
    const std::uint64_t evict_seed = derive_seed(seed, 0xE0);
    for (const auto& agent : net.agents()) {
      agent->tcam().set_eviction_policy(make_eviction_policy(
          leg.evict, derive_seed(evict_seed, agent->id().value())));
    }
  }
  const std::uint64_t before = net.state_fingerprint();
  RepairJournal journal;
  journal.arm(net);
  if (leg.gray_rate > 0.0) {
    GrayFaultProfile gray;
    gray.misrender_rate = leg.gray_rate;
    gray.misrender_burst = 3;
    gray.drop_rate = leg.gray_rate * 0.5;
    gray.drop_burst = 2;
    (void)run_gray_agent_scenario(net, gray, /*n_gray=*/3, seed, &journal);
  } else if (leg.storm[0] != '\0') {
    StormSchedule storm{net, storm_profile(leg.storm),
                        derive_seed(seed, 0x57)};
    storm.run_episode(&journal);
    storm.run_episode(&journal);
  } else if (leg.delivery_window > 0) {
    (void)run_reordered_delivery_scenario(net, leg.delivery_window,
                                          /*n_resyncs=*/3, seed, &journal);
  } else {
    Rng rng{derive_seed(seed, 0xEE)};
    const auto agents = net.agents();
    for (int round = 0; round < 3; ++round) {
      const std::size_t idx = rng.below(agents.size());
      journal.snapshot_agent(net, agents[idx]->id());
      (void)agents[idx]->evict_rules(2, net.clock().now());
    }
  }
  journal.repair(net);
  return net.state_fingerprint() == before;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t switches =
      bench::size_flag(argc, argv, "switches", 12, 4, 256);
  const std::size_t events =
      bench::size_flag(argc, argv, "events", 1500, 1, 10'000'000);
  const std::size_t publishers =
      bench::size_flag(argc, argv, "publishers", 4, 1, 64);
  const std::size_t seeds = bench::size_flag(argc, argv, "seeds", 2, 1, 64);
  const std::uint64_t seed0 = bench::size_flag(argc, argv, "seed", 33);
  const auto executor = bench::executor_from_flags(argc, argv);

  runtime::BenchRecorder recorder{"fault_storms"};
  bool failed = false;

  for (std::size_t leg_idx = 0; leg_idx < std::size(kLegs); ++leg_idx) {
    const Leg& leg = kLegs[leg_idx];
    for (std::size_t s = 0; s < seeds; ++s) {
      const std::uint64_t seed = seed0 + s * 101;

      MonitoringOptions base;
      base.profile = GeneratorProfile::scaled(switches);
      base.profile.target_pairs = switches * 20;
      base.events = events;
      base.batch_ops = 12;
      base.seed = seed;
      base.localize_final = true;
      base.gray_rate = leg.gray_rate;
      base.storm = leg.storm;
      base.storm_every_batches = 1;  // batches are big; storm every drain
      base.evict_policy = leg.evict;
      base.delivery_window = leg.delivery_window;
      const MonitoringReport anchor =
          run_continuous_monitoring(base, *executor);

      MonitoringOptions ring = base;
      ring.publishers = publishers;
      const MonitoringReport report =
          run_continuous_monitoring(ring, *executor);

      const bool digest_ok = report.verdict_digest == anchor.verdict_digest;
      if (!digest_ok) {
        std::fprintf(stderr,
                     "error: digest-identity violated (%s, seed %llu): "
                     "ring %llx != serial %llx\n",
                     leg.name, static_cast<unsigned long long>(seed),
                     static_cast<unsigned long long>(report.verdict_digest),
                     static_cast<unsigned long long>(anchor.verdict_digest));
        failed = true;
      }
      const bool journal_ok = journal_round_trip(leg, switches, seed);
      if (!journal_ok) {
        std::fprintf(stderr,
                     "error: journal round-trip not fingerprint-exact "
                     "(%s, seed %llu)\n",
                     leg.name, static_cast<unsigned long long>(seed));
        failed = true;
      }

      const telemetry::MetricsSnapshot& snap = report.telemetry;
      const double p50_ms = report.wall_latency().quantile(0.50);
      const double p99_ms = report.wall_latency().quantile(0.99);
      const std::uint64_t episodes = snap.counter("faults.storm.episodes");
      const std::uint64_t misrenders = snap.counter("faults.gray.misrenders");
      std::uint64_t evictions = 0;
      for (const auto& c : snap.counters_with_prefix("tcam.evictions.")) {
        evictions += c.value;
      }
      recorder.add_row(
          {{"leg", static_cast<double>(leg_idx)},
           {"seed", static_cast<double>(seed)},
           {"publishers", static_cast<double>(publishers)},
           {"events", static_cast<double>(report.events)},
           {"batches", static_cast<double>(report.batches)},
           {"churn_ops", static_cast<double>(report.churn_ops)},
           {"events_per_sec", report.events_per_sec()},
           {"stream_p50_ms", p50_ms},
           {"stream_p99_ms", p99_ms},
           {"inconsistent_batches",
            static_cast<double>(report.inconsistent_batches)},
           {"final_inconsistent",
            static_cast<double>(report.final_check.inconsistent.size())},
           {"final_missing",
            static_cast<double>(report.final_check.missing_rules.size())},
           {"hypothesis_size", static_cast<double>(report.hypothesis_size)},
           {"storm_episodes", static_cast<double>(episodes)},
           {"gray_misrenders", static_cast<double>(misrenders)},
           {"gray_drops",
            static_cast<double>(snap.counter("faults.gray.drops"))},
           {"tcam_evictions", static_cast<double>(evictions)},
           {"digest_ok", digest_ok ? 1.0 : 0.0},
           {"journal_ok", journal_ok ? 1.0 : 0.0}});

      std::printf(
          "%-22s seed %3llu: %7.0f events/s, p50 %6.2f ms, p99 %6.2f ms, "
          "episodes %llu, misrenders %llu, evictions %llu, hypothesis %zu "
          "[digest %s, journal %s]\n",
          leg.name, static_cast<unsigned long long>(seed),
          report.events_per_sec(), p50_ms, p99_ms,
          static_cast<unsigned long long>(episodes),
          static_cast<unsigned long long>(misrenders),
          static_cast<unsigned long long>(evictions),
          report.hypothesis_size, digest_ok ? "ok" : "FAIL",
          journal_ok ? "ok" : "FAIL");
    }
  }

  if (!failed) {
    std::printf("fault-storm gates: OK (serial == ring digests, journaled "
                "repairs fingerprint-exact; %zu legs x %zu seeds)\n",
                std::size(kLegs), seeds);
  }
  const std::string json_path =
      bench::string_flag(argc, argv, "json", "BENCH_storms.json");
  if (!recorder.write_file(json_path)) {
    std::fprintf(stderr, "error: could not write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());
  return failed ? 1 : 0;
}
