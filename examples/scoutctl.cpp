// scoutctl — drive the SCOUT pipeline against simulated failure scenarios
// and emit human-readable or JSON reports.
//
// Usage:
//   scoutctl [scenario] [--seed N] [--json] [--remediate]
//   scoutctl monitor [--seed N] [--events N] [--full] [--remediate]
//                    [--telemetry FILE] [--gray-rate R] [--storm PROFILE]
//                    [--evict-policy NAME] [--incidents FILE]
//                    [--flight-recorder FILE]
//   scoutctl stats [--seed N] [--events N] [--full] [--json]
//
// Scenarios:
//   object-fault   remove one filter's rules everywhere        (default)
//   overflow       TCAM overflow via continuous filter adds    (§V-B #1)
//   unresponsive   switch drops instructions mid-push          (§V-B #2)
//   corruption     random TCAM bit flips, half detected
//   eviction       local agent evicts rules silently
//   monitor        continuous verification: churn a fabric and verify the
//                  event stream incrementally (src/stream); --full flips
//                  to the re-check-everything baseline; --telemetry FILE
//                  turns on the flight recorder and writes its spans as a
//                  Chrome trace (with an embedded metrics snapshot)
//                  viewable in chrome://tracing or Perfetto;
//                  --gray-rate arms gray rendering faults on every agent,
//                  --storm fires correlated episodes (rack-power,
//                  rolling-upgrade, pod-brownout), --evict-policy swaps
//                  the TCAM eviction strategy (lowest-priority, fifo,
//                  random, lru-touch) — unknown names are rejected by the
//                  factories before the run starts; --incidents FILE turns
//                  on incident provenance (cause-stamped fault episodes
//                  correlated with failing verdicts) and writes the
//                  incident log as JSON; --flight-recorder FILE arms the
//                  in-memory flight recorder and writes its ring dump —
//                  the same ring --telemetry exports, so both files hold
//                  the last entries of each lane (lane 0 the driver, lane
//                  s+1 checker shard s)
//   stats          run the monitor scenario and dump its metrics snapshot
//                  (Prometheus text format, or JSON with --json): the
//                  registry's series plus the bus, ring, checker, arena
//                  and agent counts MonitorLoop::snapshot_metrics() reads
//                  at the end of the run, and the health.* grades it
//                  computes from those counts
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>

#include "bench/bench_cli.h"
#include "src/faults/fault_injector.h"
#include "src/faults/fault_policy.h"
#include "src/faults/physical_faults.h"
#include "src/faults/storm.h"
#include "src/scout/experiment.h"
#include "src/scout/report_json.h"
#include "src/scout/scout_system.h"
#include "src/telemetry/metrics.h"
#include "src/workload/three_tier.h"

namespace {

using namespace scout;

// Fault-engine knobs honored only by the monitor subcommand.
struct FaultFlags {
  double gray_rate = 0.0;
  std::string storm;
  std::string evict_policy;
  [[nodiscard]] bool any() const {
    return gray_rate > 0.0 || !storm.empty() || !evict_policy.empty();
  }
};

// Observability sinks honored only by the monitor subcommand.
struct ObsFlags {
  std::string incidents_path;
  std::string flight_path;
  [[nodiscard]] bool any() const {
    return !incidents_path.empty() || !flight_path.empty();
  }
};

int usage() {
  std::cerr << "usage: scoutctl [object-fault|overflow|unresponsive|"
               "corruption|eviction] [--seed N] [--json] [--remediate]\n"
               "       scoutctl monitor [--seed N] [--events N] [--full] "
               "[--remediate] [--telemetry FILE]\n"
               "                        [--gray-rate R] [--storm PROFILE] "
               "[--evict-policy NAME]\n"
               "                        [--incidents FILE] "
               "[--flight-recorder FILE]\n"
               "       scoutctl stats [--seed N] [--events N] [--full] "
               "[--json]\n";
  return 2;
}

MonitoringReport run_monitor_scenario(std::uint64_t seed, std::size_t events,
                                      bool full, bool remediate,
                                      bool want_trace,
                                      const FaultFlags& faults = {},
                                      const ObsFlags& obs = {}) {
  MonitoringOptions options;
  options.profile = GeneratorProfile::scaled(16);
  options.profile.target_pairs = 16 * 60;
  options.events = events;
  options.seed = seed;
  options.incremental = !full;
  options.remediate_final = remediate;
  options.gray_rate = faults.gray_rate;
  options.storm = faults.storm;
  options.evict_policy = faults.evict_policy;
  options.collect_incidents = !obs.incidents_path.empty();
  options.collect_flight = want_trace || !obs.flight_path.empty();
  options.flight_dump_path = obs.flight_path;
  runtime::SerialExecutor executor;
  return run_continuous_monitoring(options, executor);
}

// Writes one report artifact; false (with a message) when the file cannot
// be written in full.
bool write_artifact(const std::string& path, const std::string& text) {
  std::ofstream out{path};
  out << text << '\n';
  out.close();
  if (!out) std::cerr << "error: cannot write " << path << '\n';
  return static_cast<bool>(out);
}

int run_monitor(std::uint64_t seed, std::size_t events, bool full,
                bool remediate, const std::string& telemetry_path,
                const FaultFlags& faults, const ObsFlags& obs) {
  const MonitoringReport report =
      run_monitor_scenario(seed, events, full, remediate,
                           !telemetry_path.empty(), faults, obs);
  const telemetry::MetricsSnapshot& snap = report.telemetry;
  const FabricCheck& final_check = report.final_check;
  std::cout << "mode            : "
            << (full ? "full recheck" : "incremental") << '\n'
            << "events verified : " << report.events << " in "
            << report.batches << " batches (" << report.churn_ops
            << " churn ops)\n"
            << "throughput      : " << static_cast<long long>(
                   report.events_per_sec()) << " events/s (drain time only)\n"
            << "detect latency  : p50 " << report.wall_latency().quantile(0.50)
            << " ms, p99 " << report.wall_latency().quantile(0.99)
            << " ms (wall); p50 " << report.sim_latency().quantile(0.50)
            << " ms (sim)\n"
            << "batches flagged : " << report.inconsistent_batches << '\n'
            << "final verdict   : " << final_check.inconsistent.size()
            << " inconsistent switch(es), "
            << final_check.missing_rules.size() << " missing rule(s), "
            << final_check.extra_rule_count << " extra rule(s)\n";
  if (!full) {
    std::cout << "T updates       : " << report.checker.incremental_updates
              << " incremental, " << report.checker.full_rebuilds
              << " rebuilds (" << report.checker.epoch_rebuilds
              << " epoch + " << report.checker.threshold_trips
              << " threshold + " << report.checker.unsafe_rebuilds
              << " unsafe)\n";
  }
  if (faults.any()) {
    std::uint64_t tcam_evictions = 0;
    for (const auto& c : snap.counters_with_prefix("tcam.evictions.")) {
      tcam_evictions += c.value;
    }
    std::cout << "fault engine    : " << snap.counter("faults.gray.misrenders")
              << " gray misrender(s), " << snap.counter("faults.gray.drops")
              << " gray drop(s), " << snap.counter("faults.storm.episodes")
              << " storm episode(s), " << tcam_evictions
              << " TCAM eviction(s)";
    if (!faults.evict_policy.empty()) {
      std::cout << " [" << faults.evict_policy << "]";
    }
    std::cout << '\n';
  }
  if (!final_check.inconsistent.empty()) {
    std::cout << "localization    : hypothesis of " << report.hypothesis_size
              << " suspect object(s) handed to SCOUT\n";
  }
  if (!obs.incidents_path.empty()) {
    if (!write_artifact(obs.incidents_path, report.incident_json)) return 1;
    const stream::IncidentBuilder::Totals& inc = report.incident_totals;
    std::cout << "incidents       : " << inc.incidents << " episode(s), "
              << inc.first_cause_correct << " first-cause correct (precision "
              << inc.precision() << ", recall " << inc.recall()
              << "); log written to " << obs.incidents_path << '\n';
  }
  if (!obs.flight_path.empty()) {
    std::cout << "flight recorder : " << report.flight_entries
              << " entries recorded; dump written to " << obs.flight_path
              << '\n';
  }
  if (obs.any()) {
    std::cout << "health          : status " << snap.gauge("health.status")
              << " (0=ok 1=warn 2=critical)\n";
  }
  if (remediate && !final_check.missing_rules.empty()) {
    std::cout << "remediation     : " << final_check.missing_rules.size()
              << " rules reinstalled, " << report.final_still_missing
              << " still missing"
              << (report.final_still_missing > 0
                      ? " (physical fault persists)"
                      : "")
              << '\n';
  }
  if (!telemetry_path.empty()) {
    if (!write_artifact(telemetry_path, report.trace_json)) return 1;
    std::cout << "telemetry       : trace + metrics written to "
              << telemetry_path << '\n';
  }
  return 0;
}

int run_stats(std::uint64_t seed, std::size_t events, bool full, bool json) {
  const MonitoringReport report =
      run_monitor_scenario(seed, events, full, /*remediate=*/false,
                           /*want_trace=*/false);
  if (json) {
    std::cout << report.telemetry.to_json() << '\n';
  } else {
    std::cout << report.telemetry.to_prometheus();
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace scout;

  std::string scenario = "object-fault";
  std::string telemetry_path;
  std::uint64_t seed = 1;
  std::size_t events = 600;
  bool json = false;
  bool remediate = false;
  bool full = false;
  FaultFlags faults;
  ObsFlags obs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--remediate") {
      remediate = true;
    } else if (arg == "--full") {
      full = true;
    } else if (arg == "--seed" || arg == "--events" ||
               arg == "--telemetry" || arg == "--gray-rate" ||
               arg == "--storm" || arg == "--evict-policy" ||
               arg == "--incidents" || arg == "--flight-recorder") {
      // A following "--flag" is the next option, not a value, and a
      // malformed number is an error: both exit through usage() instead
      // of strtoull silently reading them as 0 (or wrapping "-1" to
      // SIZE_MAX).
      if (++i >= argc || std::strncmp(argv[i], "--", 2) == 0) {
        return usage();
      }
      if (arg == "--seed" || arg == "--events") {
        const std::optional<std::size_t> n = bench::parse_size(argv[i]);
        if (!n) return usage();
        if (arg == "--seed") {
          seed = *n;
        } else {
          events = *n;
        }
      } else if (arg == "--gray-rate") {
        const std::optional<double> rate = bench::parse_fraction(argv[i]);
        if (!rate) return usage();
        faults.gray_rate = *rate;
      } else if (arg == "--storm") {
        faults.storm = argv[i];
      } else if (arg == "--evict-policy") {
        faults.evict_policy = argv[i];
      } else if (arg == "--incidents") {
        obs.incidents_path = argv[i];
      } else if (arg == "--flight-recorder") {
        obs.flight_path = argv[i];
      } else {
        telemetry_path = argv[i];
      }
    } else if (!arg.empty() && arg[0] != '-') {
      scenario = arg;
    } else {
      return usage();
    }
  }

  // Resolve fault names through the factories up front so a typo dies at
  // configuration time with the factory's message, not mid-run.
  try {
    if (!faults.storm.empty()) (void)storm_profile(faults.storm);
    if (!faults.evict_policy.empty()) {
      (void)make_eviction_policy(faults.evict_policy);
    }
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }

  if (scenario == "monitor") {
    // Loudly reject flags the monitor subcommand does not honor instead
    // of silently producing the wrong output format.
    if (json) return usage();
    return run_monitor(seed, events, full, remediate, telemetry_path,
                       faults, obs);
  }
  if (scenario == "stats") {
    if (remediate || !telemetry_path.empty() || faults.any() || obs.any()) {
      return usage();
    }
    return run_stats(seed, events, full, json);
  }
  if (!telemetry_path.empty() || faults.any() || obs.any()) return usage();

  ThreeTierNetwork three =
      make_three_tier(scenario == "overflow" ? 32 : 4096);
  SimNetwork net{std::move(three.fabric), std::move(three.policy)};
  net.deploy();
  net.clock().advance(3'600'000);

  Rng rng{seed};
  if (scenario == "object-fault") {
    ObjectFaultInjector injector{net.controller(), rng};
    (void)injector.inject_full(ObjectRef::of(three.port700));
  } else if (scenario == "overflow") {
    (void)run_tcam_overflow_scenario(net.controller(), three.app_db, 64);
  } else if (scenario == "unresponsive") {
    (void)run_unresponsive_switch_scenario(net.controller(), three.s2,
                                           three.app_db, 4);
  } else if (scenario == "corruption") {
    (void)run_tcam_corruption_scenario(net.controller(), three.s2, 3, rng,
                                       0.5);
  } else if (scenario == "eviction") {
    (void)net.agent(three.s2).evict_rules(2, net.clock().now());
  } else {
    return usage();
  }

  const ScoutSystem system;
  const ScoutReport report = system.analyze_controller(net);

  if (json) {
    std::cout << report_to_json(report) << '\n';
  } else {
    std::cout << "scenario        : " << scenario << '\n'
              << "missing rules   : " << report.missing_rules.size() << '\n'
              << "observations    : " << report.observations << '\n'
              << "suspect set     : " << report.suspect_set_size << '\n'
              << "gamma           : " << report.gamma << '\n'
              << "hypothesis      : ";
    for (const ObjectRef obj : report.localization.hypothesis) {
      std::cout << obj << ' ';
    }
    std::cout << '\n';
    for (const RootCause& rc : report.root_causes) {
      std::cout << "root cause      : " << rc.object << " <- "
                << to_string(rc.type) << '\n';
    }
  }

  if (remediate) {
    const std::size_t left = system.remediate(net, report);
    std::cout << "remediation     : " << report.missing_rules.size()
              << " rules reinstalled, " << left
              << " still missing"
              << (left > 0 ? " (physical fault persists)" : "") << '\n';
  }
  return 0;
}
