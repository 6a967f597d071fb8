// Incident-attribution accuracy bench: drive the continuous monitor
// through single-fault-class legs — gray misrenders only, split storm
// episodes (rack-power, pod-brownout), evict-only churn — across many
// seeds and both transports, scoring every incident's cause chain against
// the CauseLedger ground truth.
//
// Self-verifying, exiting non-zero on any gate:
//  * precision == 1.0 on every (leg, seed, transport) run — an incident
//    never names a cause that did not actually mutate a violated switch
//    in its window (the A ⊆ T invariant, stream/incident.h);
//  * per-leg aggregate recall >= 0.9 — almost every ground-truth episode
//    behind a violation is attributed, the remainder being structurally
//    silent damage (drops, evicted ring slots);
//  * digest identity — per (leg, seed) the serial-transport leg and the
//    4-publisher phased-ring leg fold bit-identical verdict digests, and
//    (first seed per leg) a run with the incident layer detached folds
//    the same digest as one with it attached: attribution is observe-only.
//
// Writes BENCH_incidents.json: one row per (leg, seed) ring run with
// incident counts, first-cause hit rate, incident_precision and
// incident_recall (CI greps those keys). Flags: --events N,
// --publishers N, --seeds N, --seed S, --switches N, --threads N,
// --json PATH.
#include <cstdio>
#include <string>

#include "bench/bench_cli.h"
#include "src/runtime/result_sink.h"
#include "src/scout/experiment.h"

namespace {

using namespace scout;

// One leg per fault class; exactly one harmful engine is active per leg
// so every ledger entry and every stamped event belongs to that class.
struct Leg {
  const char* name;
  double gray_rate;
  const char* storm;
  bool evict_only;
};

constexpr Leg kLegs[] = {
    {"gray-misrender", 0.15, "", false},
    {"storm-rack-power", 0.0, "rack-power", false},
    {"storm-pod-brownout", 0.0, "pod-brownout", false},
    {"evict-only", 0.0, "", true},
};

MonitoringOptions leg_options(const Leg& leg, std::size_t switches,
                              std::size_t events, std::uint64_t seed) {
  MonitoringOptions options;
  options.profile = GeneratorProfile::scaled(switches);
  options.profile.target_pairs = switches * 20;
  options.events = events;
  options.batch_ops = 12;
  options.seed = seed;
  options.localize_final = false;
  options.collect_incidents = true;
  options.gray_rate = leg.gray_rate;
  // Misrender-only: dropped updates publish no event, so their damage is
  // structurally unattributable — the drop legs live in BENCH_storms.
  options.gray_drop_rate = 0.0;
  options.storm = leg.storm;
  options.storm_every_batches = 1;
  // Split episodes leave damage in place across a drain so verdicts can
  // observe it; atomically-healing episodes never fail a verdict.
  options.storm_split = true;
  if (leg.evict_only) {
    options.mix = stream::ChurnMix{};
    options.mix.evict = 1.0;
    options.mix.corrupt = 0.0;
    options.mix.resync = 0.0;
    options.mix.crash = 0.0;
    options.mix.recover = 0.0;
    options.mix.channel_flap = 0.0;
    options.mix.benign_change = 0.0;
    options.mix.migrate = 0.0;
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t switches =
      bench::size_flag(argc, argv, "switches", 12, 4, 256);
  const std::size_t events =
      bench::size_flag(argc, argv, "events", 600, 1, 10'000'000);
  const std::size_t publishers =
      bench::size_flag(argc, argv, "publishers", 4, 1, 64);
  const std::size_t seeds = bench::size_flag(argc, argv, "seeds", 20, 1, 64);
  const std::uint64_t seed0 = bench::size_flag(argc, argv, "seed", 41);
  const auto executor = bench::executor_from_flags(argc, argv);

  runtime::BenchRecorder recorder{"incident_accuracy"};
  bool failed = false;

  for (std::size_t leg_idx = 0; leg_idx < std::size(kLegs); ++leg_idx) {
    const Leg& leg = kLegs[leg_idx];
    std::size_t leg_incidents = 0;
    std::size_t leg_matched = 0, leg_attributed = 0, leg_truth = 0;
    double leg_recall_num = 0, leg_recall_den = 0;
    for (std::size_t s = 0; s < seeds; ++s) {
      const std::uint64_t seed = seed0 + s * 101;
      const MonitoringOptions serial =
          leg_options(leg, switches, events, seed);
      const MonitoringReport anchor =
          run_continuous_monitoring(serial, *executor);

      MonitoringOptions ring = serial;
      ring.publishers = publishers;
      const MonitoringReport report =
          run_continuous_monitoring(ring, *executor);

      bool run_ok = true;
      for (const MonitoringReport* r : {&anchor, &report}) {
        if (r->incident_totals.precision() != 1.0) {
          std::fprintf(
              stderr,
              "error: precision gate violated (%s, seed %llu, %s): %.6f\n",
              leg.name, static_cast<unsigned long long>(seed),
              r == &anchor ? "serial" : "ring",
              r->incident_totals.precision());
          failed = true;
          run_ok = false;
        }
      }
      if (report.verdict_digest != anchor.verdict_digest) {
        std::fprintf(stderr,
                     "error: digest-identity violated (%s, seed %llu): "
                     "ring %llx != serial %llx\n",
                     leg.name, static_cast<unsigned long long>(seed),
                     static_cast<unsigned long long>(report.verdict_digest),
                     static_cast<unsigned long long>(anchor.verdict_digest));
        failed = true;
        run_ok = false;
      }
      if (s == 0) {
        // Neutrality: detaching the incident layer must not move the
        // digest — attribution is observe-only by construction.
        MonitoringOptions bare = serial;
        bare.collect_incidents = false;
        const MonitoringReport off =
            run_continuous_monitoring(bare, *executor);
        if (off.verdict_digest != anchor.verdict_digest) {
          std::fprintf(stderr,
                       "error: incident layer perturbed the digest "
                       "(%s, seed %llu)\n",
                       leg.name, static_cast<unsigned long long>(seed));
          failed = true;
          run_ok = false;
        }
      }

      const stream::IncidentBuilder::Totals& totals = report.incident_totals;
      leg_incidents += totals.incidents;
      leg_matched += totals.first_cause_correct;
      leg_attributed += totals.incidents - totals.unattributed_incidents;
      leg_truth += totals.incidents;
      // Aggregate recall as a weighted mean over runs with truth mass.
      if (totals.incidents > 0) {
        leg_recall_num +=
            totals.recall() * static_cast<double>(totals.incidents);
        leg_recall_den += static_cast<double>(totals.incidents);
      }

      recorder.add_row(
          {{"leg", static_cast<double>(leg_idx)},
           {"seed", static_cast<double>(seed)},
           {"publishers", static_cast<double>(publishers)},
           {"events", static_cast<double>(report.events)},
           {"batches", static_cast<double>(report.batches)},
           {"events_per_sec", report.events_per_sec()},
           {"incidents", static_cast<double>(totals.incidents)},
           {"unattributed",
            static_cast<double>(totals.unattributed_incidents)},
           {"first_cause_correct",
            static_cast<double>(totals.first_cause_correct)},
           {"incident_precision", totals.precision()},
           {"incident_recall", totals.recall()},
           {"run_ok", run_ok ? 1.0 : 0.0}});
    }

    const double leg_recall =
        leg_recall_den > 0 ? leg_recall_num / leg_recall_den : 1.0;
    if (leg_recall < 0.9) {
      std::fprintf(stderr, "error: recall gate violated (%s): %.4f < 0.9\n",
                   leg.name, leg_recall);
      failed = true;
    }
    if (leg_incidents == 0) {
      std::fprintf(stderr,
                   "error: leg produced no incidents (%s) — gate vacuous\n",
                   leg.name);
      failed = true;
    }
    std::printf(
        "%-20s %3zu seeds: %4zu incidents, %4zu attributed, "
        "%4zu first-cause hits, recall %.4f\n",
        leg.name, seeds, leg_incidents, leg_attributed, leg_matched,
        leg_recall);
    (void)leg_truth;
  }

  if (!failed) {
    std::printf("incident gates: OK (precision 1.0 everywhere, per-leg "
                "recall >= 0.9, digests transport- and layer-invariant; "
                "%zu legs x %zu seeds)\n",
                std::size(kLegs), seeds);
  }
  const std::string json_path =
      bench::string_flag(argc, argv, "json", "BENCH_incidents.json");
  if (!recorder.write_file(json_path)) {
    std::fprintf(stderr, "error: could not write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());
  return failed ? 1 : 0;
}
