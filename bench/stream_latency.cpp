// Continuous-verification stream bench: event-to-detection latency and
// sustained verification throughput of the src/stream monitor, incremental
// vs full-recheck mode, at 1/2/4 workers (or just --threads N).
//
// Self-verifying like fig8: the churn stream is a pure function of the
// seed, so every (mode, worker-count) run must produce the identical
// verdict-stream digest — the bench exits non-zero on any divergence, and
// also if incremental mode reports more full T rebuilds than epoch bumps +
// divergence-threshold trips (i.e. if any delta fell off the incremental
// path unexpectedly).
//
// Writes BENCH_stream.json: one row per (mode, workers) with sustained
// events/sec (events / drain-time; churn generation is identical across
// modes and excluded), p50/p99/max detection latency, and the incremental
// rebuild counters. Flags: --events N, --batch N, --threads N, --seed S,
// --switches N, --rate EPS (paced replay), --json PATH.
//
// --publishers N switches to the concurrent-ingest bench: three legs per
// worker count over the identical publisher-count-independent churn
// schedule — serial transport (publishers = 0, the baseline), phased
// MPSC-ring publish from N threads, and pipelined free-run (N publishers
// overlapped with the drain loop). Serial
// and ring verdict digests must be bit-identical within and across worker
// counts; the pipelined leg is gated on its final verdict matching a
// fresh ground-truth check and, with --min-speedup S, on end-to-end wall
// events/s >= S x the serial leg's.
#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_cli.h"
#include "src/runtime/result_sink.h"
#include "src/scout/experiment.h"
#include "src/telemetry/metrics.h"

namespace {

using namespace scout;

MonitoringOptions base_options(int argc, char** argv) {
  MonitoringOptions options;
  const std::size_t switches =
      bench::size_flag(argc, argv, "switches", 32, 2, 512);
  options.profile = GeneratorProfile::scaled(switches);
  options.profile.target_pairs = switches * 20;
  options.events = bench::size_flag(argc, argv, "events", 6000, 1, 10'000'000);
  options.batch_ops = bench::size_flag(argc, argv, "batch", 12, 1, 100'000);
  options.seed = bench::size_flag(argc, argv, "seed", 21);
  options.target_events_per_sec = static_cast<double>(
      bench::size_flag(argc, argv, "rate", 0, 0, 100'000'000));
  options.localize_final = true;
  return options;
}

// One bench row per (mode, workers). Every stream_* counter key is read
// back out of the exported MetricsRegistry snapshot — there are no
// bench-private counters — with registry names mapped onto the historical
// JSON keys by telemetry::bench_key ("stream.full_rebuilds" ->
// "stream_full_rebuilds"). `overhead_pct` is the events/s cost of
// telemetry for this row's configuration (0 when not measured).
void record(runtime::BenchRecorder& recorder, const MonitoringReport& r,
            bool incremental, std::size_t threads, double baseline_eps,
            double overhead_pct) {
  const telemetry::MetricsSnapshot& snap = r.telemetry;
  const auto c = [&snap](std::string_view name) {
    return static_cast<double>(snap.counter(name));
  };
  recorder.add_row(
      {{"incremental", incremental ? 1.0 : 0.0},
       {"threads", static_cast<double>(threads)},
       {"events", c("stream.events_drained")},
       {"batches", c("stream.batches")},
       {"churn_ops", static_cast<double>(r.churn_ops)},
       {"events_per_sec", r.events_per_sec()},
       {"baseline_events_per_sec", baseline_eps},
       {"telemetry_overhead_pct", overhead_pct},
       {"drain_ms", r.drain_seconds * 1e3},
       {"wall_ms", r.wall_seconds * 1e3},
       {"stream_p50_ms", r.wall_latency().quantile(0.50)},
       {"stream_p99_ms", r.wall_latency().quantile(0.99)},
       {"stream_max_ms", r.wall_latency().max()},
       {"stream_sim_p50_ms", r.sim_latency().quantile(0.50)},
       {"stream_sim_p99_ms", r.sim_latency().quantile(0.99)},
       {"inconsistent_batches", static_cast<double>(r.inconsistent_batches)},
       {"final_missing",
        static_cast<double>(r.final_check.missing_rules.size())},
       {"hypothesis_size", static_cast<double>(r.hypothesis_size)},
       {"stream_bus_published", c("stream.bus_published")},
       {"stream_bus_compactions", c("stream.bus_compactions")},
       {"stream_incremental_updates", c("stream.incremental_updates")},
       {"stream_full_rebuilds", c("stream.full_rebuilds")},
       {"stream_epoch_rebuilds", c("stream.epoch_rebuilds")},
       {"stream_threshold_trips", c("stream.threshold_trips")},
       {"stream_unsafe_rebuilds", c("stream.unsafe_rebuilds")},
       {"verdicts_reused", c("stream.verdicts_reused")}});
}

// The incremental-path invariant, concurrent edition: every full rebuild
// must be accounted for by an epoch bump, a divergence-threshold trip, or
// a ring-overflow resync.
bool rebuilds_accounted(const MonitoringReport& r) {
  return r.checker.full_rebuilds <= r.checker.epoch_rebuilds +
                                        r.checker.threshold_trips +
                                        r.checker.overflow_resyncs;
}

int run_publishers_bench(int argc, char** argv, const MonitoringOptions& base,
                         const std::vector<std::size_t>& thread_counts) {
  const std::size_t publishers =
      bench::size_flag(argc, argv, "publishers", 4, 1, 64);
  const double min_speedup = static_cast<double>(
      bench::size_flag(argc, argv, "min-speedup", 0, 0, 1000));
  static const char* const kLegNames[] = {"serial", "ring", "pipelined"};

  runtime::BenchRecorder recorder{"stream_latency_publishers"};
  bool failed = false;
  bool digest_set = false;
  std::uint64_t expected_digest = 0;
  double best_speedup = 0.0;

  for (const std::size_t threads : thread_counts) {
    const auto executor = runtime::make_executor(threads);
    double serial_wall_eps = 0.0;
    for (int leg = 0; leg < 3; ++leg) {
      MonitoringOptions options = base;
      options.publishers = leg == 0 ? 0 : publishers;
      options.pipelined = leg == 2;
      const MonitoringReport report =
          run_continuous_monitoring(options, *executor);

      double speedup = 0.0;
      if (leg == 0) {
        serial_wall_eps = report.wall_events_per_sec();
      } else if (leg == 2 && serial_wall_eps > 0.0) {
        speedup = report.wall_events_per_sec() / serial_wall_eps;
        best_speedup = std::max(best_speedup, speedup);
      }

      const telemetry::MetricsSnapshot& snap = report.telemetry;
      recorder.add_row(
          {{"publish_mode", static_cast<double>(leg)},
           {"publishers", static_cast<double>(options.publishers)},
           {"threads", static_cast<double>(threads)},
           {"events", static_cast<double>(report.events)},
           {"batches", static_cast<double>(report.batches)},
           {"churn_ops", static_cast<double>(report.churn_ops)},
           {"events_per_sec", report.events_per_sec()},
           {"events_per_sec_wall", report.wall_events_per_sec()},
           {"publish_speedup", speedup},
           {"stream_p50_ms", report.wall_latency().quantile(0.50)},
           {"stream_p99_ms", report.wall_latency().quantile(0.99)},
           {"stream_full_rebuilds",
            static_cast<double>(report.checker.full_rebuilds)},
           {"stream_epoch_rebuilds",
            static_cast<double>(report.checker.epoch_rebuilds)},
           {"stream_threshold_trips",
            static_cast<double>(report.checker.threshold_trips)},
           {"stream_unsafe_rebuilds",
            static_cast<double>(report.checker.unsafe_rebuilds)},
           {"stream_overflow_resyncs",
            static_cast<double>(report.checker.overflow_resyncs)},
           {"stream_ring_evictions",
            static_cast<double>(snap.counter("stream.ring_evictions"))},
           {"stream_ring_full_stalls",
            static_cast<double>(snap.counter("stream.ring_full_stalls"))},
           {"final_verdict_matches_fresh",
            report.final_verdict_matches_fresh ? 1.0 : 0.0}});

      std::printf(
          "%-9s %zu publisher(s), %zu worker(s): %8.0f events/s wall "
          "(%8.0f drain), p99 %7.2f ms, evictions %llu, overflow "
          "resyncs %zu\n",
          kLegNames[leg], options.publishers, threads,
          report.wall_events_per_sec(),
          report.events_per_sec(), report.wall_latency().quantile(0.99),
          static_cast<unsigned long long>(
              snap.counter("stream.ring_evictions")),
          report.checker.overflow_resyncs);

      // Serial and phased-ring verdict streams are deterministic and must
      // agree bit-for-bit; pipelined batch boundaries are timing-dependent
      // so that leg is held to the final-verdict ground-truth gate.
      if (leg < 2) {
        if (!digest_set) {
          expected_digest = report.verdict_digest;
          digest_set = true;
        } else if (report.verdict_digest != expected_digest) {
          std::fprintf(
              stderr,
              "error: digest-identity violated (%s leg, %zu workers): "
              "%llx != %llx\n",
              kLegNames[leg], threads,
              static_cast<unsigned long long>(report.verdict_digest),
              static_cast<unsigned long long>(expected_digest));
          failed = true;
        }
      } else if (!report.final_verdict_matches_fresh) {
        std::fprintf(stderr,
                     "error: pipelined final verdict != fresh check_all "
                     "(%zu workers)\n",
                     threads);
        failed = true;
      }
      if (!rebuilds_accounted(report)) {
        std::fprintf(stderr,
                     "error: %s leg fell off the incremental path: %zu "
                     "full rebuilds > %zu epoch + %zu threshold + %zu "
                     "overflow\n",
                     kLegNames[leg], report.checker.full_rebuilds,
                     report.checker.epoch_rebuilds,
                     report.checker.threshold_trips,
                     report.checker.overflow_resyncs);
        failed = true;
      }
    }
  }

  if (!failed && digest_set) {
    std::printf("digest-identity: OK (serial == ring across worker counts, "
                "digest %llx)\n",
                static_cast<unsigned long long>(expected_digest));
  }
  std::printf("publish_speedup: x%.1f (pipelined vs serial wall events/s, "
              "best over worker counts)\n",
              best_speedup);
  if (min_speedup > 0.0 && best_speedup < min_speedup) {
    std::fprintf(stderr,
                 "error: concurrent publish speedup x%.1f below the "
                 "x%.0f gate\n",
                 best_speedup, min_speedup);
    failed = true;
  }

  const std::string json_path =
      bench::string_flag(argc, argv, "json", "BENCH_stream.json");
  if (!recorder.write_file(json_path)) {
    std::fprintf(stderr, "error: could not write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());
  return failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const MonitoringOptions base = base_options(argc, argv);
  const bench::FlagLookup threads_flag =
      bench::find_flag(argc, argv, "threads");
  std::vector<std::size_t> thread_counts{1, 2, 4};
  if (threads_flag.present) {
    thread_counts = {bench::size_flag(argc, argv, "threads", 1, 1,
                                      bench::kMaxBenchThreads)};
  }
  if (bench::find_flag(argc, argv, "publishers").present) {
    return run_publishers_bench(argc, argv, base, thread_counts);
  }

  runtime::BenchRecorder recorder{"stream_latency"};
  bool digest_set = false;
  std::uint64_t expected_digest = 0;
  bool failed = false;
  double incremental_eps = 0.0;
  double full_eps = 0.0;

  for (const std::size_t threads : thread_counts) {
    const auto executor = runtime::make_executor(threads);
    for (const bool incremental : {true, false}) {
      MonitoringOptions options = base;
      options.incremental = incremental;
      MonitoringReport report = run_continuous_monitoring(options, *executor);

      // Telemetry overhead gate (incremental mode): the identical run
      // with collect_telemetry off is the zero-instrumentation baseline.
      // Its verdict digest must also match — telemetry must never change
      // what the monitor computes. Both configurations take the best of
      // three alternating runs: the drain window is a few hundred ms, so
      // a single-shot comparison mostly measures scheduler noise.
      double baseline_eps = 0.0;
      double overhead_pct = 0.0;
      if (incremental) {
        MonitoringOptions bare = options;
        bare.collect_telemetry = false;
        for (int rep = 0; rep < 3; ++rep) {
          if (rep > 0) {
            MonitoringReport again =
                run_continuous_monitoring(options, *executor);
            if (again.events_per_sec() > report.events_per_sec()) {
              report = std::move(again);
            }
          }
          const MonitoringReport baseline =
              run_continuous_monitoring(bare, *executor);
          baseline_eps = std::max(baseline_eps, baseline.events_per_sec());
          if (baseline.verdict_digest != report.verdict_digest) {
            std::fprintf(stderr,
                         "error: telemetry changed the verdict stream "
                         "(%zu workers)\n",
                         executor->workers());
            failed = true;
          }
        }
        if (baseline_eps > 0.0) {
          overhead_pct = (baseline_eps - report.events_per_sec()) /
                         baseline_eps * 100.0;
        }
        std::printf("  telemetry overhead at %zu worker(s): %+.1f%% "
                    "(best-of-3: %.0f -> %.0f events/s)\n",
                    executor->workers(), overhead_pct, baseline_eps,
                    report.events_per_sec());
      }
      record(recorder, report, incremental, executor->workers(),
             baseline_eps, overhead_pct);
      std::printf(
          "%-12s %zu worker(s): %8.0f events/s (drain %6.1f ms, wall "
          "%7.1f ms), p50 %7.2f ms, p99 %7.2f ms, rebuilds "
          "%zu (epoch %zu + threshold %zu + unsafe %zu)\n",
          incremental ? "incremental" : "full", executor->workers(),
          report.events_per_sec(), report.drain_seconds * 1e3,
          report.wall_seconds * 1e3, report.wall_latency().quantile(0.50),
          report.wall_latency().quantile(0.99), report.checker.full_rebuilds,
          report.checker.epoch_rebuilds, report.checker.threshold_trips,
          report.checker.unsafe_rebuilds);

      if (!digest_set) {
        expected_digest = report.verdict_digest;
        digest_set = true;
      } else if (report.verdict_digest != expected_digest) {
        std::fprintf(stderr,
                     "error: verdict stream diverged (%s mode, %zu "
                     "workers): digest %llx != %llx\n",
                     incremental ? "incremental" : "full",
                     executor->workers(),
                     static_cast<unsigned long long>(report.verdict_digest),
                     static_cast<unsigned long long>(expected_digest));
        failed = true;
      }
      if (incremental) {
        incremental_eps = report.events_per_sec();
        if (report.checker.full_rebuilds >
            report.checker.epoch_rebuilds + report.checker.threshold_trips) {
          std::fprintf(stderr,
                       "error: incremental mode fell off the incremental "
                       "path: %zu full rebuilds > %zu epoch + %zu "
                       "threshold\n",
                       report.checker.full_rebuilds,
                       report.checker.epoch_rebuilds,
                       report.checker.threshold_trips);
          failed = true;
        }
      } else {
        full_eps = report.events_per_sec();
      }
    }
    if (full_eps > 0.0) {
      std::printf("  -> incremental/full speedup at %zu worker(s): x%.1f\n",
                  executor->workers(), incremental_eps / full_eps);
    }
  }

  const std::string json_path =
      bench::string_flag(argc, argv, "json", "BENCH_stream.json");
  if (!recorder.write_file(json_path)) {
    std::fprintf(stderr, "error: could not write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());
  return failed ? 1 : 0;
}
