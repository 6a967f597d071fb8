// perfbench: runs one benchmark workload against the program and prints its
// run context, every metric by name and unit, and — as the last line of
// standard output — one JSON result object:
//
//   perfbench --workload tcam-churn|policy-churn --seed N
//             --seconds S --trace 0|1 [--commit SHA] [--trace-out PATH]
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// workload with the benchmark's span trace on a fixed-length prefix and
// reports the per-layer metrics. Exit status is 0 only when every oracle
// check held.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "perfbench/src/bench_support.h"

namespace {

using namespace perfbench;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "tcam-churn|policy-churn --seed N --seconds S "
               "--trace 0|1 [--commit SHA] [--trace-out PATH]\n",
               why);
  return 2;
}

std::string number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

int main(int argc, char** argv) {
  WorkloadArgs args;
  std::string commit = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0 && args.seconds <= 3600)) {
        return usage("bad --seconds");
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace");
      args.trace = value == "1";
      have_trace = true;
    } else if (flag == "--commit") {
      commit = value;
    } else if (flag == "--trace-out") {
      args.trace_path = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  if (!is_known_workload(args.workload)) return usage("unknown workload");

  std::printf("# perfbench %s seed=%llu seconds=%s trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              number(args.seconds).c_str(), args.trace ? 1 : 0);
  std::printf("# context: nproc=%u build_type=%s compiler=%s commit=%s\n",
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
              compiler().c_str(), commit.c_str());
  std::fflush(stdout);

  const double ref_before = reference_loop_ms();
  WorkloadResult result = run_stream_workload(args);
  const double ref_after = reference_loop_ms();
  std::printf("# reference_loop_ms: before=%.3f after=%.3f\n", ref_before,
              ref_after);
  for (const auto& [key, value] : result.context) {
    std::printf("# %s: %s\n", key.c_str(), value.c_str());
  }
  std::printf("# schedule_digest: %016llx verdict_digest: %016llx\n",
              static_cast<unsigned long long>(result.schedule_digest),
              static_cast<unsigned long long>(result.verdict_digest));
  for (const std::string& e : result.errors) {
    std::printf("# ERROR: %s\n", e.c_str());
  }

  // Every declared metric, in declaration order; a layer the workload does
  // not exercise reads 0.
  const MetricSet& measured =
      args.trace ? result.per_layer : result.end_to_end;
  const auto& decls = args.trace ? per_layer_metrics() : end_to_end_metrics();
  std::string json = "{";
  for (std::size_t i = 0; i < decls.size(); ++i) {
    const Metric* m = measured.find(decls[i].name);
    double value = m != nullptr ? m->value : 0.0;
    if (!std::isfinite(value)) {
      result.fail(std::string("non-finite metric ") + decls[i].name);
      value = 0.0;
    }
    std::printf("%-36s %s %s\n", decls[i].name, number(value).c_str(),
                decls[i].unit);
    json += (i == 0 ? "\"" : ", \"") + std::string(decls[i].name) +
            "\": {\"value\": " + number(value) + ", \"unit\": \"" +
            decls[i].unit + "\"}";
  }
  json += "}";
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      result.correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), json.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
