// Shared plumbing of the benchmark: wall clocks, exact percentiles
// over raw samples, the metric sink, the run context and the workload
// entry points. Everything here lives outside the program under test and
// reaches it only through its public headers.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Nearest-rank percentile of raw samples: the smallest sample with at
// least q·n samples at or below it. `beyond` is how many samples rank
// above it (n − rank), so a p99 over n samples has n/100 of them.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};
[[nodiscard]] Percentile exact_percentile(std::vector<double> samples,
                                          double q);
[[nodiscard]] inline double median(std::vector<double> samples) {
  return exact_percentile(std::move(samples), 0.5).value;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Insertion-ordered name -> (value, unit); set() overwrites.
class MetricSet {
 public:
  void set(std::string_view name, double value, std::string_view unit);
  [[nodiscard]] const Metric* find(std::string_view name) const;

 private:
  std::vector<Metric> metrics_;
};

// Peak resident set of this process (getrusage), in MB.
[[nodiscard]] double peak_rss_mb();

// Restrict the calling thread to one CPU (cpu modulo the CPUs online).
void pin_current_thread(std::size_t cpu);

// A fixed single-thread integer loop, timed. Run before and after each
// workload so machine drift is visible next to the numbers.
[[nodiscard]] double reference_loop_ms();

struct WorkloadArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Test hooks: a fixed measured length in batches instead of --seconds,
  // and a worker-count override.
  std::size_t fixed_ops = 0;
  std::size_t workers = 0;
  std::string trace_path;  // span log destination (trace runs)
};

struct WorkloadResult {
  bool correct = true;
  std::uint64_t attempted = 0;  // fabric ops
  std::uint64_t failed = 0;
  MetricSet end_to_end;
  MetricSet per_layer;
  // Run context printed next to the result ("key", "value").
  std::vector<std::pair<std::string, std::string>> context;
  std::vector<std::string> errors;  // why correct is false
  std::uint64_t schedule_digest = 0;
  std::uint64_t verdict_digest = 0;

  void note(std::string key, std::string value) {
    context.emplace_back(std::move(key), std::move(value));
  }
  void fail(std::string why) {
    correct = false;
    errors.push_back(std::move(why));
  }
};

// Percentile metric plus its sample count in the run context.
void report_percentile(WorkloadResult& result, MetricSet& set,
                       std::string_view name, const std::vector<double>& xs,
                       double q);

// FNV-1a style fold used for the op-schedule digest.
[[nodiscard]] constexpr std::uint64_t fold_digest(std::uint64_t h,
                                                  std::uint64_t v) noexcept {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h * 0x100000001B3ULL;
}

[[nodiscard]] WorkloadResult run_stream_workload(const WorkloadArgs& args);
[[nodiscard]] bool is_known_workload(std::string_view name);

// The metric names every run prints: all end-to-end metrics on an
// untraced run, all per-layer metrics on a traced one (0 where a workload
// does not exercise a layer). BENCHMARK.json lists the same names.
struct MetricDecl {
  const char* name;
  const char* unit;
};
[[nodiscard]] const std::vector<MetricDecl>& end_to_end_metrics();
[[nodiscard]] const std::vector<MetricDecl>& per_layer_metrics();

}  // namespace perfbench
