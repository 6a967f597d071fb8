// perfbench self-test: pins the exact-percentile helper against a sorted-
// vector reference and the benchmark's determinism — one seed gives one op
// schedule and one verdict digest, run to run, and for policy-churn across
// 1 and 3 workers. Exits non-zero when any check failed.
//
//   .bench_build/perfbench_selftest
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "perfbench/src/bench_support.h"
#include "src/common/rng.h"

namespace {

using namespace perfbench;

int failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

// Reference: sort, then take the nearest-rank element.
double reference_percentile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(xs.size())));
  rank = std::clamp<std::size_t>(rank, 1, xs.size());
  return xs[rank - 1];
}

void percentile_matches_sorted_reference() {
  scout::Rng rng{7};
  bool ok = true;
  for (std::size_t n : {1u, 2u, 3u, 10u, 99u, 100u, 101u, 1000u, 1234u}) {
    std::vector<double> xs(n);
    for (double& x : xs) x = static_cast<double>(rng.below(500)) / 7.0;
    for (double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
      const Percentile p = exact_percentile(xs, q);
      const auto rank = std::clamp<std::size_t>(
          static_cast<std::size_t>(std::ceil(q * static_cast<double>(n))), 1,
          n);
      ok = ok && p.value == reference_percentile(xs, q) && p.samples == n &&
           p.beyond == n - rank;
    }
  }
  expect(ok, "exact_percentile equals the sorted-vector nearest rank");
  const Percentile p99 = exact_percentile(std::vector<double>(1000, 1.0), 0.99);
  expect(p99.beyond == 10, "p99 of 1000 samples has 10 beyond it");
  expect(exact_percentile({}, 0.5).samples == 0, "empty input is safe");
}

WorkloadResult run(const char* workload, std::uint64_t seed,
                   std::size_t fixed, std::size_t workers) {
  WorkloadArgs args;
  args.workload = workload;
  args.seed = seed;
  args.fixed_ops = fixed;
  args.workers = workers;
  return run_stream_workload(args);
}

void stream_runs_are_deterministic() {
  const WorkloadResult a = run("tcam-churn", 11, 40, 1);
  const WorkloadResult b = run("tcam-churn", 11, 40, 1);
  const WorkloadResult c = run("tcam-churn", 12, 40, 1);
  expect(a.correct && b.correct && c.correct, "tcam-churn oracle holds");
  expect(a.schedule_digest == b.schedule_digest &&
             a.verdict_digest == b.verdict_digest,
         "tcam-churn: same seed, same schedule and verdict digest");
  expect(a.schedule_digest != c.schedule_digest &&
             a.verdict_digest != c.verdict_digest,
         "tcam-churn: another seed, another schedule and digest");

  const WorkloadResult serial = run("policy-churn", 5, 40, 1);
  const WorkloadResult pooled = run("policy-churn", 5, 40, 3);
  const WorkloadResult again = run("policy-churn", 5, 40, 3);
  expect(serial.correct && pooled.correct && again.correct,
         "policy-churn oracle holds");
  expect(serial.schedule_digest == pooled.schedule_digest &&
             serial.verdict_digest == pooled.verdict_digest &&
             pooled.verdict_digest == again.verdict_digest,
         "policy-churn: same digests at 1 and 3 workers and run to run");
}

}  // namespace

int main() {
  percentile_matches_sorted_reference();
  stream_runs_are_deterministic();
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
