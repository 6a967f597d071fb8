// The benchmark's own trace: one span per call the benchmark makes into the
// program, recorded around the call (never inside it). Spans live in
// per-lane in-memory vectors — lane 0 is the main thread, lane w+1 is
// executor worker w, each lane written by one thread only — and are
// summarized and written out after the measured phase.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "perfbench/src/bench_support.h"
#include "src/runtime/campaign.h"

namespace perfbench {

struct Span {
  const char* name = "";     // "<layer>.<call>", static storage
  std::uint64_t id = 0;      // unique, never 0
  std::uint64_t parent = 0;  // 0 = top level
  std::uint64_t group = 0;   // batch or cell the span belongs to
  double start_us = 0.0;     // since the log was created
  double end_us = 0.0;
  double wait_us = 0.0;      // time the work waited before the span began
  std::uint32_t lane = 0;
};

class SpanLog {
 public:
  explicit SpanLog(std::size_t lanes);

  // Recording switch, flipped by the main thread between executor runs.
  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  [[nodiscard]] double now_us() const;
  [[nodiscard]] std::uint64_t next_id(std::uint32_t lane);
  void record(const Span& span);

  [[nodiscard]] std::vector<Span> all() const;

  // Chrome trace-event JSON ("X" events; args carry id/parent/group/wait).
  [[nodiscard]] bool write_chrome_json(const std::string& path) const;

 private:
  Clock::time_point origin_;
  bool enabled_ = false;
  std::vector<std::vector<Span>> lanes_;
  std::vector<std::uint64_t> next_;
};

// RAII span; a no-op when the log is null or disabled at construction.
class SpanScope {
 public:
  SpanScope(SpanLog* log, std::uint32_t lane, const char* name,
            std::uint64_t parent, std::uint64_t group);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return span_.id; }
  void set_wait_us(double us) noexcept { span_.wait_us = us; }

 private:
  SpanLog* log_;
  Span span_;
};

// Per-layer totals over spans that start inside [from_us, to_us): layer =
// name up to the first '.'; self time = duration minus the union of the
// span's children's intervals. `excluded_us` is time inside the window
// that is not part of the measured phase (oracle checkpoints); coverage
// is taken over the rest.
struct LayerTotals {
  std::size_t count = 0;
  double busy_ms = 0.0;
  double self_ms = 0.0;
  double wait_ms = 0.0;
};
struct TraceSummary {
  std::vector<std::pair<std::string, LayerTotals>> layers;
  double coverage = 0.0;  // lane-0 top-level span time / window
};
[[nodiscard]] TraceSummary summarize_spans(const std::vector<Span>& spans,
                                           double from_us, double to_us,
                                           double excluded_us = 0.0);

// Executor decorator: forwards to the wrapped executor and, while its span
// log is enabled, records one "runtime.task" span per task (queue wait =
// task start - run() start) under the parent set by the caller, plus the
// per-worker busy time and run wall the runtime.* metrics derive from.
class TimedExecutor final : public scout::runtime::Executor {
 public:
  TimedExecutor(scout::runtime::Executor& inner, SpanLog* log);

  void run(std::size_t count,
           const std::function<void(std::size_t, std::size_t)>& task)
      override;
  [[nodiscard]] std::size_t workers() const noexcept override {
    return inner_->workers();
  }

  void set_parent(std::uint64_t parent, std::uint64_t group) noexcept {
    parent_ = parent;
    group_ = group;
  }

  struct Totals {
    double run_wall_ms = 0.0;              // summed over recorded runs
    std::vector<double> busy_ms;           // per worker
    std::vector<double> queue_wait_us;     // one sample per task
  };
  [[nodiscard]] Totals totals() const;

 private:
  scout::runtime::Executor* inner_;
  SpanLog* log_;
  std::uint64_t parent_ = 0;
  std::uint64_t group_ = 0;
  double run_wall_ms_ = 0.0;
  std::vector<double> busy_ms_;                    // written by worker w
  std::vector<std::vector<double>> queue_wait_us_;  // written by worker w
};

// The traced prefix of a trace run, on the span log's clock.
struct TracedPhase {
  double from_us = 0.0;
  double to_us = 0.0;
  double excluded_us = 0.0;  // oracle checkpoints inside the window
  double measured_ms = 0.0;  // the prefix's share of the measured phase
  std::size_t ops = 0;
};

// The span-derived metrics of a trace run (layer.*, bench.trace_*) whose
// whole measured phase did `ops` ops in `measured_ms`; writes the span log
// to `path` if set. Fails the run below 0.9 coverage.
void report_trace(const SpanLog& log, const TracedPhase& traced,
                  std::size_t ops, double measured_ms,
                  const std::string& path, WorkloadResult& result);

// runtime.busy_share / worker_skew / queue_wait_p50_us from an executor's
// totals (zeros when it recorded nothing).
void report_runtime(const TimedExecutor::Totals& totals, MetricSet& layer);

}  // namespace perfbench
