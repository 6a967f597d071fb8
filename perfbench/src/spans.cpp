#include "perfbench/src/spans.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <numeric>
#include <unordered_map>

namespace perfbench {

SpanLog::SpanLog(std::size_t lanes)
    : origin_(Clock::now()), lanes_(lanes), next_(lanes, 0) {
  for (auto& lane : lanes_) lane.reserve(1 << 15);
}

double SpanLog::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
      .count();
}

std::uint64_t SpanLog::next_id(std::uint32_t lane) {
  return (static_cast<std::uint64_t>(lane) << 40) | ++next_.at(lane);
}

void SpanLog::record(const Span& span) { lanes_.at(span.lane).push_back(span); }

std::vector<Span> SpanLog::all() const {
  std::vector<Span> out;
  for (const auto& lane : lanes_) {
    out.insert(out.end(), lane.begin(), lane.end());
  }
  return out;
}

bool SpanLog::write_chrome_json(const std::string& path) const {
  std::ofstream out{path};
  if (!out) return false;
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& lane : lanes_) {
    for (const Span& s : lane) {
      out << (first ? "\n" : ",\n") << "{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.lane
          << ",\"ts\":" << s.start_us << ",\"dur\":" << (s.end_us - s.start_us)
          << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"group\":" << s.group << ",\"wait_us\":" << s.wait_us << "}}";
      first = false;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

SpanScope::SpanScope(SpanLog* log, std::uint32_t lane, const char* name,
                     std::uint64_t parent, std::uint64_t group)
    : log_(log != nullptr && log->enabled() ? log : nullptr) {
  if (log_ == nullptr) return;
  span_.name = name;
  span_.lane = lane;
  span_.parent = parent;
  span_.group = group;
  span_.id = log_->next_id(lane);
  span_.start_us = log_->now_us();
}

SpanScope::~SpanScope() {
  if (log_ == nullptr) return;
  span_.end_us = log_->now_us();
  log_->record(span_);
}

namespace {

// Length of the union of [start, end) intervals clipped to [lo, hi).
double union_length(std::vector<std::pair<double, double>>& iv, double lo,
                    double hi) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0;
  double cur_lo = 0.0;
  double cur_hi = -1.0;
  for (auto [a, b] : iv) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (a > cur_hi) {
      if (cur_hi > cur_lo) total += cur_hi - cur_lo;
      cur_lo = a;
      cur_hi = b;
    } else {
      cur_hi = std::max(cur_hi, b);
    }
  }
  if (cur_hi > cur_lo) total += cur_hi - cur_lo;
  return total;
}

}  // namespace

TraceSummary summarize_spans(const std::vector<Span>& spans, double from_us,
                             double to_us, double excluded_us) {
  std::unordered_map<std::uint64_t, std::vector<std::pair<double, double>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_us, s.end_us);
  }
  std::map<std::string, LayerTotals> layers;
  std::vector<std::pair<double, double>> top;
  for (const Span& s : spans) {
    if (s.start_us < from_us || s.start_us >= to_us) continue;
    const std::string name{s.name};
    LayerTotals& t = layers[name.substr(0, name.find('.'))];
    const double dur = s.end_us - s.start_us;
    double covered = 0.0;
    if (auto it = children.find(s.id); it != children.end()) {
      covered = union_length(it->second, s.start_us, s.end_us);
    }
    ++t.count;
    t.busy_ms += dur / 1e3;
    t.self_ms += (dur - covered) / 1e3;
    t.wait_ms += s.wait_us / 1e3;
    if (s.parent == 0 && s.lane == 0) top.emplace_back(s.start_us, s.end_us);
  }
  TraceSummary summary;
  summary.layers.assign(layers.begin(), layers.end());
  if (const double window = to_us - from_us - excluded_us; window > 0) {
    summary.coverage = union_length(top, from_us, to_us) / window;
  }
  return summary;
}

TimedExecutor::TimedExecutor(scout::runtime::Executor& inner, SpanLog* log)
    : inner_(&inner),
      log_(log),
      busy_ms_(inner.workers(), 0.0),
      queue_wait_us_(inner.workers()) {}

void TimedExecutor::run(
    std::size_t count,
    const std::function<void(std::size_t, std::size_t)>& task) {
  // Whatever instrumentation the caller attached (the monitor's registry
  // gate) applies to the executor that really runs the tasks.
  inner_->set_metrics(metrics_);
  if (log_ == nullptr || !log_->enabled()) {
    inner_->run(count, task);
    return;
  }
  const auto run_start = Clock::now();
  const double run_start_us = log_->now_us();
  inner_->run(count, [&](std::size_t index, std::size_t worker) {
    const auto lane = static_cast<std::uint32_t>(worker + 1);
    const auto t0 = Clock::now();
    {
      SpanScope span{log_, lane, "runtime.task", parent_, group_};
      const double wait = log_->now_us() - run_start_us;
      span.set_wait_us(wait);
      queue_wait_us_[worker].push_back(wait);
      task(index, worker);
    }
    busy_ms_[worker] += ms_between(t0, Clock::now());
  });
  run_wall_ms_ += ms_between(run_start, Clock::now());
}

TimedExecutor::Totals TimedExecutor::totals() const {
  Totals t;
  t.run_wall_ms = run_wall_ms_;
  t.busy_ms = busy_ms_;
  for (const auto& w : queue_wait_us_) {
    t.queue_wait_us.insert(t.queue_wait_us.end(), w.begin(), w.end());
  }
  return t;
}

void report_trace(const SpanLog& log, const TracedPhase& traced,
                  std::size_t ops, double measured_ms,
                  const std::string& path, WorkloadResult& result) {
  MetricSet& layer = result.per_layer;
  const TraceSummary summary = summarize_spans(
      log.all(), traced.from_us, traced.to_us, traced.excluded_us);
  for (const auto& [name, t] : summary.layers) {
    const std::string prefix = "layer." + name;
    layer.set(prefix + ".count", static_cast<double>(t.count), "count");
    layer.set(prefix + ".busy_ms", t.busy_ms, "ms");
    layer.set(prefix + ".self_ms", t.self_ms, "ms");
    layer.set(prefix + ".wait_ms", t.wait_ms, "ms");
  }
  const double untraced_ms = measured_ms - traced.measured_ms;
  const double traced_rate =
      static_cast<double>(traced.ops) / (traced.measured_ms / 1e3);
  const double untraced_rate =
      untraced_ms > 0
          ? static_cast<double>(ops - traced.ops) / (untraced_ms / 1e3)
          : 0.0;
  layer.set("bench.traced_ops", static_cast<double>(traced.ops), "count");
  layer.set("bench.trace_coverage", summary.coverage, "ratio");
  layer.set("bench.trace_overhead_pct",
            untraced_rate > 0
                ? (untraced_rate - traced_rate) / untraced_rate * 100.0
                : 0.0,
            "%");
  if (summary.coverage < 0.9) result.fail("trace coverage below 0.9");
  if (!path.empty() && !log.write_chrome_json(path)) {
    result.fail("cannot write " + path);
  }
}

void report_runtime(const TimedExecutor::Totals& totals, MetricSet& layer) {
  const double workers = static_cast<double>(totals.busy_ms.size());
  const double busy =
      std::accumulate(totals.busy_ms.begin(), totals.busy_ms.end(), 0.0);
  const double slowest =
      totals.busy_ms.empty()
          ? 0.0
          : *std::max_element(totals.busy_ms.begin(), totals.busy_ms.end());
  layer.set("runtime.busy_share",
            totals.run_wall_ms > 0.0 ? busy / (totals.run_wall_ms * workers)
                                     : 0.0,
            "ratio");
  layer.set("runtime.worker_skew",
            busy > 0.0 ? slowest / (busy / workers) : 0.0, "ratio");
  layer.set("runtime.queue_wait_p50_us",
            exact_percentile(totals.queue_wait_us, 0.5).value, "us");
}

}  // namespace perfbench
