// Thread-sharded metrics registry: counters, gauges and latency histograms
// across the detect -> localize -> remediate pipeline, the benches and
// scoutctl.
//
// One copy per metric: the registry holds what no other object counts.
// Subsystems that keep their own lifetime counts (event bus, MPSC ring,
// incremental checker, BDD arenas, agents, incident builder) are not
// mirrored into it, and the health.* grades of those counts are not stored
// at all. A registry attached to a stream::MonitorLoop is therefore read
// through MonitorLoop::snapshot_metrics(), which merges the owners' series
// and the grades into this registry's snapshot at the snapshot instant.
//
// Design:
//  * Registration is locked, recording is not. Register-or-fetch takes the
//    registry mutex (cold path, thread-safe), and the entry storage is a
//    deque so slot addresses handed to handles never move. The recording
//    hot path is a plain store: each metric owns one cache-padded slot per
//    worker shard; Counter::add / Histogram::record index the caller's
//    shard and mutate only it, so recording from worker w never contends
//    with worker w' — no atomics, no locks.
//  * Snapshots require quiescence, and the registry enforces it. Executors
//    bracket their parallel sections with begin/end_parallel_region()
//    (wired through runtime::ExecutorMetrics); snapshot(), reset() and
//    registration SCOUT_CHECK that no region is active, so "merge the
//    shards mid-run" is a loud abort instead of a torn read. The
//    happens-before edge for the shard values themselves comes from the
//    executor's join (pool wait()), which completes before
//    end_parallel_region() runs; the gate's release/acquire pair extends
//    that edge to any thread that observes the region closed.
//  * Handles are no-op-able. A default-constructed handle (or any handle
//    from a disabled component holding no registry) ignores every call, so
//    instrumented code never branches on "is telemetry on" beyond the
//    handle's internal null check.
//  * Snapshots are deterministic. Metrics are emitted sorted by name;
//    counters under the "stream." prefix are pure functions of the event
//    stream (worker-count invariant), which tests/test_telemetry.cpp pins
//    at 1/2/4 workers.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/check.h"
#include "src/common/mutex.h"
#include "src/common/stats.h"
#include "src/common/thread_annotations.h"

namespace scout {
class JsonWriter;
}  // namespace scout

namespace scout::telemetry {

class MetricsRegistry;

// Merged, name-sorted view of a registry at one quiescent point.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    double value = 0.0;
  };
  struct HistogramValue {
    std::string name;
    LogHistogram histogram;
  };

  std::vector<CounterValue> counters;      // sorted by name
  std::vector<GaugeValue> gauges;          // sorted by name
  std::vector<HistogramValue> histograms;  // sorted by name

  // Lookups return 0 / nullptr for unknown names.
  [[nodiscard]] std::uint64_t counter(std::string_view name) const noexcept;
  [[nodiscard]] double gauge(std::string_view name) const noexcept;
  [[nodiscard]] const LogHistogram* histogram(
      std::string_view name) const noexcept;

  // Counters whose name starts with `prefix` — the deterministic subset
  // the worker-count-invariance tests compare.
  [[nodiscard]] std::vector<CounterValue> counters_with_prefix(
      std::string_view prefix) const;

  // Prometheus text exposition (counters + gauges + histogram summaries).
  [[nodiscard]] std::string to_prometheus() const;

  // JSON object {"counters":{...},"gauges":{...},"histograms":{...}}.
  void write_json(JsonWriter& w) const;
  [[nodiscard]] std::string to_json() const;
};

namespace detail {

struct alignas(64) CounterSlot {
  std::uint64_t value = 0;
};

struct alignas(64) HistogramSlot {
  LogHistogram histogram;
};

}  // namespace detail

// Monotone event count. add() from worker w touches only shard w.
class Counter {
 public:
  Counter() = default;

  void add(std::size_t worker, std::uint64_t delta) noexcept {
    if (slots_ != nullptr) {
      SCOUT_DCHECK(worker < shards_, "Counter shard " << worker
                                         << " out of range (" << shards_
                                         << " shards)");
      slots_[worker].value += delta;
    }
  }
  void inc(std::size_t worker) noexcept { add(worker, 1); }
  // Driver-thread convenience (shard 0).
  void add(std::uint64_t delta = 1) noexcept { add(std::size_t{0}, delta); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return slots_ != nullptr;
  }

 private:
  friend class MetricsRegistry;
  Counter(detail::CounterSlot* slots, std::size_t shards) noexcept
      : slots_(slots), shards_(shards) {}
  detail::CounterSlot* slots_ = nullptr;
  std::size_t shards_ = 0;  // for the debug bounds check only
};

// Last-write-wins level (backlog depth, arena size, ...). Gauges are set
// from the driver thread between parallel sections, so they are unsharded.
class Gauge {
 public:
  Gauge() = default;

  void set(double value) noexcept {
    if (slot_ != nullptr) *slot_ = value;
  }

  [[nodiscard]] explicit operator bool() const noexcept {
    return slot_ != nullptr;
  }

 private:
  friend class MetricsRegistry;
  explicit Gauge(double* slot) noexcept : slot_(slot) {}
  double* slot_ = nullptr;
};

// Sharded LogHistogram; shards merge exactly at snapshot time
// (tests/test_stats.cpp pins merge-order invariance).
class Histogram {
 public:
  Histogram() = default;

  void record(std::size_t worker, double value) {
    if (slots_ != nullptr) {
      SCOUT_DCHECK(worker < shards_, "Histogram shard " << worker
                                         << " out of range (" << shards_
                                         << " shards)");
      slots_[worker].histogram.record(value);
    }
  }
  void record(double value) { record(0, value); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return slots_ != nullptr;
  }

 private:
  friend class MetricsRegistry;
  Histogram(detail::HistogramSlot* slots, std::size_t shards) noexcept
      : slots_(slots), shards_(shards) {}
  detail::HistogramSlot* slots_ = nullptr;
  std::size_t shards_ = 0;  // for the debug bounds check only
};

class MetricsRegistry {
 public:
  // `shards` must cover every worker index handles will be used with
  // (executor workers; the driver thread records on shard 0).
  explicit MetricsRegistry(std::size_t shards = 1);

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  [[nodiscard]] std::size_t shards() const noexcept { return shards_; }

  // Register-or-fetch by dotted name ("stream.full_rebuilds"). Thread-safe
  // with respect to other registrations, but forbidden (SCOUT_CHECK)
  // inside a parallel region: handles must be acquired before the workers
  // start recording.
  [[nodiscard]] Counter counter(std::string_view name)
      SCOUT_EXCLUDES(mu_);
  [[nodiscard]] Gauge gauge(std::string_view name) SCOUT_EXCLUDES(mu_);
  [[nodiscard]] Histogram histogram(std::string_view name)
      SCOUT_EXCLUDES(mu_);

  // One-shot driver-thread conveniences (register + mutate).
  void set_gauge(std::string_view name, double value) {
    gauge(name).set(value);
  }
  void add_counter(std::string_view name, std::uint64_t delta) {
    counter(name).add(delta);
  }

  // -- quiescence gate -------------------------------------------------------
  // Executors call these around every parallel section (see
  // runtime::ExecutorMetrics::registry). Nesting is allowed (a task fanning
  // out its own executor); the region is open while any depth remains.
  void begin_parallel_region() noexcept {
    parallel_depth_.fetch_add(1, std::memory_order_acquire);
  }
  void end_parallel_region() noexcept {
    const int prev = parallel_depth_.fetch_sub(1, std::memory_order_release);
    SCOUT_CHECK(prev > 0, "MetricsRegistry: unbalanced end_parallel_region");
  }
  [[nodiscard]] bool in_parallel_region() const noexcept {
    return parallel_depth_.load(std::memory_order_acquire) != 0;
  }

  // Merge all shards into a name-sorted snapshot. Aborts if a parallel
  // region is active — the snapshot-at-quiescence contract is enforced
  // here, not by convention at the call sites.
  [[nodiscard]] MetricsSnapshot snapshot() const SCOUT_EXCLUDES(mu_);

  // Zero every counter/gauge/histogram; handles stay valid. Same
  // quiescence requirement as snapshot().
  void reset() SCOUT_EXCLUDES(mu_);

 private:
  struct CounterEntry {
    std::string name;
    std::vector<detail::CounterSlot> slots;
  };
  struct GaugeEntry {
    std::string name;
    double value = 0.0;
  };
  struct HistogramEntry {
    std::string name;
    std::vector<detail::HistogramSlot> slots;
  };

  std::size_t shards_ = 1;
  // Open parallel sections. 0 is the quiescent state snapshot() requires;
  // the release on close pairs with the acquire in in_parallel_region() so
  // a thread that sees the region closed also sees everything the closing
  // thread saw (which, after an executor join, is every shard write).
  std::atomic<int> parallel_depth_{0};

  // Guards the name tables and entry deques (registration); the slot
  // *values* inside entries are deliberately unguarded — they are the
  // sharded lock-free hot path, protected by the quiescence gate instead.
  mutable Mutex mu_;
  // deque: entry addresses are stable as the registry grows, so handles
  // (raw slot pointers) never dangle.
  std::deque<CounterEntry> counter_entries_ SCOUT_GUARDED_BY(mu_);
  std::deque<GaugeEntry> gauge_entries_ SCOUT_GUARDED_BY(mu_);
  std::deque<HistogramEntry> histogram_entries_ SCOUT_GUARDED_BY(mu_);
  std::map<std::string, CounterEntry*, std::less<>> counters_by_name_
      SCOUT_GUARDED_BY(mu_);
  std::map<std::string, GaugeEntry*, std::less<>> gauges_by_name_
      SCOUT_GUARDED_BY(mu_);
  std::map<std::string, HistogramEntry*, std::less<>> histograms_by_name_
      SCOUT_GUARDED_BY(mu_);
};

// Bench/CI key from a dotted metric name: '.' -> '_' so registry names map
// onto the historical BENCH_*.json keys ("bdd.unique_load" ->
// "bdd_unique_load").
[[nodiscard]] std::string bench_key(std::string_view metric_name);

}  // namespace scout::telemetry
