// tcam-churn and policy-churn: a closed loop of fabric-op batches, each
// followed by the monitor's drain verdict (and, when that verdict fails,
// SCOUT localization of it), over a fabric simulated in-process.
//
// The op schedule is the benchmark's own, a pure function of --seed; the
// fabric is fixed (StreamSpec::fabric_seed) so that seeds vary the
// workload, not the size of the system under test. Fault ops go through
// SwitchAgent and Controller, the monitor runs as `scoutctl monitor` runs
// it (metrics registry attached, no trace/flight/incident/health sinks),
// and every timing is taken here, around the public call.
#include <algorithm>
#include <barrier>
#include <cmath>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>

#include "perfbench/src/bench_support.h"
#include "perfbench/src/spans.h"
#include "src/common/rng.h"
#include "src/scout/scout_system.h"
#include "src/scout/sim_network.h"
#include "src/stream/event_bus.h"
#include "src/stream/monitor_loop.h"
#include "src/telemetry/metrics.h"
#include "src/workload/policy_generator.h"

namespace perfbench {
namespace {

using namespace scout;

struct StreamSpec {
  std::uint64_t fabric_seed = 0;
  std::size_t switches = 0;
  std::size_t pairs = 0;
  std::size_t ops_per_batch = 0;
  // One of the batch's ops is a switch resync every N batches; the others
  // are TCAM faults. A fixed cadence keeps the share of resync batches
  // exact, so no percentile sits on the edge between the two kinds.
  std::size_t resync_every = 0;
  std::size_t push_every = 0;   // one policy push every N batches; 0 = none
  std::size_t workers = 1;
  // Length of a trace run's traced prefix, in batches per --seconds.
  double traced_batches_per_s = 0.0;
  // Independent monitors run side by side, each with its own fabric, op
  // schedule and executor, one per CPU; their samples are pooled.
  std::size_t replicas = 1;
};

StreamSpec spec_for(std::string_view name) {
  if (name == "tcam-churn") {
    // stream_latency's fabric shape (32 leaves, 640 pairs; ~29k TCAM rules
    // from this seed), evictions and bit corruptions plus one resync per
    // 24 ops (~4%, enough for repairs to keep pace with damage). Three
    // serial monitors, one per CPU 1-3: a single one pinned to one CPU
    // took that CPU's host interference whole (one CPU ran up to 34%
    // slower than another for seconds at a time), while three average it
    // out and triple the samples behind each percentile.
    return StreamSpec{1, 32, 640, 4, 6, 0, 1, 24.0, 3};
  }
  // A smaller fabric (16 leaves, 320 pairs; ~14k rules), a lighter drip
  // with one resync per 16 ops, and one full-policy push every 8th batch
  // (never a resync batch), the drain fanned over 3 workers.
  return StreamSpec{17, 16, 320, 4, 4, 8, 3, 20.0, 1};
}

constexpr std::size_t kSetups = 5;
// Untimed lead-in: this many data ops drained as one batch bring the
// damage/repair balance to steady state, then warm-up batches fill caches.
constexpr std::size_t kAgingOps = 3000;
constexpr std::size_t kWarmupBatches = 30;
constexpr std::size_t kCheckpointEvery = 400;
// Steady-state guard: the means of the first and the last tenth of the
// measured phase may differ by at most this much.
constexpr double kRuleDriftShare = 0.05;
constexpr double kFilterDrift = 1.0;  // one push may be outstanding

enum class OpKind : std::uint8_t {
  kEvict,
  kCorrupt,
  kResync,
  kMigrate,
  kMigrateBack,
  kDeployFilter,
  kUndeployFilter,
};

struct Op {
  OpKind kind = OpKind::kEvict;
  std::uint32_t target = 0;  // agent / endpoint / contract index
  std::uint32_t arg = 0;     // evict count / target agent / source filter
  std::uint64_t seed = 0;    // bit-corruption draw
  std::int64_t advance_ms = 1;
};

[[nodiscard]] bool is_push(OpKind k) {
  return k == OpKind::kMigrate || k == OpKind::kMigrateBack ||
         k == OpKind::kDeployFilter || k == OpKind::kUndeployFilter;
}

// The op schedule: batch b holds ops_per_batch data ops (the first one a
// resync when b sits on the resync cadence), plus one policy push when
// push_every divides b+1. Pushes cycle migrate, deploy filter,
// undeploy that filter, migrate back — every push is later undone.
class OpSchedule {
 public:
  OpSchedule(std::uint64_t seed, const StreamSpec& spec, std::size_t agents,
             std::size_t endpoints, std::size_t contracts,
             std::size_t filters)
      : rng_(derive_seed(seed, 0x5C4E)),
        spec_(spec),
        agents_(agents),
        endpoints_(endpoints),
        contracts_(contracts),
        filters_(filters) {
    resync_order_.resize(agents);
    for (std::size_t i = 0; i < agents; ++i) {
      resync_order_[i] = static_cast<std::uint32_t>(i);
    }
    rng_.shuffle(resync_order_);
  }

  Op data_op(bool resync) {
    Op op;
    op.advance_ms = rng_.between(1, 40);
    op.target = static_cast<std::uint32_t>(rng_.below(agents_));
    if (resync) {
      // Resyncs visit the switches in a seeded round-robin, so every run
      // repairs each switch equally often.
      op.kind = OpKind::kResync;
      op.target = resync_order_[resyncs_++ % resync_order_.size()];
    } else if (rng_.chance(0.6)) {
      op.kind = OpKind::kEvict;
      op.arg = static_cast<std::uint32_t>(1 + rng_.below(3));
    } else {
      op.kind = OpKind::kCorrupt;
      op.seed = rng_();
    }
    return fold(op);
  }

  void batch(std::size_t b, std::vector<Op>& out) {
    out.clear();
    const bool resync = b % spec_.resync_every == spec_.resync_every / 2;
    for (std::size_t i = 0; i < spec_.ops_per_batch; ++i) {
      out.push_back(data_op(resync && i == 0));
    }
    if (spec_.push_every > 0 && (b + 1) % spec_.push_every == 0) {
      Op op;
      op.advance_ms = rng_.between(1, 40);
      switch (pushes_++ % 4) {
        case 0:
          op.kind = OpKind::kMigrate;
          op.target = static_cast<std::uint32_t>(rng_.below(endpoints_));
          op.arg = static_cast<std::uint32_t>(rng_.below(agents_));
          break;
        case 1:
          op.kind = OpKind::kDeployFilter;
          op.target = static_cast<std::uint32_t>(rng_.below(contracts_));
          op.arg = static_cast<std::uint32_t>(rng_.below(filters_));
          break;
        case 2:
          op.kind = OpKind::kUndeployFilter;
          break;
        default:
          op.kind = OpKind::kMigrateBack;
          break;
      }
      out.push_back(fold(op));
    }
  }

  [[nodiscard]] std::uint64_t digest() const noexcept { return digest_; }

 private:
  Op fold(const Op& op) {
    digest_ = fold_digest(digest_, static_cast<std::uint64_t>(op.kind));
    digest_ = fold_digest(digest_, op.target);
    digest_ = fold_digest(digest_, op.arg);
    digest_ = fold_digest(digest_, op.seed);
    digest_ = fold_digest(digest_, static_cast<std::uint64_t>(op.advance_ms));
    return op;
  }

  Rng rng_;
  StreamSpec spec_;
  std::size_t agents_, endpoints_, contracts_, filters_;
  std::vector<std::uint32_t> resync_order_;
  std::size_t resyncs_ = 0;
  std::size_t pushes_ = 0;
  std::uint64_t digest_ = 0xCBF29CE484222325ULL;
};

// One set-up: the deployed fabric, its event bus and the monitor. Members
// are destroyed in reverse order, the monitor first.
struct StreamEnv {
  stream::EventBus bus;
  std::unique_ptr<SimNetwork> net;
  std::unique_ptr<telemetry::MetricsRegistry> registry;
  std::unique_ptr<runtime::Executor> pool;
  std::unique_ptr<TimedExecutor> exec;
  std::unique_ptr<stream::MonitorLoop> monitor;
};

struct SetupTimes {
  double generate_ms = 0.0;
  double deploy_ms = 0.0;
  double prime_ms = 0.0;
  double index_ms = 0.0;
  double total_s = 0.0;
};

// Builds one set-up on the calling thread, which it pins to `cpu`; pool
// worker w goes to CPU w+1.
std::unique_ptr<StreamEnv> build_env(const StreamSpec& spec,
                                     std::size_t workers, std::size_t cpu,
                                     SpanLog* log, SetupTimes& times) {
  const auto t0 = Clock::now();
  auto env = std::make_unique<StreamEnv>();
  GeneratorProfile profile = GeneratorProfile::scaled(spec.switches);
  profile.target_pairs = spec.pairs;
  Rng rng{spec.fabric_seed};
  GeneratedNetwork generated = generate_network(profile, rng);
  const auto t1 = Clock::now();
  env->net = std::make_unique<SimNetwork>(std::move(generated.fabric),
                                          std::move(generated.policy));
  (void)env->net->deploy();
  env->net->clock().advance(3'600'000);  // age out deploy-time records
  env->net->attach_event_bus(&env->bus);
  const auto t2 = Clock::now();
  env->registry = std::make_unique<telemetry::MetricsRegistry>(workers);
  // One CPU per thread. Left to itself the scheduler sometimes stacked two
  // busy workers on one CPU for a whole phase, doubling drain times at
  // random.
  pin_current_thread(cpu);
  env->pool = runtime::make_executor(workers);
  if (workers > 1) {
    env->pool->run(workers, [](std::size_t, std::size_t worker) {
      pin_current_thread(worker + 1);
    });
  }
  env->exec = std::make_unique<TimedExecutor>(*env->pool, log);
  stream::MonitorLoop::Options options;
  options.metrics = env->registry.get();
  env->monitor = std::make_unique<stream::MonitorLoop>(*env->net, env->bus,
                                                       *env->exec, options);
  env->monitor->prime();
  const auto t3 = Clock::now();
  // The monitor builds its policy index on the first localization; do it
  // here so that lazy work is set-up, not the first measured batch.
  (void)env->monitor->localize(FabricCheck{});
  const auto t4 = Clock::now();
  times.generate_ms = ms_between(t0, t1);
  times.deploy_ms = ms_between(t1, t2);
  times.prime_ms = ms_between(t2, t3);
  times.index_ms = ms_between(t3, t4);
  times.total_s = ms_between(t0, t4) / 1e3;
  return env;
}

[[nodiscard]] std::size_t total_rules(const SimNetwork& net) {
  std::size_t n = 0;
  for (const auto& agent : net.agents()) n += agent->tcam().size();
  return n;
}

[[nodiscard]] std::size_t deployed_filters(const SimNetwork& net) {
  std::size_t n = 0;
  for (const Contract& c : net.controller().policy().contracts()) {
    n += c.filters.size();
  }
  return n;
}

struct Steady {
  double rules = 0.0;    // TCAM rules over all switches
  double failing = 0.0;  // switches the verdict flags
  double filters = 0.0;  // filters attached to contracts
};

// Mean of samples [from, to).
Steady steady_mean(const std::vector<Steady>& xs, std::size_t from,
                   std::size_t to) {
  Steady m;
  for (std::size_t i = from; i < to; ++i) {
    m.rules += xs[i].rules;
    m.failing += xs[i].failing;
    m.filters += xs[i].filters;
  }
  const double n = static_cast<double>(std::max<std::size_t>(1, to - from));
  return Steady{m.rules / n, m.failing / n, m.filters / n};
}

// Per-drain accounting for the per-layer metrics (trace runs only).
struct DrainTally {
  std::vector<double> drain_ms;
  std::vector<double> events;
  std::vector<double> bus_wait_ms;
  double touched = 0.0;
  double ordinary_ms = 0.0, ordinary_diffs = 0.0;
  double rebuild_ms = 0.0, rebuilds = 0.0;
  double full_rebuild_drain_ms = 0.0;
};

struct FabricTally {
  std::size_t fault_ops = 0, resyncs = 0, pushes = 0, instructions = 0;
  double fault_ms = 0.0, resync_ms = 0.0, push_ms = 0.0;
  // MonitorLoop::localize calls on failing verdicts.
  std::size_t localizes = 0, hypothesis_objects = 0;
  double localize_ms = 0.0;
};

class StreamRun {
 public:
  using CheckerStats = stream::IncrementalChecker::Stats;

  StreamRun(const StreamSpec& spec, std::uint64_t seed, StreamEnv& env,
            SpanLog* log)
      : spec_(spec),
        env_(env),
        log_(log),
        schedule_(seed, spec, env.net->agents().size(),
                  env.net->controller().policy().endpoints().size(),
                  env.net->controller().policy().contracts().size(),
                  env.net->controller().policy().filters().size()),
        digest_(derive_seed(seed, 0xD1)) {}

  // Untimed lead-in: aging burst + warm-up batches.
  void lead_in() {
    const std::size_t resync_every = spec_.ops_per_batch * spec_.resync_every;
    for (std::size_t i = 0; i < kAgingOps; ++i) {
      apply(schedule_.data_op(i % resync_every == 0), 0);
    }
    fold(env_.monitor->drain().check);
    for (std::size_t b = 0; b < kWarmupBatches; ++b) (void)batch(false);
  }

  struct BatchResult {
    std::size_t ops = 0;
    double detect_ms = 0.0;
    std::optional<double> localize_ms;
  };

  BatchResult batch(bool traced) {
    schedule_.batch(batch_index_, ops_);
    const std::uint64_t group = ++batch_index_;
    BatchResult r;
    r.ops = ops_.size();
    SpanScope span{log_, 0, "bench.batch", 0, group};
    const stream::EventBus::Cursor c0 = env_.bus.cursor();
    const auto t0 = Clock::now();
    for (const Op& op : ops_) apply(op, span.id());
    double bus_wait_ms = 0.0;
    std::size_t touched = 0;
    if (traced) {
      const auto events = env_.bus.events_since(c0);
      if (!events.empty()) {
        bus_wait_ms = ms_between(events.front().wall, Clock::now());
      }
      std::unordered_set<std::uint32_t> switches;
      for (const auto& ev : events) switches.insert(ev.sw.value());
      touched = switches.size();
    }
    const auto t1 = Clock::now();
    stream::MonitorVerdict verdict;
    {
      SpanScope drain{log_, 0, "stream.drain", span.id(), group};
      drain.set_wait_us(bus_wait_ms * 1e3);
      env_.exec->set_parent(drain.id(), group);
      verdict = env_.monitor->drain();
    }
    const auto t2 = Clock::now();
    r.detect_ms = ms_between(t0, t2);
    ++verdicts_;
    if (!verdict.check.inconsistent.empty()) {
      ++failing_verdicts_;
      std::size_t objects = 0;
      {
        SpanScope loc{log_, 0, "localization.monitor_localize", span.id(),
                      group};
        objects = env_.monitor->localize(verdict.check).hypothesis.size();
      }
      const auto t3 = Clock::now();
      r.localize_ms = ms_between(t0, t3);
      if (counting_) {
        ++fabric_.localizes;
        fabric_.localize_ms += ms_between(t2, t3);
        fabric_.hypothesis_objects += objects;
      }
    }
    if (traced) tally_drain(verdict, ms_between(t1, t2), bus_wait_ms, touched);
    fold(verdict.check);
    return r;
  }

  // Oracle: the last verdict against a fresh whole-fabric check.
  bool oracle_matches() {
    const ScoutSystem oracle{
        ScoutSystem::Options{CheckMode::kExactBdd, ScoutLocalizer::Options{}}};
    return fabric_check_identical(last_check_,
                                  oracle.check_all(*env_.net, *env_.pool));
  }

  [[nodiscard]] Steady steady() const {
    return Steady{static_cast<double>(total_rules(*env_.net)),
                  static_cast<double>(last_check_.inconsistent.size()),
                  static_cast<double>(deployed_filters(*env_.net))};
  }

  [[nodiscard]] std::uint64_t digest() const noexcept { return digest_; }
  [[nodiscard]] std::uint64_t schedule_digest() const noexcept {
    return schedule_.digest();
  }
  [[nodiscard]] std::size_t verdicts() const noexcept { return verdicts_; }
  [[nodiscard]] std::size_t failing_verdicts() const noexcept {
    return failing_verdicts_;
  }

  // The per-layer metrics the traced prefix tallied (trace runs only).
  void report_layers(MetricSet& layer) const {
    const FabricTally& f = fabric_;
    const auto mean = [](double total, std::size_t n) {
      return n > 0 ? total / static_cast<double>(n) : 0.0;
    };
    layer.set("agent.fault_ms", mean(f.fault_ms, f.fault_ops), "ms");
    layer.set("agent.fault_ops", static_cast<double>(f.fault_ops), "count");
    layer.set("controller.resync_ms", mean(f.resync_ms, f.resyncs), "ms");
    layer.set("controller.resyncs", static_cast<double>(f.resyncs), "count");
    layer.set("controller.instructions", static_cast<double>(f.instructions),
              "count");
    layer.set("controller.push_ms", mean(f.push_ms, f.pushes), "ms");
    layer.set("controller.pushes", static_cast<double>(f.pushes), "count");
    layer.set("localization.localize_ms", mean(f.localize_ms, f.localizes),
              "ms");
    layer.set("localization.hypothesis_objects",
              static_cast<double>(f.hypothesis_objects), "count");

    const DrainTally& d = drains_;
    const double drains = static_cast<double>(d.drain_ms.size());
    double busy_ms = 0.0;
    for (const double ms : d.drain_ms) busy_ms += ms;
    layer.set("stream.bus_wait_p50_ms", median(d.bus_wait_ms), "ms");
    layer.set("stream.events_per_drain_p50", median(d.events), "count");
    layer.set("stream.events_per_drain_max",
              d.events.empty() ? 0.0
                               : *std::max_element(d.events.begin(),
                                                   d.events.end()),
              "count");
    layer.set("stream.drain_p50_ms", median(d.drain_ms), "ms");
    layer.set("stream.drain_p99_ms", exact_percentile(d.drain_ms, 0.99).value,
              "ms");
    layer.set("stream.drain_busy_s", busy_ms / 1e3, "s");
    layer.set("stream.switches_touched_per_drain",
              drains > 0 ? d.touched / drains : 0.0, "count");
    const CheckerStats c = delta(traced_end_, traced_base_);
    const double reused = static_cast<double>(c.verdicts_reused);
    const double diffs = static_cast<double>(c.diff_recomputes);
    layer.set("stream.diff_recomputes", diffs, "count");
    layer.set("stream.ms_per_diff",
              d.ordinary_diffs > 0 ? d.ordinary_ms / d.ordinary_diffs : 0.0,
              "ms");
    layer.set("stream.verdicts_reused", reused, "count");
    layer.set("stream.verdict_reuse_ratio",
              reused + diffs > 0 ? reused / (reused + diffs) : 0.0, "ratio");
    layer.set("stream.incremental_updates",
              static_cast<double>(c.incremental_updates), "count");
    layer.set("stream.unsafe_rebuilds", static_cast<double>(c.unsafe_rebuilds),
              "count");
    layer.set("stream.threshold_trips", static_cast<double>(c.threshold_trips),
              "count");
    layer.set("stream.epoch_rebuilds", static_cast<double>(c.epoch_rebuilds),
              "count");
    layer.set("stream.ms_per_epoch_rebuild",
              d.rebuilds > 0 ? d.rebuild_ms / d.rebuilds : 0.0, "ms");
    layer.set("stream.full_rebuild_share",
              busy_ms > 0 ? d.full_rebuild_drain_ms / busy_ms : 0.0, "ratio");
  }

  void mark_trace_start() {
    traced_base_ = env_.monitor->checker_stats();
    last_stats_ = traced_base_;
  }
  // Counts and engine gauges as the traced prefix ends, so that they cover
  // the prefix alone and repeat exactly for one seed.
  void mark_trace_end() {
    traced_end_ = env_.monitor->checker_stats();
    traced_snapshot_ = env_.monitor->snapshot_metrics();
  }
  [[nodiscard]] const telemetry::MetricsSnapshot& traced_snapshot() const {
    return traced_snapshot_;
  }
  void set_counting(bool on) noexcept { counting_ = on; }

 private:
  static CheckerStats delta(const CheckerStats& a, const CheckerStats& b) {
    CheckerStats d;
    d.incremental_updates = a.incremental_updates - b.incremental_updates;
    d.full_rebuilds = a.full_rebuilds - b.full_rebuilds;
    d.epoch_rebuilds = a.epoch_rebuilds - b.epoch_rebuilds;
    d.threshold_trips = a.threshold_trips - b.threshold_trips;
    d.unsafe_rebuilds = a.unsafe_rebuilds - b.unsafe_rebuilds;
    d.diff_recomputes = a.diff_recomputes - b.diff_recomputes;
    d.verdicts_reused = a.verdicts_reused - b.verdicts_reused;
    return d;
  }

  void fold(FabricCheck check) {
    digest_ = fabric_check_digest(digest_, check);
    last_check_ = std::move(check);
  }

  void tally_drain(const stream::MonitorVerdict& v, double drain_ms,
                   double bus_wait_ms, std::size_t touched) {
    const CheckerStats now = env_.monitor->checker_stats();
    const CheckerStats d = delta(now, last_stats_);
    last_stats_ = now;
    if (!counting_) return;
    drains_.drain_ms.push_back(drain_ms);
    drains_.events.push_back(static_cast<double>(v.events));
    drains_.bus_wait_ms.push_back(bus_wait_ms);
    drains_.touched += static_cast<double>(touched);
    if (d.epoch_rebuilds > 0) {
      drains_.rebuild_ms += drain_ms;
      drains_.rebuilds += static_cast<double>(d.epoch_rebuilds);
    } else {
      drains_.ordinary_ms += drain_ms;
      drains_.ordinary_diffs += static_cast<double>(d.diff_recomputes);
    }
    if (d.full_rebuilds > 0) drains_.full_rebuild_drain_ms += drain_ms;
  }

  void apply(const Op& op, std::uint64_t parent) {
    SimNetwork& net = *env_.net;
    Controller& ctl = net.controller();
    net.clock().advance(op.advance_ms);
    const SimTime now = net.clock().now();
    const auto agents = net.agents();
    const std::uint64_t group = batch_index_;
    const auto t0 = Clock::now();
    DeployStats stats;
    switch (op.kind) {
      case OpKind::kEvict: {
        SpanScope s{log_, 0, "agent.evict_rules", parent, group};
        (void)agents[op.target]->evict_rules(op.arg, now);
        break;
      }
      case OpKind::kCorrupt: {
        SpanScope s{log_, 0, "agent.corrupt_tcam_bit", parent, group};
        Rng rng{op.seed};
        (void)agents[op.target]->corrupt_tcam_bit(rng, now, 0.5);
        break;
      }
      case OpKind::kResync: {
        SpanScope s{log_, 0, "controller.resync_switch", parent, group};
        stats = ctl.resync_switch(agents[op.target]->id());
        break;
      }
      case OpKind::kMigrate: {
        SpanScope s{log_, 0, "controller.migrate_endpoint", parent, group};
        const EndpointId ep = ctl.policy().endpoints()[op.target].id;
        const SwitchId from = ctl.policy().endpoint(ep).attached_switch;
        SwitchId to = agents[op.arg]->id();
        if (to == from) to = agents[(op.arg + 1) % agents.size()]->id();
        stats = ctl.migrate_endpoint(ep, to);
        migrated_ = std::pair{ep, from};
        break;
      }
      case OpKind::kMigrateBack: {
        SpanScope s{log_, 0, "controller.migrate_endpoint", parent, group};
        if (migrated_) stats = ctl.migrate_endpoint(migrated_->first,
                                                    migrated_->second);
        migrated_.reset();
        break;
      }
      case OpKind::kDeployFilter: {
        SpanScope s{log_, 0, "controller.deploy_new_filter", parent, group};
        const NetworkPolicy& policy = ctl.policy();
        const ContractId contract = policy.contracts()[op.target].id;
        std::vector<FilterEntry> entries = policy.filters()[op.arg].entries;
        const FilterId filter = ctl.deploy_new_filter(
            "bench-filter-" + std::to_string(++filters_deployed_),
            std::move(entries), contract, &stats);
        deployed_ = std::pair{contract, filter};
        break;
      }
      case OpKind::kUndeployFilter: {
        SpanScope s{log_, 0, "controller.undeploy_filter", parent, group};
        if (deployed_) ctl.undeploy_filter(deployed_->first,
                                           deployed_->second, &stats);
        deployed_.reset();
        break;
      }
    }
    if (!counting_) return;
    const double ms = ms_between(t0, Clock::now());
    if (is_push(op.kind)) {
      ++fabric_.pushes;
      fabric_.push_ms += ms;
      fabric_.instructions += stats.total();
    } else if (op.kind == OpKind::kResync) {
      ++fabric_.resyncs;
      fabric_.resync_ms += ms;
      fabric_.instructions += stats.total();
    } else {
      ++fabric_.fault_ops;
      fabric_.fault_ms += ms;
    }
  }

  StreamSpec spec_;
  StreamEnv& env_;
  SpanLog* log_;
  OpSchedule schedule_;
  std::vector<Op> ops_;
  std::uint64_t batch_index_ = 0;
  std::uint64_t digest_;
  FabricCheck last_check_;
  std::size_t verdicts_ = 0;
  std::size_t failing_verdicts_ = 0;
  std::size_t filters_deployed_ = 0;
  std::optional<std::pair<EndpointId, SwitchId>> migrated_;
  std::optional<std::pair<ContractId, FilterId>> deployed_;
  bool counting_ = false;
  DrainTally drains_;
  FabricTally fabric_;
  CheckerStats last_stats_{};
  CheckerStats traced_base_{};
  CheckerStats traced_end_{};
  telemetry::MetricsSnapshot traced_snapshot_;
};

// What one monitor's measured phase produced.
struct ReplicaOut {
  std::vector<double> detect_ms, localize_ms;
  std::vector<Steady> steady;  // per measured batch
  std::size_t ops = 0, batches = 0, checkpoints = 0, last_ops = 0;
  std::uint64_t failed = 0;
  double measured_ms = 0.0, oracle_ms = 0.0, lead_in_s = 0.0;
  TracedPhase traced_phase;
  std::vector<std::string> errors;

  void check(StreamRun& run, const std::string& where) {
    const auto t0 = Clock::now();
    ++checkpoints;
    if (!run.oracle_matches()) {
      failed += last_ops;
      errors.push_back("verdict mismatch " + where);
    }
    oracle_ms += ms_between(t0, Clock::now());
  }
};

// Lead-in, then the measured phase, in step with the other monitors
// through `sync`: all start together, and all stop for each oracle
// checkpoint, so no oracle runs beside another monitor's measured batch.
// A trace run records spans over a fixed-length prefix (so its counts
// repeat exactly) and keeps going untraced for the rest of --seconds; the
// two rates give the tracing overhead. The final oracle check is the
// caller's, once every monitor has stopped.
void measure(StreamRun& run, const WorkloadArgs& args,
             std::size_t traced_batches, SpanLog& log, std::barrier<>& sync,
             ReplicaOut& out) {
  const bool fixed = args.fixed_ops > 0;
  try {
    const auto lead_start = Clock::now();
    run.lead_in();
    out.lead_in_s = ms_between(lead_start, Clock::now()) / 1e3;
    out.check(run, "after lead-in");
    sync.arrive_and_wait();

    double paused_ms = 0.0;
    const auto phase_start = Clock::now();
    for (;;) {
      const bool traced = out.batches < traced_batches;
      if (traced && out.batches == 0) {
        log.set_enabled(true);
        run.set_counting(true);
        run.mark_trace_start();
        out.traced_phase.from_us = log.now_us();
      }
      const StreamRun::BatchResult b = run.batch(traced);
      out.steady.push_back(run.steady());
      ++out.batches;
      out.ops += b.ops;
      out.last_ops = b.ops;
      if (traced) out.traced_phase.ops += b.ops;
      out.detect_ms.push_back(b.detect_ms);
      if (b.localize_ms) out.localize_ms.push_back(*b.localize_ms);
      if (traced && out.batches == traced_batches) {
        out.traced_phase.to_us = log.now_us();
        out.traced_phase.measured_ms =
            ms_between(phase_start, Clock::now()) - paused_ms;
        log.set_enabled(false);
        run.set_counting(false);
        run.mark_trace_end();
      }
      const bool done =
          fixed ? out.batches >= args.fixed_ops
                : out.batches > traced_batches &&
                      ms_between(phase_start, Clock::now()) - paused_ms >=
                          args.seconds * 1e3;
      if (done) break;
      if (out.batches % kCheckpointEvery == 0) {
        const auto c0 = Clock::now();
        sync.arrive_and_wait();
        out.check(run, "at batch " + std::to_string(out.batches));
        sync.arrive_and_wait();
        const double ms = ms_between(c0, Clock::now());
        paused_ms += ms;
        if (log.enabled()) out.traced_phase.excluded_us += ms * 1e3;
      }
    }
    out.measured_ms = ms_between(phase_start, Clock::now()) - paused_ms;
  } catch (...) {
    sync.arrive_and_drop();  // the other monitors must not wait for this one
    throw;
  }
  sync.arrive_and_drop();
}

// Runs fn(r) for every replica r: inline when there is one, else on one
// thread per replica, all joined before returning; the first exception a
// thread threw is rethrown here.
template <typename Fn>
void for_each_replica(std::size_t replicas, const Fn& fn) {
  if (replicas == 1) {
    fn(std::size_t{0});
    return;
  }
  std::vector<std::exception_ptr> errors(replicas);
  {
    std::vector<std::jthread> threads;
    threads.reserve(replicas);
    for (std::size_t r = 0; r < replicas; ++r) {
      threads.emplace_back([&fn, &errors, r] {
        try {
          fn(r);
        } catch (...) {
          errors[r] = std::current_exception();
        }
      });
    }
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace

WorkloadResult run_stream_workload(const WorkloadArgs& args) {
  const StreamSpec spec = spec_for(args.workload);
  const std::size_t workers = args.workers > 0 ? args.workers : spec.workers;
  const std::size_t replicas = spec.replicas;
  const bool fixed = args.fixed_ops > 0;
  WorkloadResult result;
  // Only the first monitor is traced; its lanes are its own thread (0) and
  // its executor's workers (w+1).
  SpanLog log{workers + 1};
  SpanLog* trace = args.trace ? &log : nullptr;
  // A lone monitor drives from CPU 0 (its pool, if any, on CPUs 1..);
  // side-by-side monitors take CPUs 1.. and leave CPU 0 to the system.
  const auto cpu_of = [&](std::size_t r) {
    return replicas == 1 ? 0 : r + 1;
  };

  // Set-up, repeated; the last environments are the ones measured.
  const std::size_t setups = fixed ? 1 : kSetups;
  std::vector<double> setup_s, gen_ms, deploy_ms, prime_ms, index_ms;
  std::vector<std::unique_ptr<StreamEnv>> envs(replicas);
  for (std::size_t i = 0; i < setups; ++i) {
    for (auto& env : envs) env.reset();
    std::vector<SetupTimes> times(replicas);
    const auto t0 = Clock::now();
    for_each_replica(replicas, [&](std::size_t r) {
      envs[r] = build_env(spec, workers, cpu_of(r), r == 0 ? trace : nullptr,
                          times[r]);
    });
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
    gen_ms.push_back(times[0].generate_ms);
    deploy_ms.push_back(times[0].deploy_ms);
    prime_ms.push_back(times[0].prime_ms);
    index_ms.push_back(times[0].index_ms);
  }

  std::vector<std::unique_ptr<StreamRun>> runs;
  for (std::size_t r = 0; r < replicas; ++r) {
    const std::uint64_t seed =
        r == 0 ? args.seed : derive_seed(args.seed, 0x7E0 + r);
    runs.push_back(std::make_unique<StreamRun>(spec, seed, *envs[r],
                                               r == 0 ? trace : nullptr));
  }
  const std::size_t traced_batches =
      args.trace ? std::max<std::size_t>(
                       1, static_cast<std::size_t>(std::lround(
                              args.seconds * spec.traced_batches_per_s)))
                 : 0;
  std::vector<ReplicaOut> outs(replicas);
  std::barrier<> sync{static_cast<std::ptrdiff_t>(replicas)};
  SpanLog untraced{1};
  for_each_replica(replicas, [&](std::size_t r) {
    if (replicas > 1) pin_current_thread(cpu_of(r));
    measure(*runs[r], args, r == 0 ? traced_batches : 0,
            r == 0 ? log : untraced, sync, outs[r]);
  });
  for_each_replica(replicas, [&](std::size_t r) {
    outs[r].check(*runs[r], "at the end");
  });

  // Pool the monitors' samples; the rate is the sum of their rates.
  std::vector<double> detect_ms, localize_ms;
  std::size_t ops = 0, batches = 0, checkpoints = 0;
  double ops_per_s = 0.0;
  std::string lead_in, verdicts, failing;
  for (std::size_t r = 0; r < replicas; ++r) {
    const ReplicaOut& o = outs[r];
    detect_ms.insert(detect_ms.end(), o.detect_ms.begin(), o.detect_ms.end());
    localize_ms.insert(localize_ms.end(), o.localize_ms.begin(),
                       o.localize_ms.end());
    ops += o.ops;
    batches += o.batches;
    checkpoints += o.checkpoints;
    ops_per_s += static_cast<double>(o.ops) / (o.measured_ms / 1e3);
    result.failed += o.failed;
    for (const std::string& e : o.errors) {
      result.fail(replicas == 1 ? e
                                : "monitor " + std::to_string(r) + ": " + e);
    }
    const std::string sep = r == 0 ? "" : " ";
    lead_in += sep + std::to_string(o.lead_in_s);
    verdicts += sep + std::to_string(runs[r]->verdicts());
    failing += sep + std::to_string(runs[r]->failing_verdicts());

    // Steady-state guard: first tenth of the measured phase against the
    // last, per monitor.
    const std::size_t tenth = std::max<std::size_t>(1, o.steady.size() / 10);
    const Steady start = steady_mean(o.steady, 0, tenth);
    const Steady end =
        steady_mean(o.steady, o.steady.size() - tenth, o.steady.size());
    const auto show = [](double a, double b) {
      return std::to_string(a) + " -> " + std::to_string(b);
    };
    const std::string tag = replicas == 1 ? "" : "[" + std::to_string(r) + "]";
    result.note("steady.tcam_rules" + tag, show(start.rules, end.rules));
    result.note("steady.failing_switches" + tag,
                show(start.failing, end.failing));
    result.note("steady.deployed_filters" + tag,
                show(start.filters, end.filters));
    const double failing_tolerance =
        std::max(2.0, static_cast<double>(spec.switches) / 4.0);
    if (!fixed &&
        (std::abs(end.rules - start.rules) > kRuleDriftShare * start.rules ||
         std::abs(end.failing - start.failing) > failing_tolerance ||
         std::abs(end.filters - start.filters) > kFilterDrift)) {
      result.fail("steady-state guard: monitor " + std::to_string(r) +
                  " drifted during the run");
    }
    result.schedule_digest =
        fold_digest(result.schedule_digest, runs[r]->schedule_digest());
    result.verdict_digest =
        fold_digest(result.verdict_digest, runs[r]->digest());
  }
  result.attempted = ops;

  result.note("lead_in_s", lead_in);
  result.note("workers", std::to_string(workers));
  result.note("monitors", std::to_string(replicas));
  result.note("batches", std::to_string(batches));
  result.note("verdicts", verdicts);
  result.note("failing_verdicts", failing);
  result.note("oracle_checkpoints", std::to_string(checkpoints));

  MetricSet& e2e = result.end_to_end;
  e2e.set("ops_per_s", ops_per_s, "1/s");
  report_percentile(result, e2e, "detect_p50_ms", detect_ms, 0.50);
  report_percentile(result, e2e, "detect_p99_ms", detect_ms, 0.99);
  report_percentile(result, e2e, "localize_p50_ms", localize_ms, 0.50);
  report_percentile(result, e2e, "localize_p99_ms", localize_ms, 0.99);
  e2e.set("setup_s", median(setup_s), "s");
  e2e.set("peak_rss_mb", peak_rss_mb(), "MB");

  // Per-layer metrics describe the first monitor.
  MetricSet& layer = result.per_layer;
  layer.set("workload.generate_ms", median(gen_ms), "ms");
  layer.set("scout.deploy_ms", median(deploy_ms), "ms");
  layer.set("stream.prime_ms", median(prime_ms), "ms");
  layer.set("policy.index_ms", median(index_ms), "ms");
  const double checks =
      static_cast<double>(std::max<std::size_t>(1, outs[0].checkpoints));
  layer.set("checker.oracle_ms", outs[0].oracle_ms / checks, "ms");
  if (args.trace) {
    const telemetry::MetricsSnapshot& snap = runs[0]->traced_snapshot();
    layer.set("bdd.arena_nodes", snap.gauge("bdd.arena_nodes"), "count");
    layer.set("bdd.arena_peak_nodes", snap.gauge("bdd.arena_peak_nodes"),
              "count");
    layer.set("bdd.cache_hit_rate", snap.gauge("bdd.cache_hit_rate"),
              "ratio");
    layer.set("bdd.unique_load", snap.gauge("bdd.unique_load"), "ratio");
    runs[0]->report_layers(layer);
    report_runtime(envs[0]->exec->totals(), layer);
    report_trace(log, outs[0].traced_phase, outs[0].ops, outs[0].measured_ms,
                 args.trace_path, result);
  }
  return result;
}

}  // namespace perfbench
