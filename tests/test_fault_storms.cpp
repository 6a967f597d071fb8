// Differential gate for the chaos engine: every new fault class — gray
// rendering faults, the three correlated storm profiles, each pluggable
// TCAM eviction policy, and delayed/reordered control delivery — must
// leave the monitor's verdict stream a pure function of the seed. Per
// seed the serial-transport anchor (0 publishers, no ring) and the
// 4-publisher MPSC-ring leg must produce bit-identical verdict digests,
// and both legs must match a fresh ScoutSystem::check_all after every
// batch (verify_batches).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/scout/experiment.h"
#include "src/stream/monitor_loop.h"
#include "src/workload/three_tier.h"

namespace scout {
namespace {

// One knob per fault class so a digest divergence names its culprit.
struct FaultClass {
  const char* name;
  double gray_rate;
  const char* storm;
  const char* evict;
  std::size_t delivery_window;
};

MonitoringOptions chaos_scenario(std::uint64_t seed, const FaultClass& fc) {
  MonitoringOptions options;
  options.profile = GeneratorProfile::scaled(8);
  options.profile.target_pairs = 8 * 40;
  options.events = 120;
  options.batch_ops = 10;
  options.seed = seed;
  options.localize_final = false;
  options.gray_rate = fc.gray_rate;
  options.storm = fc.storm;
  options.storm_every_batches = 1;  // batches are big; storm every drain
  options.evict_policy = fc.evict;
  options.delivery_window = fc.delivery_window;
  options.verify_batches = true;  // fresh check_all after every batch
  return options;
}

// 20 seeds x {serial anchor, 4-publisher ring leg} for one fault class.
void run_differential_gate(const FaultClass& fc) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    MonitoringOptions base = chaos_scenario(seed, fc);
    base.publishers = 0;
    runtime::SerialExecutor serial_exec;
    const MonitoringReport anchor =
        run_continuous_monitoring(base, serial_exec);
    EXPECT_EQ(anchor.verify_mismatches, 0u)
        << fc.name << " serial leg, seed " << seed;

    MonitoringOptions ring = chaos_scenario(seed, fc);
    ring.publishers = 4;
    const auto executor = runtime::make_executor(2);
    const MonitoringReport report =
        run_continuous_monitoring(ring, *executor);
    EXPECT_EQ(report.verify_mismatches, 0u)
        << fc.name << " ring leg, seed " << seed;
    EXPECT_EQ(report.verdict_digest, anchor.verdict_digest)
        << fc.name << " seed " << seed << ": 4-publisher ring diverged "
        << "from the serial transport";
    EXPECT_GE(report.events, ring.events) << fc.name << " seed " << seed;
  }
}

TEST(FaultStorms, GrayAgentsDigestIdenticalAcrossTransports) {
  const FaultClass fc{"gray", 0.15, "", "", 0};
  run_differential_gate(fc);
}

TEST(FaultStorms, RackPowerStormDigestIdenticalAcrossTransports) {
  const FaultClass fc{"rack-power", 0.0, "rack-power", "", 0};
  run_differential_gate(fc);
}

TEST(FaultStorms, RollingUpgradeStormDigestIdenticalAcrossTransports) {
  const FaultClass fc{"rolling-upgrade", 0.0, "rolling-upgrade", "", 0};
  run_differential_gate(fc);
}

TEST(FaultStorms, PodBrownoutStormDigestIdenticalAcrossTransports) {
  const FaultClass fc{"pod-brownout", 0.0, "pod-brownout", "", 0};
  run_differential_gate(fc);
}

TEST(FaultStorms, FifoEvictionDigestIdenticalAcrossTransports) {
  const FaultClass fc{"evict-fifo", 0.0, "", "fifo", 0};
  run_differential_gate(fc);
}

TEST(FaultStorms, RandomEvictionDigestIdenticalAcrossTransports) {
  const FaultClass fc{"evict-random", 0.0, "", "random", 0};
  run_differential_gate(fc);
}

TEST(FaultStorms, LruTouchEvictionDigestIdenticalAcrossTransports) {
  const FaultClass fc{"evict-lru-touch", 0.0, "", "lru-touch", 0};
  run_differential_gate(fc);
}

TEST(FaultStorms, ReorderedDeliveryDigestIdenticalAcrossTransports) {
  const FaultClass fc{"reorder", 0.0, "", "", 6};
  run_differential_gate(fc);
}

// The fault engine must actually fire inside the gated runs: a storm leg
// reports episodes, a gray leg reports misrenders or drops, an eviction
// leg counts evictions. A silent engine would make the digest gate
// vacuous.
TEST(FaultStorms, FaultEnginesActuallyFire) {
  runtime::SerialExecutor executor;
  {
    const FaultClass fc{"rack-power", 0.0, "rack-power", "", 0};
    const MonitoringReport report =
        run_continuous_monitoring(chaos_scenario(5, fc), executor);
    EXPECT_GT(report.telemetry.counter("faults.storm.episodes"), 0u);
  }
  {
    const FaultClass fc{"gray", 0.35, "", "", 0};
    const MonitoringReport report =
        run_continuous_monitoring(chaos_scenario(5, fc), executor);
    EXPECT_GT(report.telemetry.counter("faults.gray.misrenders") +
                  report.telemetry.counter("faults.gray.drops"),
              0u);
  }
  {
    const FaultClass fc{"evict-fifo", 0.0, "", "fifo", 0};
    const MonitoringReport report =
        run_continuous_monitoring(chaos_scenario(5, fc), executor);
    EXPECT_GT(report.telemetry.counter("tcam.evictions.fifo"), 0u);
  }
}

// Split mode heals on every other cadence tick, so the exported episode
// count must follow the schedule's episodes, not its run_episode() calls.
// Rack-power damage always leaves a rack to heal, so with a storm tick
// after every batch the run starts ceil(batches / 2) episodes. The
// configuration is incident_accuracy's storm leg.
TEST(FaultStorms, SplitEpisodesCountedOncePerEpisode) {
  MonitoringOptions options;
  options.profile = GeneratorProfile::scaled(12);
  options.profile.target_pairs = 12 * 20;
  options.events = 600;
  options.batch_ops = 12;
  options.seed = 41;
  options.localize_final = false;
  options.storm = "rack-power";
  options.storm_every_batches = 1;
  options.storm_split = true;
  runtime::SerialExecutor executor;
  const MonitoringReport report = run_continuous_monitoring(options, executor);
  ASSERT_GE(report.batches, 2u);
  EXPECT_EQ(report.telemetry.counter("faults.storm.episodes"),
            (report.batches + 1) / 2);
}

}  // namespace
}  // namespace scout
