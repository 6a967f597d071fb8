#include "src/controller/controller.h"

#include <gtest/gtest.h>

#include "src/scout/sim_network.h"
#include "src/workload/three_tier.h"

namespace scout {
namespace {

struct ControllerFixture : ::testing::Test {
  ControllerFixture()
      : three(make_three_tier()),
        net(std::move(three.fabric), std::move(three.policy)) {}

  ThreeTierNetwork three;
  SimNetwork net;
};

TEST_F(ControllerFixture, FullDeployPushesEveryRule) {
  const DeployStats stats = net.deploy();
  EXPECT_EQ(stats.lost + stats.crashed + stats.tcam_overflow, 0u);
  // 3 + 7 + 5 rules across S1..S3 (Figure 2 for S2).
  EXPECT_EQ(stats.applied, 15u);
  EXPECT_EQ(net.agent(three.s2).tcam().size(), 7u);
}

TEST_F(ControllerFixture, DeployRecordsChangeLogPerObject) {
  (void)net.deploy();
  const ChangeLog& log = net.controller().change_log();
  // 1 VRF + 3 EPGs + 2 filters + 2 contracts = 8 'add' records.
  EXPECT_EQ(log.size(), 8u);
  for (const ChangeRecord& rec : log.records()) {
    EXPECT_EQ(rec.action, ChangeAction::kAdd);
  }
}

TEST_F(ControllerFixture, DeployNewFilterPushesIncrementally) {
  (void)net.deploy();
  const std::size_t s2_before = net.agent(three.s2).tcam().size();
  const std::size_t s1_before = net.agent(three.s1).tcam().size();

  DeployStats stats;
  const FilterId f = net.controller().deploy_new_filter(
      "port443", {FilterEntry::allow_tcp(443)}, three.app_db, &stats);
  EXPECT_TRUE(f.valid());
  // App-DB deploys on S2 and S3: 2 rules each.
  EXPECT_EQ(stats.applied, 4u);
  EXPECT_EQ(net.agent(three.s2).tcam().size(), s2_before + 2);
  EXPECT_EQ(net.agent(three.s1).tcam().size(), s1_before);

  // Change log gained filter-add + contract-modify.
  const auto& records = net.controller().change_log().records();
  EXPECT_EQ(records[records.size() - 2].object, ObjectRef::of(f));
  EXPECT_EQ(records.back().object, ObjectRef::of(three.app_db));
  EXPECT_EQ(records.back().action, ChangeAction::kModify);
}

TEST_F(ControllerFixture, DeployNewFilterKeepsCompiledInSync) {
  (void)net.deploy();
  (void)net.controller().deploy_new_filter(
      "port443", {FilterEntry::allow_tcp(443)}, three.app_db, nullptr);
  // The compiled snapshot must reflect the new filter on S2 and S3.
  std::size_t found = 0;
  for (const auto& [sw, rules] : net.controller().compiled().per_switch) {
    for (const LogicalRule& lr : rules) {
      if (lr.rule.dst_port.value == 443 &&
          lr.rule.action == RuleAction::kAllow) {
        ++found;
      }
    }
  }
  EXPECT_EQ(found, 4u);
}

// A switch's rule epoch is the compiled epoch at which its own rules last
// changed: a recompile moves compiled_epoch() every time, but only the
// switches whose rules it changed, or emptied, get the new stamp.
TEST_F(ControllerFixture, RulesEpochMovesOnlyWithTheSwitchsRules) {
  (void)net.deploy();
  Controller& ctl = net.controller();
  const auto epoch_of = [&](SwitchId sw) {
    return ctl.compiled().rules_epoch(sw);
  };
  const std::uint64_t deployed = ctl.compiled_epoch();
  ASSERT_EQ(ctl.compiled().per_switch.size(), 3u);
  for (const auto& [sw, rules] : ctl.compiled().per_switch) {
    EXPECT_EQ(epoch_of(sw), deployed) << sw;
  }
  EXPECT_EQ(epoch_of(SwitchId{99}), 0u);  // never had rules

  ctl.recompile();  // the unchanged policy
  EXPECT_EQ(ctl.compiled_epoch(), deployed + 1);
  for (const SwitchId sw : {three.s1, three.s2, three.s3}) {
    EXPECT_EQ(epoch_of(sw), deployed) << sw;
  }

  // App-DB deploys on S2 and S3 only.
  (void)ctl.deploy_new_filter("port443", {FilterEntry::allow_tcp(443)},
                              three.app_db);
  const std::uint64_t pushed = ctl.compiled_epoch();
  EXPECT_EQ(epoch_of(three.s1), deployed);
  EXPECT_EQ(epoch_of(three.s2), pushed);
  EXPECT_EQ(epoch_of(three.s3), pushed);

  // EP1 leaves S1: Web is hosted nowhere else there, so S1's rules all
  // vanish. S2 already hosts App and so keeps the Web-App rules it had.
  const EndpointId ep1 = ctl.policy().endpoints().front().id;
  ASSERT_EQ(ctl.policy().endpoint(ep1).attached_switch, three.s1);
  (void)ctl.migrate_endpoint(ep1, three.s2);
  const std::uint64_t moved = ctl.compiled_epoch();
  EXPECT_TRUE(ctl.compiled().rules_for(three.s1).empty());
  EXPECT_EQ(epoch_of(three.s1), moved);
  EXPECT_EQ(epoch_of(three.s2), pushed);
  EXPECT_EQ(epoch_of(three.s3), pushed);

  // Still empty: the stamp stays.
  ctl.recompile();
  EXPECT_EQ(epoch_of(three.s1), moved);
}

TEST_F(ControllerFixture, DisconnectedSwitchLosesInstructions) {
  net.controller().disconnect_switch(three.s2);
  const DeployStats stats = net.deploy();
  EXPECT_EQ(stats.lost, 7u);  // S2's rules vanish
  EXPECT_EQ(net.agent(three.s2).tcam().size(), 0u);
  EXPECT_EQ(net.agent(three.s1).tcam().size(), 3u);

  // Controller raised exactly one unreachable fault for the episode.
  const FaultLog& faults = net.controller().fault_log();
  ASSERT_EQ(faults.size(), 1u);
  EXPECT_EQ(faults.records()[0].code, FaultCode::kSwitchUnreachable);
  EXPECT_EQ(faults.records()[0].sw, three.s2);
  EXPECT_FALSE(faults.records()[0].cleared.has_value());
}

TEST_F(ControllerFixture, ReconnectClearsUnreachableFault) {
  net.controller().disconnect_switch(three.s2);
  (void)net.deploy();
  net.clock().advance(100);
  net.controller().reconnect_switch(three.s2);
  const FaultLog& faults = net.controller().fault_log();
  ASSERT_EQ(faults.size(), 1u);
  EXPECT_TRUE(faults.records()[0].cleared.has_value());
}

TEST_F(ControllerFixture, UnresponsiveAgentDetectedViaKeepalive) {
  net.agent(three.s3).set_responsive(false);
  const DeployStats stats = net.deploy();
  EXPECT_EQ(stats.lost, 5u);
  const FaultLog& faults = net.controller().fault_log();
  ASSERT_EQ(faults.size(), 1u);
  EXPECT_EQ(faults.records()[0].sw, three.s3);
}

TEST_F(ControllerFixture, RecordBenignChangeAppendsModify) {
  (void)net.deploy();
  net.controller().record_benign_change(ObjectRef::of(three.port80));
  const auto& records = net.controller().change_log().records();
  EXPECT_EQ(records.back().object, ObjectRef::of(three.port80));
  EXPECT_EQ(records.back().action, ChangeAction::kModify);
}

TEST_F(ControllerFixture, AgentLookupUnknownSwitchIsNull) {
  EXPECT_EQ(net.controller().agent(SwitchId{99}), nullptr);
}

TEST(DeployStats, CountMapsStatuses) {
  DeployStats s;
  s.count(ApplyStatus::kApplied);
  s.count(ApplyStatus::kLost);
  s.count(ApplyStatus::kCrashed);
  s.count(ApplyStatus::kTcamOverflow);
  s.count(ApplyStatus::kApplied);
  EXPECT_EQ(s.applied, 2u);
  EXPECT_EQ(s.lost, 1u);
  EXPECT_EQ(s.crashed, 1u);
  EXPECT_EQ(s.tcam_overflow, 1u);
  EXPECT_EQ(s.total(), 5u);
}

}  // namespace
}  // namespace scout
