#include "src/stream/event_bus.h"

#include <gtest/gtest.h>

#include "src/policy/change_log.h"

namespace scout::stream {
namespace {

StreamEvent rule_event(StreamEventType type, std::uint32_t sw_id) {
  StreamEvent ev;
  ev.type = type;
  ev.sw = SwitchId{sw_id};
  return ev;
}

TEST(EventBus, AssignsDenseMonotoneSequenceNumbers) {
  EventBus bus;
  EXPECT_EQ(bus.cursor(), 0u);
  EXPECT_EQ(bus.publish(rule_event(StreamEventType::kRuleInstalled, 1)), 0u);
  EXPECT_EQ(bus.publish(rule_event(StreamEventType::kRulesRemoved, 2)), 1u);
  EXPECT_EQ(bus.publish(rule_event(StreamEventType::kRuleEvicted, 3)), 2u);
  EXPECT_EQ(bus.cursor(), 3u);
  const auto all = bus.events_since(0);
  ASSERT_EQ(all.size(), 3u);
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].seq, i);
  }
}

TEST(EventBus, EventsSinceReturnsSuffixFromCursor) {
  EventBus bus;
  for (std::uint32_t i = 0; i < 5; ++i) {
    (void)bus.publish(rule_event(StreamEventType::kRuleInstalled, i));
  }
  const auto tail = bus.events_since(3);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].seq, 3u);
  EXPECT_EQ(tail[1].sw, SwitchId{4});
  EXPECT_TRUE(bus.events_since(5).empty());
  // A cursor ahead of the stream is consumer corruption: loud, not empty.
  EXPECT_THROW((void)bus.events_since(99), std::out_of_range);
}

TEST(EventBus, CompactionPreservesSequenceIdentity) {
  EventBus bus;
  for (std::uint32_t i = 0; i < 6; ++i) {
    (void)bus.publish(rule_event(StreamEventType::kRuleInstalled, i));
  }
  bus.compact(4);
  EXPECT_EQ(bus.base(), 4u);
  EXPECT_EQ(bus.retained(), 2u);
  EXPECT_EQ(bus.cursor(), 6u);
  const auto tail = bus.events_since(4);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].seq, 4u);
  // New publishes keep counting past the compaction base.
  EXPECT_EQ(bus.publish(rule_event(StreamEventType::kRuleEvicted, 9)), 6u);
  // A cursor below the base is a hard error, not silent data loss.
  EXPECT_THROW((void)bus.events_since(2), std::out_of_range);
  // Compacting backwards or past the end is clamped / a no-op.
  bus.compact(1);
  EXPECT_EQ(bus.base(), 4u);
  bus.compact(99);
  EXPECT_EQ(bus.base(), bus.cursor());
  EXPECT_EQ(bus.retained(), 0u);
}

TEST(EventBus, StampsChangeLogMark) {
  EventBus bus;
  ChangeLog log;
  bus.bind_change_log(&log);
  (void)bus.publish(rule_event(StreamEventType::kRuleInstalled, 1));
  log.record(SimTime{1}, ObjectRef::of(FilterId{1}), ChangeAction::kAdd);
  log.record(SimTime{2}, ObjectRef::of(FilterId{2}), ChangeAction::kModify);
  (void)bus.publish(rule_event(StreamEventType::kRuleInstalled, 2));
  const auto events = bus.events_since(0);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].change_log_mark, 0u);
  EXPECT_EQ(events[1].change_log_mark, 2u);
  // Two cursors slice exactly the actions recorded between them.
  const auto between = log.records().subspan(
      events[0].change_log_mark,
      events[1].change_log_mark - events[0].change_log_mark);
  EXPECT_EQ(between.size(), 2u);
}

TEST(EventBus, WallStampsAreMonotone) {
  EventBus bus;
  (void)bus.publish(rule_event(StreamEventType::kRuleInstalled, 1));
  (void)bus.publish(rule_event(StreamEventType::kRuleInstalled, 2));
  const auto events = bus.events_since(0);
  EXPECT_LE(events[0].wall, events[1].wall);
}

TEST(StreamEventType, Names) {
  EXPECT_EQ(to_string(StreamEventType::kRuleInstalled), "rule-installed");
  EXPECT_EQ(to_string(StreamEventType::kPolicyPushed), "policy-pushed");
  EXPECT_EQ(to_string(StreamEventType::kSwitchResynced), "switch-resynced");
}

}  // namespace
}  // namespace scout::stream
