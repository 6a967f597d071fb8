// Flight recorder: bounded-memory ring semantics (wraparound keeps the
// newest entries, capacity rounds to a power of two and never grows), span
// scopes, the JSON dump schema and Chrome trace export CI validates, the
// lane contract (an out-of-range lane or a ring too small for the monitor
// aborts in every build), and the SCOUT_CHECK abort hook — a death test
// proves a failing check leaves a parseable flight dump behind.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/runtime/campaign.h"
#include "src/scout/sim_network.h"
#include "src/stream/cause.h"
#include "src/stream/monitor_loop.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/metrics.h"
#include "src/workload/three_tier.h"

namespace scout {
namespace {

using telemetry::FlightRecorder;

TEST(FlightRecorder, CapacityRoundsUpToPowerOfTwo) {
  FlightRecorder rec{{.lanes = 1, .capacity_per_lane = 5}};
  EXPECT_EQ(rec.capacity_per_lane(), 8u);
  FlightRecorder exact{{.lanes = 1, .capacity_per_lane = 16}};
  EXPECT_EQ(exact.capacity_per_lane(), 16u);
  FlightRecorder tiny{{.lanes = 1, .capacity_per_lane = 0}};
  EXPECT_GE(tiny.capacity_per_lane(), 1u);
}

TEST(FlightRecorder, WraparoundKeepsNewestEntriesInOrder) {
  FlightRecorder rec{{.lanes = 1, .capacity_per_lane = 8}};
  for (int i = 0; i < 20; ++i) {
    rec.instant(0, "tick", static_cast<std::uint64_t>(i), -1);
  }
  EXPECT_EQ(rec.total_recorded(), 20u);
  const auto lanes = rec.snapshot();
  ASSERT_EQ(lanes.size(), 1u);
  EXPECT_EQ(lanes[0].recorded, 20u);
  // Exactly `capacity` survivors: the newest 8, oldest → newest.
  ASSERT_EQ(lanes[0].entries.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(lanes[0].entries[i].batch, 12 + i);
  }
}

TEST(FlightRecorder, BoundedMemoryAcrossSustainedRecording) {
  // Property: no matter how many entries are recorded, a snapshot never
  // exceeds lanes * capacity — the recorder is a fixed allocation.
  FlightRecorder rec{{.lanes = 2, .capacity_per_lane = 16}};
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 1000; ++i) {
      rec.instant(static_cast<std::size_t>(i % 2), "spin",
                  static_cast<std::uint64_t>(i), -1);
    }
    const auto lanes = rec.snapshot();
    ASSERT_EQ(lanes.size(), 2u);
    for (const auto& lane : lanes) {
      EXPECT_LE(lane.entries.size(), rec.capacity_per_lane());
    }
  }
  EXPECT_EQ(rec.total_recorded(), 5000u);
}

TEST(FlightRecorder, LanesRecordIndependently) {
  FlightRecorder rec{{.lanes = 3, .capacity_per_lane = 8}};
  rec.instant(0, "a", 1, -1);
  rec.instant(2, "c", 3, -1);
  rec.instant(2, "c2", 4, -1);
  const auto lanes = rec.snapshot();
  ASSERT_EQ(lanes.size(), 3u);
  EXPECT_EQ(lanes[0].entries.size(), 1u);
  EXPECT_TRUE(lanes[1].entries.empty());
  EXPECT_EQ(lanes[2].entries.size(), 2u);
}

TEST(FlightRecorder, NamesTruncateInsteadOfOverflowing) {
  FlightRecorder rec{{.lanes = 1, .capacity_per_lane = 4}};
  rec.instant(0, "a-name-far-longer-than-the-inline-capacity", 0, -1);
  const auto lanes = rec.snapshot();
  ASSERT_EQ(lanes[0].entries.size(), 1u);
  const std::string name = lanes[0].entries[0].name;
  EXPECT_LT(name.size(), FlightRecorder::kNameCapacity);
  EXPECT_EQ(name.substr(0, 6), "a-name");
}

TEST(FlightRecorder, JsonDumpCarriesSchemaAndDecodedCauses) {
  FlightRecorder rec{{.lanes = 1, .capacity_per_lane = 8}};
  FlightRecorder::Entry e;
  e.kind = FlightRecorder::EntryKind::kEvent;
  FlightRecorder::set_name(e, "rule_evicted");
  e.seq = 42;
  e.sw = 7;
  e.sim_ms = 1000;
  e.cause = stream::CauseId::make(stream::CauseEngine::kGray, 3).raw();
  rec.record(0, e);
  {
    const FlightRecorder::Scope drain{&rec, 0, "drain", /*batch=*/9, 1000};
  }

  const std::string json = rec.to_json();
  EXPECT_NE(json.find("\"scout-flight-recorder-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"rule_evicted\""), std::string::npos);
  // Causes decode to the engine#ordinal labels the incident log uses.
  EXPECT_NE(json.find("gray#3"), std::string::npos);
  EXPECT_NE(json.find("\"drain\""), std::string::npos);
}

// A span's start is wall_ms - dur_ms: its closing stamp minus its length.
double span_start(const FlightRecorder::Entry& e) {
  return e.wall_ms - e.dur_ms;
}

TEST(FlightRecorder, ScopesNestWithinLane) {
  FlightRecorder rec{{.lanes = 2, .capacity_per_lane = 8}};
  {
    const FlightRecorder::Scope outer{&rec, 0, "outer", 0, 100};
    {
      const FlightRecorder::Scope inner{&rec, 0, "inner", /*batch=*/3, 110};
    }
    rec.instant(1, "marker", 3, 115);
    // A null recorder's scope records nothing and touches no lane.
    const FlightRecorder::Scope off{nullptr, 7, "off", 0, 0};
  }
  const auto lanes = rec.snapshot();
  // Spans record at close, so the inner one lands first.
  ASSERT_EQ(lanes[0].entries.size(), 2u);
  const FlightRecorder::Entry& inner = lanes[0].entries[0];
  const FlightRecorder::Entry& outer = lanes[0].entries[1];
  EXPECT_STREQ(inner.name, "inner");
  EXPECT_STREQ(outer.name, "outer");
  EXPECT_EQ(inner.kind, FlightRecorder::EntryKind::kSpan);
  // Proper nesting: inner opens after outer and closes before it.
  EXPECT_GE(span_start(inner), span_start(outer));
  EXPECT_LE(inner.wall_ms, outer.wall_ms);
  EXPECT_GE(span_start(outer), 0.0);
  EXPECT_EQ(inner.batch, 3u);
  EXPECT_EQ(inner.sim_ms, 110);
  ASSERT_EQ(lanes[1].entries.size(), 1u);
  EXPECT_EQ(lanes[1].entries[0].kind, FlightRecorder::EntryKind::kInstant);
  EXPECT_EQ(lanes[1].entries[0].sim_ms, 115);
  EXPECT_EQ(rec.total_recorded(), 3u);
}

// The raw value of the first `"key":` in `obj`, quotes stripped.
std::string json_field(const std::string& obj, const std::string& key) {
  const std::string tag = "\"" + key + "\":";
  const std::size_t at = obj.find(tag);
  if (at == std::string::npos) return {};
  const std::size_t begin = at + tag.size();
  std::string v = obj.substr(begin, obj.find_first_of(",}", begin) - begin);
  if (v.size() >= 2 && v.front() == '"') v = v.substr(1, v.size() - 2);
  return v;
}

// One "traceEvents" element: its text (args included) and parsed fields.
struct ChromeEvent {
  std::string text, name, cat, ph;
  double ts = 0, dur = 0;
  std::size_t tid = 0;
};

std::vector<ChromeEvent> parse_chrome_events(const std::string& json) {
  // Events hold no arrays, so the first ']' closes "traceEvents".
  const std::string events = json.substr(0, json.find(']'));
  const std::string start = "{\"name\":";
  std::vector<ChromeEvent> out;
  for (std::size_t at = events.find(start); at != std::string::npos;) {
    const std::size_t next = events.find(start, at + 1);
    ChromeEvent ev;
    ev.text = events.substr(at, next - at);
    ev.name = json_field(ev.text, "name");
    ev.cat = json_field(ev.text, "cat");
    ev.ph = json_field(ev.text, "ph");
    ev.ts = std::stod(json_field(ev.text, "ts"));
    if (ev.ph == "X") ev.dur = std::stod(json_field(ev.text, "dur"));
    ev.tid = std::stoul(json_field(ev.text, "tid"));
    out.push_back(ev);
    at = next;
  }
  return out;
}

TEST(FlightRecorder, ChromeExportMapsSpansInstantsLanesAndMetrics) {
  FlightRecorder rec{{.lanes = 3, .capacity_per_lane = 8}};
  {
    const FlightRecorder::Scope drain{&rec, 0, "drain", 4, 1000};
    const FlightRecorder::Scope shard{&rec, 2, "shard", 4, 1000};
    // A rebuild marker as the checker writes it: the reason is the name.
    FlightRecorder::Entry rebuild;
    FlightRecorder::set_name(rebuild, "full_rebuild.threshold");
    rebuild.batch = 4;
    rebuild.sim_ms = 1000;
    rec.record(2, rebuild);
  }
  FlightRecorder::Entry ev;
  ev.kind = FlightRecorder::EntryKind::kEvent;
  FlightRecorder::set_name(ev, "rule_evicted");
  ev.cause = stream::CauseId::make(stream::CauseEngine::kGray, 3).raw();
  rec.record(0, ev);
  telemetry::MetricsRegistry registry{1};
  registry.add_counter("stream.events_drained", 5);
  const telemetry::MetricsSnapshot snap = registry.snapshot();

  const std::string json = rec.to_chrome_json(&snap);
  const std::vector<ChromeEvent> events = parse_chrome_events(json);
  ASSERT_EQ(events.size(), rec.total_recorded()) << json;
  const ChromeEvent* drain = nullptr;
  const ChromeEvent* shard = nullptr;
  const ChromeEvent* marker = nullptr;
  const ChromeEvent* evicted = nullptr;
  for (const ChromeEvent& e : events) {
    if (e.ph == "X") {
      EXPECT_GE(e.ts, 0.0) << e.name;
      EXPECT_GE(e.dur, 0.0) << e.name;
      EXPECT_EQ(e.cat, "span");
    }
    if (e.name == "drain") drain = &e;
    if (e.name == "shard") shard = &e;
    if (e.name == "full_rebuild.threshold") marker = &e;
    if (e.name == "rule_evicted") evicted = &e;
  }
  ASSERT_NE(drain, nullptr);
  ASSERT_NE(shard, nullptr);
  ASSERT_NE(marker, nullptr) << "rebuild reason lost from the name";
  ASSERT_NE(evicted, nullptr);
  EXPECT_EQ(drain->ph, "X");
  EXPECT_EQ(drain->tid, 0u);
  EXPECT_EQ(shard->tid, 2u);
  EXPECT_EQ(marker->ph, "i");
  EXPECT_EQ(marker->cat, "instant");
  EXPECT_EQ(marker->tid, 2u);
  // ts is the span's start: the marker recorded inside the shard span
  // falls within [ts, ts + dur].
  EXPECT_GE(marker->ts, shard->ts);
  EXPECT_LE(marker->ts, shard->ts + shard->dur);
  EXPECT_EQ(json_field(shard->text, "sim_ms"), "1000");
  EXPECT_EQ(json_field(shard->text, "batch"), "4");
  EXPECT_EQ(evicted->cat, "event");
  EXPECT_EQ(evicted->ph, "i");
  EXPECT_EQ(evicted->tid, 0u);
  EXPECT_EQ(json_field(evicted->text, "cause"), "gray#3");
  EXPECT_NE(json.find("\"metrics\":{"), std::string::npos);
  EXPECT_NE(json.find("\"stream.events_drained\":5"), std::string::npos);
  // No snapshot, no "metrics" key.
  EXPECT_EQ(rec.to_chrome_json().find("\"metrics\""), std::string::npos);
}

[[noreturn]] void crash_with_flight_dump(const std::string& path) {
  FlightRecorder rec{{.lanes = 1, .capacity_per_lane = 32}};
  rec.instant(0, "before_crash", 17, -1);
  rec.arm_abort_dump(path);
  SCOUT_CHECK(false, "flight-recorder death test");
  std::abort();  // unreachable; satisfies [[noreturn]]
}

TEST(FlightRecorderDeathTest, FailedCheckDumpsParseableFlight) {
  const std::string path = "flight_abort_dump_test.json";
  std::remove(path.c_str());
  EXPECT_DEATH(crash_with_flight_dump(path),
               "flight-recorder death test");
  // The death-test child wrote the dump on its way down; parse it here.
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr) << "abort hook did not write " << path;
  std::string content;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) content.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_NE(content.find("\"scout-flight-recorder-v1\""), std::string::npos);
  EXPECT_NE(content.find("\"before_crash\""), std::string::npos);
  EXPECT_EQ(content.front(), '{');
  // Balanced braces is the cheap proxy for "json.tool would accept it";
  // CI runs the real validator on the scoutctl dump.
  long depth = 0;
  for (const char c : content) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(FlightRecorder, DisarmedDestructorLeavesHookClear) {
  // Arming then destroying must disarm: a later recorder can arm again
  // and a check failure after destruction must not touch freed memory.
  const std::string path = "flight_disarm_test.json";
  {
    FlightRecorder rec{{.lanes = 1, .capacity_per_lane = 4}};
    rec.arm_abort_dump(path);
  }
  FlightRecorder::disarm_abort_dump();  // idempotent
  std::remove(path.c_str());
  SUCCEED();
}

// record() guards its lane with SCOUT_CHECK, not a debug-only DCHECK: a
// stray lane would write past the ring in a release build.
void record_on_missing_lane() {
  FlightRecorder rec{{.lanes = 2, .capacity_per_lane = 8}};
  rec.instant(2, "stray", 0, -1);
}

TEST(FlightRecorderDeathTest, OutOfRangeLaneAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(record_on_missing_lane(), "flight lane 2 out of range");
}

// A 4-worker monitor writes lanes 0..4; a 4-lane ring must be refused at
// construction, before any shard writes past it.
void monitor_four_workers_on_four_lanes() {
  ThreeTierNetwork three = make_three_tier();
  SimNetwork net{std::move(three.fabric), std::move(three.policy)};
  net.deploy();
  stream::EventBus bus;
  net.attach_event_bus(&bus);
  runtime::ThreadPoolExecutor executor{4};
  FlightRecorder rec{{.lanes = 4}};
  stream::MonitorLoop::Options options;
  options.flight = &rec;
  const stream::MonitorLoop monitor{net, bus, executor, options};
}

TEST(FlightRecorderDeathTest, MonitorRejectsRingWithTooFewLanes) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(monitor_four_workers_on_four_lanes(), "has 4 lanes, needs 5");
}

}  // namespace
}  // namespace scout
