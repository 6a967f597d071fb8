#include "src/telemetry/flight_recorder.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "src/common/check.h"
#include "src/common/json_writer.h"
#include "src/stream/cause.h"
#include "src/telemetry/metrics.h"

namespace scout::telemetry {
namespace {

// Abort-dump arming is process-global state: the SCOUT_CHECK hook has no
// argument channel, so the armed recorder and its target path live here.
// The path is a fixed buffer — no allocation on the abort path beyond the
// JSON serialization itself (abort() after a failed CHECK is not a signal
// handler; the heap is assumed intact enough for a best-effort dump).
constexpr std::size_t kAbortPathCapacity = 512;
FlightRecorder* g_abort_recorder = nullptr;
char g_abort_path[kAbortPathCapacity] = {};

void abort_dump_hook() noexcept {
  FlightRecorder* recorder = g_abort_recorder;
  if (recorder == nullptr || g_abort_path[0] == '\0') return;
  if (recorder->dump_to_file(g_abort_path)) {
    std::fprintf(stderr, "flight recorder dumped to %s\n", g_abort_path);
  } else {
    std::fprintf(stderr, "flight recorder dump to %s failed\n", g_abort_path);
  }
  std::fflush(stderr);
}

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

const char* to_string(FlightRecorder::EntryKind kind) noexcept {
  switch (kind) {
    case FlightRecorder::EntryKind::kInstant: return "instant";
    case FlightRecorder::EntryKind::kSpan: return "span";
    case FlightRecorder::EntryKind::kEvent: return "event";
    case FlightRecorder::EntryKind::kVerdict: return "verdict";
  }
  return "unknown";
}

// Decodes a CauseId::raw() value to the same "engine#ordinal" label the
// incident log uses, so post-mortems and incident records cross-reference.
std::string cause_label(std::uint64_t raw) {
  const stream::CauseId id = stream::CauseId::from_raw(raw);
  if (id.is_null()) return {};
  return std::string{stream::to_string(id.engine())} + "#" +
         std::to_string(id.ordinal());
}

}  // namespace

FlightRecorder::FlightRecorder(Options options)
    : lane_count_(std::max<std::size_t>(1, options.lanes)),
      capacity_(round_up_pow2(
          std::max<std::size_t>(8, options.capacity_per_lane))),
      storage_(lane_count_ * capacity_),
      lanes_(new Lane[lane_count_]),
      start_(std::chrono::steady_clock::now()) {
  for (std::size_t i = 0; i < lane_count_; ++i) {
    lanes_[i].entries = storage_.data() + i * capacity_;
  }
}

FlightRecorder::~FlightRecorder() {
  if (g_abort_recorder == this) disarm_abort_dump();
}

void FlightRecorder::set_name(Entry& e, const char* name) noexcept {
  std::strncpy(e.name, name, kNameCapacity - 1);
  e.name[kNameCapacity - 1] = '\0';
}

double FlightRecorder::now_ms() const noexcept {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

void FlightRecorder::record(std::size_t lane, Entry e) noexcept {
  e.wall_ms = now_ms();
  publish(lane, e);
}

void FlightRecorder::publish(std::size_t lane, const Entry& e) noexcept {
  SCOUT_CHECK(lane < lane_count_, "flight lane " << lane << " out of range ("
                                                 << lane_count_ << " lanes)");
  Lane& l = lanes_[lane];
  const std::uint64_t head = l.head.load(std::memory_order_relaxed);
  l.entries[head & (capacity_ - 1)] = e;
  l.head.store(head + 1, std::memory_order_release);
}

void FlightRecorder::instant(std::size_t lane, const char* name,
                             std::uint64_t batch,
                             std::int64_t sim_ms) noexcept {
  Entry e;
  e.kind = EntryKind::kInstant;
  set_name(e, name);
  e.batch = batch;
  e.sim_ms = sim_ms;
  record(lane, e);
}

FlightRecorder::Scope::Scope(FlightRecorder* recorder, std::size_t lane,
                             const char* name, std::uint64_t batch,
                             std::int64_t sim_ms) noexcept
    : recorder_(recorder), lane_(lane) {
  if (recorder_ == nullptr) return;
  entry_.kind = EntryKind::kSpan;
  set_name(entry_, name);
  entry_.batch = batch;
  entry_.sim_ms = sim_ms;
  entry_.wall_ms = recorder_->now_ms();
}

FlightRecorder::Scope::~Scope() {
  if (recorder_ == nullptr) return;
  // One clock read for both, so wall_ms - dur_ms is the opening instant.
  const double end_ms = recorder_->now_ms();
  entry_.dur_ms = end_ms - entry_.wall_ms;
  entry_.wall_ms = end_ms;
  recorder_->publish(lane_, entry_);
}

std::uint64_t FlightRecorder::total_recorded() const noexcept {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < lane_count_; ++i) {
    total += lanes_[i].head.load(std::memory_order_acquire);
  }
  return total;
}

std::vector<FlightRecorder::LaneSnapshot> FlightRecorder::snapshot() const {
  std::vector<LaneSnapshot> out;
  out.reserve(lane_count_);
  for (std::size_t i = 0; i < lane_count_; ++i) {
    const Lane& l = lanes_[i];
    const std::uint64_t head = l.head.load(std::memory_order_acquire);
    const std::uint64_t count = std::min<std::uint64_t>(head, capacity_);
    LaneSnapshot snap;
    snap.lane = i;
    snap.recorded = head;
    snap.entries.reserve(count);
    // Oldest surviving entry first.
    for (std::uint64_t k = head - count; k < head; ++k) {
      snap.entries.push_back(l.entries[k & (capacity_ - 1)]);
    }
    out.push_back(std::move(snap));
  }
  return out;
}

void FlightRecorder::write_json(JsonWriter& w) const {
  const std::vector<LaneSnapshot> lanes = snapshot();
  w.begin_object();
  w.field("schema", "scout-flight-recorder-v1");
  w.field("lanes", static_cast<std::uint64_t>(lane_count_));
  w.field("capacity_per_lane", static_cast<std::uint64_t>(capacity_));
  std::uint64_t total = 0;
  for (const LaneSnapshot& l : lanes) total += l.recorded;
  w.field("total_recorded", total);
  w.key("entries_by_lane").begin_array();
  for (const LaneSnapshot& l : lanes) {
    w.begin_object();
    w.field("lane", static_cast<std::uint64_t>(l.lane));
    w.field("recorded", l.recorded);
    w.key("entries").begin_array();
    for (const Entry& e : l.entries) {
      w.begin_object();
      w.field("kind", to_string(e.kind));
      w.field("name", e.name);
      w.field("wall_ms", e.wall_ms);
      if (e.kind == EntryKind::kSpan) w.field("dur_ms", e.dur_ms);
      if (e.sim_ms >= 0) w.field("sim_ms", e.sim_ms);
      w.field("batch", e.batch);
      if (e.kind == EntryKind::kEvent) w.field("seq", e.seq);
      if (e.sw >= 0) w.field("sw", e.sw);
      if (e.cause != 0) {
        w.field("cause", cause_label(e.cause));
      }
      w.field("value", e.value);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

std::string FlightRecorder::to_json() const {
  JsonWriter w;
  write_json(w);
  return w.str();
}

std::string FlightRecorder::to_chrome_json(
    const MetricsSnapshot* metrics) const {
  JsonWriter w;
  w.begin_object();
  w.key("traceEvents").begin_array();
  for (const LaneSnapshot& l : snapshot()) {
    for (const Entry& e : l.entries) {
      const bool span = e.kind == EntryKind::kSpan;
      w.begin_object();
      w.field("name", e.name);
      w.field("cat", to_string(e.kind));
      w.field("ph", span ? "X" : "i");
      // Chrome timestamps are microseconds; spans are stamped at their end.
      w.field("ts", (span ? e.wall_ms - e.dur_ms : e.wall_ms) * 1e3);
      if (span) {
        w.field("dur", e.dur_ms * 1e3);
      } else {
        w.field("s", "t");  // thread-scoped instant
      }
      w.field("pid", 1);
      w.field("tid", static_cast<std::uint64_t>(l.lane));
      w.key("args").begin_object();
      if (e.sim_ms >= 0) w.field("sim_ms", e.sim_ms);
      w.field("batch", e.batch);
      if (e.cause != 0) w.field("cause", cause_label(e.cause));
      w.end_object();
      w.end_object();
    }
  }
  w.end_array();
  w.field("displayTimeUnit", "ms");
  if (metrics != nullptr) {
    w.key("metrics");
    metrics->write_json(w);
  }
  w.end_object();
  return w.str();
}

bool FlightRecorder::dump_to_file(const char* path) const {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return false;
  const std::string json = to_json();
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool ok = written == json.size() && std::fclose(f) == 0;
  if (written != json.size()) std::fclose(f);
  return ok;
}

void FlightRecorder::arm_abort_dump(std::string path) {
  SCOUT_CHECK(path.size() < kAbortPathCapacity,
              "abort-dump path too long: " << path.size());
  std::memcpy(g_abort_path, path.c_str(), path.size() + 1);
  g_abort_recorder = this;
  set_check_failure_hook(&abort_dump_hook);
}

void FlightRecorder::disarm_abort_dump() noexcept {
  set_check_failure_hook(nullptr);
  g_abort_recorder = nullptr;
  g_abort_path[0] = '\0';
}

}  // namespace scout::telemetry
