// Flight recorder: a bounded, lock-free ring of the monitor's most recent
// moments — spans, instants, event summaries, verdicts — kept cheap enough
// to run always-on. It is the monitor's only span store: the same rings
// dump as JSON when it matters (from the SCOUT_CHECK abort path via
// set_check_failure_hook, on a clean→failing verdict transition, or on
// demand with scoutctl --flight-recorder) and export as a Chrome trace
// (scoutctl --telemetry). Memory is lanes × capacity entries however long
// the run.
//
// Lanes: lane 0 is the monitor's driver thread; lane s+1 belongs to
// incremental-checker shard s (its shard spans and rebuild markers). A
// monitor over W executor workers needs W+1 lanes, and MonitorLoop checks
// that at construction. A write to an out-of-range lane aborts in every
// build: aliasing another lane would break its single-writer contract.
//
// Design constraints, in order:
//  * Recording must never allocate, lock, or branch on I/O: each lane is a
//    fixed preallocated ring with a single writer; record() is a struct
//    store plus a release store of the head. Lanes are cache-line padded
//    so a worker lane never false-shares with the driver lane.
//  * Entries are trivially copyable PODs with inline names — the recorder
//    holds no pointers into the stream subsystem, so it can be read from
//    the abort hook regardless of what state the crash left behind.
//  * Dumping is best-effort by definition: a reader snapshots each lane's
//    head (acquire) and copies the last `capacity` entries. A lane whose
//    writer is mid-store at abort time may contribute one torn entry; the
//    other lanes and all older entries are intact.
//
// The `cause` field carries stream::CauseId::raw() values (0 = none); both
// exports decode them to "engine#ordinal" so a post-mortem reads the same
// provenance labels as the incident log.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

namespace scout {
class JsonWriter;
}  // namespace scout

namespace scout::telemetry {

struct MetricsSnapshot;

class FlightRecorder {
 public:
  enum class EntryKind : std::uint8_t {
    kInstant = 0,  // point marker (rebuild reason, snapshot, incident)
    kSpan = 1,     // timed region; wall_ms is its end, dur_ms its length
    kEvent = 2,    // stream-event summary (seq/sw/cause meaningful)
    kVerdict = 3,  // per-batch verdict summary (value = inconsistent count)
  };

  // Includes the terminator; the longest monitor name,
  // "full_rebuild.threshold", fits.
  static constexpr std::size_t kNameCapacity = 24;

  struct Entry {
    EntryKind kind = EntryKind::kInstant;
    char name[kNameCapacity] = {};
    double wall_ms = 0;          // stamped by record(): ms since construction
    double dur_ms = 0;           // kSpan only
    std::int64_t sim_ms = -1;    // simulation clock, -1 = not stamped
    std::uint64_t batch = 0;     // monitor batch ordinal
    std::uint64_t seq = 0;       // kEvent: bus sequence number
    std::int64_t sw = -1;        // switch id, -1 = fabric-wide / none
    std::uint64_t cause = 0;     // stream::CauseId::raw(), 0 = none
    double value = 0;            // kind-specific payload
  };
  static_assert(std::is_trivially_copyable_v<Entry>);

  struct Options {
    std::size_t lanes = 1;
    std::size_t capacity_per_lane = 256;  // rounded up to a power of two
  };

  explicit FlightRecorder(Options options);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Copies `name` (truncating) into the entry; the only mutator callers
  // need besides assigning POD fields.
  static void set_name(Entry& e, const char* name) noexcept;

  // Single writer per lane. Stamps wall_ms and publishes the entry with a
  // release store; never allocates or blocks.
  void record(std::size_t lane, Entry e) noexcept;

  // Zero-duration marker (rebuild reason, snapshot tick, incident open).
  void instant(std::size_t lane, const char* name, std::uint64_t batch,
               std::int64_t sim_ms) noexcept;

  // RAII span: opens at construction and records one kSpan entry into
  // `lane` when it goes out of scope. A Scope over a null recorder does
  // nothing, so instrumented code holds a `FlightRecorder*` and never
  // branches on it.
  class Scope {
   public:
    Scope(FlightRecorder* recorder, std::size_t lane, const char* name,
          std::uint64_t batch, std::int64_t sim_ms) noexcept;
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    FlightRecorder* recorder_;
    std::size_t lane_;
    Entry entry_;  // wall_ms holds the span's start until it closes
  };

  [[nodiscard]] std::size_t lanes() const noexcept { return lane_count_; }
  [[nodiscard]] std::size_t capacity_per_lane() const noexcept {
    return capacity_;
  }
  // Total entries ever recorded (sum of lane heads); entries beyond
  // capacity_per_lane have been overwritten.
  [[nodiscard]] std::uint64_t total_recorded() const noexcept;

  struct LaneSnapshot {
    std::size_t lane = 0;
    std::uint64_t recorded = 0;          // lifetime count for this lane
    std::vector<Entry> entries;          // oldest → newest, ≤ capacity
  };
  // Best-effort copy of every lane's surviving entries (see header note on
  // torn entries under concurrent writers).
  [[nodiscard]] std::vector<LaneSnapshot> snapshot() const;

  void write_json(JsonWriter& w) const;
  [[nodiscard]] std::string to_json() const;
  // Writes to_json() to `path` via stdio; returns false on I/O failure.
  bool dump_to_file(const char* path) const;

  // Chrome trace-event JSON of the surviving entries (chrome://tracing,
  // Perfetto): spans become complete events ("ph":"X", ts = wall end −
  // dur), every other kind an instant ("ph":"i"); tid is the lane, cat
  // the entry kind, and args carry the sim time, batch and decoded cause.
  // When `metrics` is non-null the snapshot rides along under a top-level
  // "metrics" key, which the viewers ignore.
  [[nodiscard]] std::string to_chrome_json(
      const MetricsSnapshot* metrics = nullptr) const;

  // Arms the process-wide SCOUT_CHECK failure hook to dump this recorder
  // to `path` right before abort(). One recorder may be armed at a time;
  // arming replaces the previous one. The destructor disarms itself.
  void arm_abort_dump(std::string path);
  static void disarm_abort_dump() noexcept;

 private:
  struct alignas(64) Lane {
    std::atomic<std::uint64_t> head{0};
    Entry* entries = nullptr;  // points into storage_, capacity_ slots
  };

  // Milliseconds since construction, the wall_ms clock.
  [[nodiscard]] double now_ms() const noexcept;
  // The ring store behind record(), for an entry whose wall_ms is set.
  void publish(std::size_t lane, const Entry& e) noexcept;

  std::size_t lane_count_;
  std::size_t capacity_;  // power of two
  std::vector<Entry> storage_;
  std::unique_ptr<Lane[]> lanes_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace scout::telemetry
