// Incident provenance: correlates failing verdicts with the cause stamps
// on the events that preceded them, producing one Incident record per
// contiguous run of failing verdicts — when it opened, how long detection
// took, which switches it violated, the causal chain of fault-engine
// episodes behind it, and the localizer's suspect objects at detection.
//
// Window model. The builder buffers a summary of every *cause-bearing*
// event the monitor drains (benign churn is null-cause and skipped). A
// clean verdict resets the window: the buffer clears and the ground-truth
// ledger position is marked. A failing verdict after a clean one opens an
// incident; consecutive failing verdicts extend it (their violated
// switches union in); the next clean verdict closes it. Because the
// drivers pump (mint + publish + ledger-record) strictly before each
// drain, the event window and the ledger window [mark, size) delimit the
// same slice of fabric history — so attribution and truth are compared
// over identical intervals.
//
// Scoring. At close, A = the distinct causes among windowed events on
// violated switches (seq order; A[0] is the *first cause*), and T = the
// distinct causes among ledger entries in the window that touched a
// violated switch. Every engine records truth exactly when it mutates
// state and stamps the events of that same mutation, so A ⊆ T by
// construction — precision 1.0 is the designed invariant
// (bench/incident_accuracy gates it); recall < 1 happens only when a
// mutation's events never reached the serial log (gray drops, ring
// evictions) or fell out of a truncated window.
//
// The builder is observe-only: it never touches the checker or the bus,
// and verdict digests are computed before it runs — attaching it cannot
// perturb a digest (tests pin bit-identity with incidents on vs off).
//
// Metrics. The builder keeps its counts in totals() and holds no registry
// handles; MonitorLoop::snapshot_metrics() reads totals(), incident_open()
// and last_detect_wall_ms() at the snapshot instant into the incident.*
// series.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/localization/localizer.h"
#include "src/scout/scout_system.h"
#include "src/stream/cause.h"
#include "src/stream/event.h"

namespace scout {
class JsonWriter;
}  // namespace scout

namespace scout::stream {

// One distinct cause observed inside an incident's window.
struct IncidentCause {
  CauseId cause{};
  std::uint64_t first_seq = 0;  // earliest windowed event carrying it
  SwitchId first_sw{};
  SimTime first_time{};
  std::size_t events = 0;  // windowed events carrying it (violated switches)
  bool in_truth = false;   // cause appears in the ledger window
};

struct Incident {
  std::size_t id = 0;
  bool open = true;
  std::uint64_t opened_batch = 0;
  std::uint64_t closed_batch = 0;
  SimTime detected_at{};  // sim clock at the opening verdict
  // First-cause publish → opening verdict. Negative when the incident
  // had no attributable cause at open (e.g. pure gray-drop damage).
  double detect_wall_ms = -1;
  std::int64_t detect_sim_ms = -1;
  std::vector<SwitchId> violated;     // sorted union over the lifetime
  std::vector<IncidentCause> causes;  // A, seq order; [0] = first cause
  std::vector<ObjectRef> suspects;    // localizer hypothesis at open
  std::size_t suspects_unexplained = 0;
  std::size_t truth_causes = 0;    // |T|
  std::size_t matched_causes = 0;  // |A ∩ T|
  bool first_cause_correct = false;

  [[nodiscard]] bool attributed() const noexcept { return !causes.empty(); }
};

class IncidentBuilder {
 public:
  struct Options {
    // Cause-bearing event summaries buffered per window. On overflow the
    // oldest entries are kept (the first cause is the one that matters)
    // and the drop is counted in Totals::window_dropped.
    std::size_t max_window_events = 16384;
    // Retained incident records; older ones are still counted in totals.
    std::size_t max_incidents = 4096;
  };

  explicit IncidentBuilder(const CauseLedger* ledger);
  IncidentBuilder(const CauseLedger* ledger, Options options);

  // Driver-thread only, once per drain, before observe_verdict: buffer
  // the batch's cause-bearing events.
  void observe_events(std::span<const StreamEvent> events);

  // Driver-thread only, once per drain, after the verdict is composed.
  // Returns true when this verdict opened a new incident — callers run
  // localization then and hand the result to attach_suspects().
  bool observe_verdict(const FabricCheck& check, std::uint64_t batch,
                       SimTime sim_now);

  // Attach the localizer's hypothesis to the just-opened incident.
  void attach_suspects(const LocalizationResult& result);

  // Close any still-open incident (end of run).
  void finalize(std::uint64_t batch, SimTime sim_now);

  struct Totals {
    std::size_t incidents = 0;
    std::size_t attributed_causes = 0;  // Σ|A|
    std::size_t truth_causes = 0;       // Σ|T|
    std::size_t matched_causes = 0;     // Σ|A ∩ T|
    std::size_t first_cause_correct = 0;
    std::size_t unattributed_incidents = 0;
    std::size_t window_dropped = 0;

    [[nodiscard]] double precision() const noexcept {
      return attributed_causes == 0
                 ? 1.0
                 : static_cast<double>(matched_causes) /
                       static_cast<double>(attributed_causes);
    }
    [[nodiscard]] double recall() const noexcept {
      return truth_causes == 0 ? 1.0
                               : static_cast<double>(matched_causes) /
                                     static_cast<double>(truth_causes);
    }
  };

  [[nodiscard]] const std::vector<Incident>& incidents() const noexcept {
    return incidents_;
  }
  [[nodiscard]] const Totals& totals() const noexcept { return totals_; }
  [[nodiscard]] bool incident_open() const noexcept { return open_; }
  // detect_wall_ms of the latest incident that opened with one (0 before
  // any did).
  [[nodiscard]] double last_detect_wall_ms() const noexcept {
    return last_detect_wall_ms_;
  }

  void write_json(JsonWriter& w) const;
  [[nodiscard]] std::string to_json() const;

 private:
  struct EventSummary {
    std::uint64_t seq = 0;
    SwitchId sw{};
    CauseId cause{};
    SimTime time{};
    std::chrono::steady_clock::time_point wall{};
  };

  void open_incident(const FabricCheck& check, std::uint64_t batch,
                     SimTime sim_now);
  void close_incident(std::uint64_t batch);
  void reset_window();
  [[nodiscard]] bool is_violated(SwitchId sw) const noexcept;

  const CauseLedger* ledger_;
  Options options_;
  std::vector<EventSummary> window_;  // since the last clean verdict
  std::size_t ledger_mark_ = 0;       // ledger size at the last clean verdict
  std::vector<Incident> incidents_;   // closed records, ≤ max_incidents
  Incident current_;                  // the open incident, valid iff open_
  std::size_t next_id_ = 0;
  bool open_ = false;
  Totals totals_;
  double last_detect_wall_ms_ = 0;
};

}  // namespace scout::stream
