#include "src/stream/incident.h"

#include <algorithm>
#include <sstream>

#include "src/common/json_writer.h"

namespace scout::stream {
namespace {

std::string cause_label(CauseId id) {
  if (id.is_null()) return "null";
  return std::string{to_string(id.engine())} + "#" +
         std::to_string(id.ordinal());
}

std::string object_label(ObjectRef ref) {
  std::ostringstream os;
  os << ref;
  return os.str();
}

}  // namespace

IncidentBuilder::IncidentBuilder(const CauseLedger* ledger,
                                 telemetry::MetricsRegistry* registry)
    : IncidentBuilder(ledger, registry, Options{}) {}

IncidentBuilder::IncidentBuilder(const CauseLedger* ledger,
                                 telemetry::MetricsRegistry* registry,
                                 Options options)
    : ledger_(ledger), options_(options) {
  if (registry != nullptr) {
    opened_counter_ = registry->counter("incident.opened");
    closed_counter_ = registry->counter("incident.closed");
    unattributed_counter_ = registry->counter("incident.unattributed");
    window_dropped_counter_ = registry->counter("incident.window.dropped");
    open_gauge_ = registry->gauge("incident.open");
    precision_gauge_ = registry->gauge("incident.precision");
    recall_gauge_ = registry->gauge("incident.recall");
    detect_wall_gauge_ = registry->gauge("incident.detect_wall_ms");
    precision_gauge_.set(1.0);
    recall_gauge_.set(1.0);
  }
}

void IncidentBuilder::observe_events(std::span<const StreamEvent> events) {
  for (const StreamEvent& ev : events) {
    if (ev.cause.is_null()) continue;
    if (window_.size() >= options_.max_window_events) {
      // Keep the oldest entries: the first cause is the one incidents
      // must name; later repeats of an already-buffered cause are
      // redundant for attribution anyway.
      ++totals_.window_dropped;
      window_dropped_counter_.add(1);
      continue;
    }
    window_.push_back(
        EventSummary{ev.seq, ev.sw, ev.cause, ev.time, ev.wall});
  }
}

bool IncidentBuilder::is_violated(SwitchId sw) const noexcept {
  return std::binary_search(current_.violated.begin(),
                            current_.violated.end(), sw);
}

bool IncidentBuilder::observe_verdict(const FabricCheck& check,
                                      std::uint64_t batch, SimTime sim_now) {
  const bool failing = !check.inconsistent.empty();
  if (!failing) {
    if (open_) close_incident(batch);
    reset_window();
    return false;
  }
  if (open_) {
    // Extend: union the violated switches (both sides sorted).
    std::vector<SwitchId> merged;
    merged.reserve(current_.violated.size() + check.inconsistent.size());
    std::set_union(current_.violated.begin(), current_.violated.end(),
                   check.inconsistent.begin(), check.inconsistent.end(),
                   std::back_inserter(merged));
    current_.violated = std::move(merged);
    return false;
  }
  open_incident(check, batch, sim_now);
  return true;
}

void IncidentBuilder::open_incident(const FabricCheck& check,
                                    std::uint64_t batch, SimTime sim_now) {
  current_ = Incident{};
  current_.id = next_id_++;
  current_.open = true;
  current_.opened_batch = batch;
  current_.detected_at = sim_now;
  current_.violated = check.inconsistent;  // already sorted ascending
  open_ = true;
  // Detection latency: opening verdict vs the earliest windowed cause
  // event on a violated switch. Stays -1 when no such event exists (the
  // damage was silent, e.g. gray drops).
  for (const EventSummary& ev : window_) {
    if (!is_violated(ev.sw)) continue;
    current_.detect_sim_ms = sim_now - ev.time;
    current_.detect_wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - ev.wall)
            .count();
    break;
  }
  opened_counter_.add(1);
  open_gauge_.set(1.0);
  if (current_.detect_wall_ms >= 0) {
    detect_wall_gauge_.set(current_.detect_wall_ms);
  }
}

void IncidentBuilder::attach_suspects(const LocalizationResult& result) {
  if (!open_) return;
  current_.suspects = result.hypothesis;
  current_.suspects_unexplained = result.unexplained();
}

void IncidentBuilder::close_incident(std::uint64_t batch) {
  current_.open = false;
  current_.closed_batch = batch;

  // A: distinct causes among windowed events on violated switches, in
  // seq order (the window is seq-ordered — it is a subsequence of the
  // serial log).
  for (const EventSummary& ev : window_) {
    if (!is_violated(ev.sw)) continue;
    auto it = std::find_if(
        current_.causes.begin(), current_.causes.end(),
        [&](const IncidentCause& c) { return c.cause == ev.cause; });
    if (it == current_.causes.end()) {
      current_.causes.push_back(
          IncidentCause{ev.cause, ev.seq, ev.sw, ev.time, 1, false});
    } else {
      ++it->events;
    }
  }

  // T: distinct ledger causes in [mark, size) that touched a violated
  // switch.
  std::vector<CauseId> truth;
  if (ledger_ != nullptr) {
    const auto& entries = ledger_->entries();
    for (std::size_t i = ledger_mark_; i < entries.size(); ++i) {
      if (!is_violated(entries[i].sw)) continue;
      if (std::find(truth.begin(), truth.end(), entries[i].cause) ==
          truth.end()) {
        truth.push_back(entries[i].cause);
      }
    }
  }
  current_.truth_causes = truth.size();
  for (IncidentCause& c : current_.causes) {
    c.in_truth =
        std::find(truth.begin(), truth.end(), c.cause) != truth.end();
    if (c.in_truth) ++current_.matched_causes;
  }
  current_.first_cause_correct =
      current_.attributed() && current_.causes.front().in_truth;

  totals_.incidents += 1;
  totals_.attributed_causes += current_.causes.size();
  totals_.truth_causes += current_.truth_causes;
  totals_.matched_causes += current_.matched_causes;
  if (current_.first_cause_correct) ++totals_.first_cause_correct;
  if (!current_.attributed()) {
    ++totals_.unattributed_incidents;
    unattributed_counter_.add(1);
  }
  closed_counter_.add(1);
  open_gauge_.set(0.0);
  precision_gauge_.set(totals_.precision());
  recall_gauge_.set(totals_.recall());

  if (incidents_.size() < options_.max_incidents) {
    incidents_.push_back(std::move(current_));
  }
  open_ = false;
}

void IncidentBuilder::reset_window() {
  window_.clear();
  if (ledger_ != nullptr) ledger_mark_ = ledger_->size();
}

void IncidentBuilder::finalize(std::uint64_t batch, SimTime /*sim_now*/) {
  if (open_) {
    close_incident(batch);
    reset_window();
  }
}

void IncidentBuilder::write_json(JsonWriter& w) const {
  w.begin_object();
  w.field("schema", "scout-incidents-v1");
  w.key("incidents").begin_array();
  for (const Incident& inc : incidents_) {
    w.begin_object();
    w.field("id", static_cast<std::uint64_t>(inc.id));
    w.field("open", inc.open);
    w.field("opened_batch", inc.opened_batch);
    w.field("closed_batch", inc.closed_batch);
    w.field("detected_at_sim_ms",
            static_cast<std::int64_t>(inc.detected_at.millis()));
    w.field("detect_wall_ms", inc.detect_wall_ms);
    w.field("detect_sim_ms", inc.detect_sim_ms);
    w.key("violated").begin_array();
    for (const SwitchId sw : inc.violated) {
      w.value(static_cast<std::uint64_t>(sw.value()));
    }
    w.end_array();
    w.key("causes").begin_array();
    for (const IncidentCause& c : inc.causes) {
      w.begin_object();
      w.field("cause", cause_label(c.cause));
      w.field("engine", to_string(c.cause.engine()));
      w.field("ordinal", c.cause.ordinal());
      w.field("first_seq", c.first_seq);
      w.field("first_sw", static_cast<std::uint64_t>(c.first_sw.value()));
      w.field("first_sim_ms",
              static_cast<std::int64_t>(c.first_time.millis()));
      w.field("events", static_cast<std::uint64_t>(c.events));
      w.field("in_truth", c.in_truth);
      w.end_object();
    }
    w.end_array();
    w.key("suspects").begin_array();
    for (const ObjectRef ref : inc.suspects) w.value(object_label(ref));
    w.end_array();
    w.field("suspects_unexplained",
            static_cast<std::uint64_t>(inc.suspects_unexplained));
    w.field("truth_causes", static_cast<std::uint64_t>(inc.truth_causes));
    w.field("matched_causes",
            static_cast<std::uint64_t>(inc.matched_causes));
    w.field("first_cause_correct", inc.first_cause_correct);
    w.end_object();
  }
  w.end_array();
  w.key("totals")
      .begin_object()
      .field("incidents", static_cast<std::uint64_t>(totals_.incidents))
      .field("attributed_causes",
             static_cast<std::uint64_t>(totals_.attributed_causes))
      .field("truth_causes",
             static_cast<std::uint64_t>(totals_.truth_causes))
      .field("matched_causes",
             static_cast<std::uint64_t>(totals_.matched_causes))
      .field("first_cause_correct",
             static_cast<std::uint64_t>(totals_.first_cause_correct))
      .field("unattributed_incidents",
             static_cast<std::uint64_t>(totals_.unattributed_incidents))
      .field("window_dropped",
             static_cast<std::uint64_t>(totals_.window_dropped))
      .field("precision", totals_.precision())
      .field("recall", totals_.recall())
      .end_object();
  w.end_object();
}

std::string IncidentBuilder::to_json() const {
  JsonWriter w;
  write_json(w);
  return w.str();
}

}  // namespace scout::stream
