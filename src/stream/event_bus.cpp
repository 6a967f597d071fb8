#include "src/stream/event_bus.h"

#include <algorithm>
#include <stdexcept>

#include "src/policy/change_log.h"

namespace scout::stream {
namespace {

// Per-thread publish route. A thread holding a ConcurrentPublishCapability
// for bus B has publish() on B appending to its ring shard; every other
// (bus, thread) combination stays on the serial path.
struct PublishRoute {
  const EventBus* bus = nullptr;
  MpscRing* ring = nullptr;
  std::size_t pub = 0;
};
thread_local PublishRoute t_route;

}  // namespace

std::string_view to_string(StreamEventType t) noexcept {
  switch (t) {
    case StreamEventType::kRuleInstalled:
      return "rule-installed";
    case StreamEventType::kRulesRemoved:
      return "rules-removed";
    case StreamEventType::kRuleEvicted:
      return "rule-evicted";
    case StreamEventType::kRuleModified:
      return "rule-modified";
    case StreamEventType::kSwitchResynced:
      return "switch-resynced";
    case StreamEventType::kTcamOverflow:
      return "tcam-overflow";
    case StreamEventType::kAgentCrashed:
      return "agent-crashed";
    case StreamEventType::kAgentRecovered:
      return "agent-recovered";
    case StreamEventType::kChannelDown:
      return "channel-down";
    case StreamEventType::kChannelUp:
      return "channel-up";
    case StreamEventType::kPolicyPushed:
      return "policy-pushed";
    case StreamEventType::kPolicyChanged:
      return "policy-changed";
    case StreamEventType::kShadowResync:
      return "shadow-resync";
  }
  return "?";
}

EventBus::Cursor EventBus::publish(StreamEvent ev) {
  // Causal provenance: adopt the ambient fault-engine cause unless the
  // publisher stamped one explicitly (explicit stamps win — gray agents
  // interleave benign and misrendered installs in one call). Covers the
  // serial and ring paths alike; ingest_ring copies the field verbatim.
  if (ev.cause.is_null()) ev.cause = current_cause();
  if (t_route.bus == this) {
    // Concurrent path: stamp what a publisher can stamp (wall now, the
    // phase's change-log mark) and hand the event to the ring; seq is
    // assigned at ingest, when the serial phase decides stream order.
    ev.wall = std::chrono::steady_clock::now();
    ev.change_log_mark = t_route.ring->change_log_mark();
    (void)t_route.ring->publish(t_route.pub, ev);
    return 0;
  }
  return publish_serial(std::move(ev));
}

EventBus::Cursor EventBus::publish_serial(StreamEvent ev) {
  SerialGuard g{serial_};
  const Cursor seq = cursor_unlocked();
  ev.seq = seq;
  ev.wall = std::chrono::steady_clock::now();
  ev.change_log_mark = change_log_ != nullptr ? change_log_->size() : 0;
  // Serial publishes are the points where the change log can have moved;
  // keep the mark ring publishers stamp in step so a following concurrent
  // phase needs no extra refresh.
  if (MpscRing* ring = ring_.load(std::memory_order_relaxed)) {
    ring->set_change_log_mark(ev.change_log_mark);
  }
  events_.push_back(std::move(ev));
  ++stats_.published;
  return seq;
}

void EventBus::attach_ring(MpscRing* ring) {
  SerialGuard g{serial_};
  ring_.store(ring, std::memory_order_release);
  if (ring != nullptr && change_log_ != nullptr) {
    ring->set_change_log_mark(change_log_->size());
  }
}

void EventBus::route_thread(const EventBus* bus, MpscRing* ring,
                            std::size_t pub) noexcept {
  t_route = PublishRoute{bus, ring, pub};
}

EventBus::ConcurrentPublishCapability::ConcurrentPublishCapability(
    EventBus& bus, std::size_t pub)
    : ring_(bus.ring()), pub_(pub) {
  SCOUT_CHECK(ring_ != nullptr,
              "ConcurrentPublishCapability: no ring attached to the bus");
  SCOUT_CHECK(t_route.bus == nullptr,
              "ConcurrentPublishCapability: thread already routed");
  ring_->claim(pub_);
  route_thread(&bus, ring_, pub_);
}

EventBus::ConcurrentPublishCapability::~ConcurrentPublishCapability() {
  route_thread(nullptr, nullptr, 0);
  ring_->release(pub_);
}

std::size_t EventBus::ingest_ring() {
  SerialGuard g{serial_};
  MpscRing* ring = ring_.load(std::memory_order_relaxed);
  if (ring == nullptr) return 0;
  std::size_t n = 0;
  SimTime latest{};
  for (std::size_t p = 0; p < ring->publishers(); ++p) {
    n += ring->drain_shard(p, [&](const StreamEvent& ev) {
      StreamEvent copy = ev;
      copy.seq = cursor_unlocked();
      latest = std::max(latest, copy.time);
      events_.push_back(copy);
      ++stats_.published;
      ++stats_.ingested;
    });
  }
  // Evicted switches degrade to a shadow resync, appended after the
  // surviving events: the checker supersedes a switch's staged deltas with
  // its marker, so a partial (post-gap) suffix is never applied to a
  // pre-gap shadow. Fabric-wide evictions are counted in the ring stats
  // only — policy-layer events are driver-serial in every driver, and the
  // checker reads the compiled epoch from ground truth at drain anyway.
  std::vector<SwitchId> evicted;
  (void)ring->take_evictions(evicted);
  for (const SwitchId sw : evicted) {
    StreamEvent ev;
    ev.type = StreamEventType::kShadowResync;
    ev.sw = sw;
    ev.time = latest;
    ev.wall = std::chrono::steady_clock::now();
    ev.change_log_mark = change_log_ != nullptr ? change_log_->size() : 0;
    ev.seq = cursor_unlocked();
    events_.push_back(ev);
    ++stats_.published;
    ++stats_.resyncs_synthesized;
    ++n;
  }
  return n;
}

std::span<const StreamEvent> EventBus::events_since(Cursor c) const {
  SerialGuard g{serial_};
  if (c < base_) {
    throw std::out_of_range{
        "EventBus::events_since: cursor below the compaction base"};
  }
  if (c > cursor_unlocked()) {
    // A cursor ahead of the stream is consumer corruption (wrong bus,
    // cursor arithmetic bug); returning empty would silently verify
    // nothing forever.
    throw std::out_of_range{
        "EventBus::events_since: cursor ahead of the stream"};
  }
  return std::span<const StreamEvent>{events_}.subspan(c - base_);
}

void EventBus::compact(Cursor c) {
  SerialGuard g{serial_};
  if (c <= base_) return;
  const Cursor limit = cursor_unlocked();
  if (c > limit) c = limit;
  events_.erase(events_.begin(),
                events_.begin() + static_cast<std::ptrdiff_t>(c - base_));
  ++stats_.compactions;
  stats_.compacted_events += c - base_;
  base_ = c;
}

}  // namespace scout::stream
