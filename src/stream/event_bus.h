// EventBus: the append-only event stream Controller and SwitchAgent
// publish to, and the monitor drains from.
//
// Contract:
//  * Single-threaded use. Network mutations are driven from one thread
//    (the scenario/driver thread); the runtime workers only *read*
//    already-drained batches (spans handed to them by the driver). The bus
//    therefore needs no locking — it is a sequence, not a queue. This is
//    no longer a comment-only promise: every member is
//    SCOUT_GUARDED_BY(serial_), a capability each method acquires, so
//    clang -Wthread-safety proves all access goes through the serial
//    phase, and debug builds bind the phase to the first calling thread
//    and abort if a second thread ever enters (common/mutex.h
//    SerialCapability). Release builds compile the guard to nothing.
//  * Monotone cursors. publish() assigns dense, strictly increasing
//    sequence numbers; events_since(c) returns the events with seq >= c in
//    order. The returned span views bus storage and is invalidated by the
//    next publish() or compact() — consumers drain, then process.
//  * Bounded retention. compact(c) drops events below cursor c (the
//    monitor, the bus's one reader, compacts what it has drained once its
//    workers have joined); sequence numbers keep counting from the base
//    offset, so cursors stay valid identities forever.
//  * ChangeLog layering. When bound to the controller's change log, every
//    event is stamped with the log's size at publish time, so two cursors
//    delimit exactly the policy actions recorded between them.
//  * Concurrent publish (opt-in). attach_ring() hangs an MpscRing off the
//    bus; a thread holding a ConcurrentPublishCapability has its publish()
//    calls routed (via a thread-local) to its ring shard instead of the
//    serial stream, so the instrumented components (Controller,
//    SwitchAgent) need no changes and the serial contract above stays
//    statically checked for everything else. ingest_ring() — a serial-phase
//    call — folds the shards back into the stream, assigning dense seq at
//    ingest and synthesizing kShadowResync events for switches the ring
//    evicted from (see mpsc_ring.h for the backpressure story).
#pragma once

#include <atomic>
#include <span>
#include <vector>

#include "src/common/check.h"
#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/stream/event.h"
#include "src/stream/mpsc_ring.h"

namespace scout {
class ChangeLog;
}  // namespace scout

namespace scout::stream {

class EventBus {
 public:
  using Cursor = std::uint64_t;

  // Stamp subsequent events with `log`'s current size (nullptr unbinds).
  void bind_change_log(const ChangeLog* log) noexcept {
    SerialGuard g{serial_};
    change_log_ = log;
  }

  // Append one event; fills seq, wall and change_log_mark. Returns the
  // assigned sequence number. On a thread holding a
  // ConcurrentPublishCapability for this bus, the event goes to that
  // thread's ring shard instead (seq assigned later, at ingest) and 0 is
  // returned — publishers never observe sequence numbers.
  Cursor publish(StreamEvent ev);

  // The next sequence number to be assigned (== one past the last event).
  [[nodiscard]] Cursor cursor() const noexcept {
    SerialGuard g{serial_};
    return cursor_unlocked();
  }

  // Events with seq in [c, cursor()), in sequence order. `c` below the
  // compaction base or ahead of the stream throws (consumer cursor
  // corruption must fail loudly). Valid until the next publish/compact.
  [[nodiscard]] std::span<const StreamEvent> events_since(Cursor c) const;

  // Drop retained events with seq < c (c is capped at cursor()).
  void compact(Cursor c);

  [[nodiscard]] std::size_t retained() const noexcept {
    SerialGuard g{serial_};
    return events_.size();
  }
  [[nodiscard]] Cursor base() const noexcept {
    SerialGuard g{serial_};
    return base_;
  }

  // Lifetime counters the monitor's metrics snapshot reads: totals survive
  // compaction, unlike retained()/base() which describe current storage.
  // `published` counts every event entering the serial stream (serial
  // publishes + ring ingests + synthesized resyncs); `ingested` and
  // `resyncs_synthesized` break out the ring-fed portions.
  struct Stats {
    std::uint64_t published = 0;
    std::uint64_t compactions = 0;
    std::uint64_t compacted_events = 0;
    std::uint64_t ingested = 0;
    std::uint64_t resyncs_synthesized = 0;
  };
  [[nodiscard]] Stats stats() const noexcept {
    SerialGuard g{serial_};
    return stats_;
  }

  // Unbind the debug thread affinity so another thread may take over as
  // the single driver (e.g. a bus built on the main thread, driven from a
  // monitor thread). The handoff itself must provide the happens-before.
  void rebind_serial_owner() noexcept { serial_.rebind(); }

  // -- Concurrent publish (MPSC ring) ----------------------------------------

  // Serial-phase: attach (nullptr: detach) the ring concurrent publishers
  // route through. The ring must outlive its attachment.
  void attach_ring(MpscRing* ring);
  [[nodiscard]] MpscRing* ring() const noexcept {
    return ring_.load(std::memory_order_acquire);
  }

  // RAII concurrent-publish registration: while alive, the constructing
  // thread's publish() calls on this bus append to ring shard `pub`
  // instead of the serial stream. One live capability per shard (the ring
  // aborts on double claims); drop it before the next serial phase touches
  // the shard. This is the statically-visible relaxation of the serial
  // contract: components keep calling the same publish_event() helpers,
  // only threads that explicitly hold the capability ever leave the
  // serial path.
  class ConcurrentPublishCapability {
   public:
    ConcurrentPublishCapability(EventBus& bus, std::size_t pub);
    ~ConcurrentPublishCapability();
    ConcurrentPublishCapability(const ConcurrentPublishCapability&) = delete;
    ConcurrentPublishCapability& operator=(const ConcurrentPublishCapability&) =
        delete;

   private:
    MpscRing* ring_;
    std::size_t pub_;
  };

  // Serial-phase: fold every ring shard into the stream — shards in index
  // order, each shard oldest-first — assigning dense seq at ingest while
  // preserving the publish-time time/wall/change_log_mark stamps, then
  // append one kShadowResync event per switch the ring evicted from.
  // Returns events ingested (synthesized resyncs included). No-op without
  // an attached ring.
  std::size_t ingest_ring();

 private:
  Cursor publish_serial(StreamEvent ev);

  // Thread-local publish routing, managed by ConcurrentPublishCapability.
  static void route_thread(const EventBus* bus, MpscRing* ring,
                           std::size_t pub) noexcept;

  [[nodiscard]] Cursor cursor_unlocked() const noexcept
      SCOUT_REQUIRES(serial_) {
    return base_ + events_.size();
  }

  // The serial-phase capability every member is guarded by: "one thread
  // publishes AND drains". Workers never call bus methods — they receive
  // drained spans from the driver.
  mutable SerialCapability serial_{"EventBus"};

  std::vector<StreamEvent> events_ SCOUT_GUARDED_BY(serial_);
  Cursor base_ SCOUT_GUARDED_BY(serial_) = 0;
  const ChangeLog* change_log_ SCOUT_GUARDED_BY(serial_) = nullptr;
  Stats stats_ SCOUT_GUARDED_BY(serial_);
  // Attached by the serial phase, read by publisher threads entering a
  // ConcurrentPublishCapability — hence atomic, not serial-guarded.
  std::atomic<MpscRing*> ring_{nullptr};
};

// Publisher-side conveniences shared by the instrumented components
// (Controller, SwitchAgent): they hold an optional EventBus* and publish
// only while one is attached.
inline void publish_event(EventBus* bus, StreamEvent ev) {
  if (bus != nullptr) (void)bus->publish(std::move(ev));
}

[[nodiscard]] inline StreamEvent make_switch_event(StreamEventType type,
                                                   SwitchId sw, SimTime now) {
  StreamEvent ev;
  ev.type = type;
  ev.sw = sw;
  ev.time = now;
  return ev;
}

}  // namespace scout::stream
