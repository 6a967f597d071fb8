// Bounded lock-free MPSC event ring: the concurrent-publish transport
// between SwitchAgent/Controller publisher threads and the (single)
// monitor drainer.
//
// Layout: one SPSC shard per publisher. Each shard is a power-of-two slot
// array with a producer-owned tail and a consumer-owned head, both
// monotone 64-bit cursors on separate cache lines (the classic Lamport
// ring, release/acquire pairs only — no CAS on the hot path). The whole
// structure is MPSC because each publisher owns exactly one shard and a
// single drainer pops all of them; per-publisher FIFO order is therefore
// structural, and cross-publisher order is decided once, at ingest, by the
// serial phase (EventBus::ingest_ring walks shards in index order).
//
// Cursor contract: published_cursor(p) and drained_cursor(p) never
// decrease; their difference is the shard's live occupancy. These are the
// "sharded cursors" that replace the bus's single serial cursor on the
// publish side — the bus cursor only advances at ingest, when the serial
// phase assigns dense sequence numbers.
//
// Backpressure: capacity is a hard bound, so a misbehaving publisher can
// not OOM the monitor. On a full shard the policy decides:
//  * kEvictToResync (default) — the event is dropped and its switch is
//    marked in the evicted-switch set; at the next ingest the bus
//    synthesizes a kShadowResync event, degrading that switch from
//    exact delta-tracking to a ground-truth re-collect. Verdicts stay
//    exact — only the incremental path's economy is lost.
//  * kBackpressure — the publisher spin-yields until the drainer frees a
//    slot. close() (or destruction) unblocks spinners by flipping every
//    blocked or subsequent publish to the eviction path, so shutdown can
//    never deadlock behind a stopped drainer.
//
// Thread roles, enforced in debug builds: at most one live publisher
// registration per shard at a time (claim/release, used by
// EventBus::ConcurrentPublishCapability) and one drainer. Destruction
// close()es the ring and waits for every claimed shard to be released, so
// tearing the ring down under in-flight publishers is safe by
// construction.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/common/check.h"
#include "src/stream/event.h"

namespace scout::stream {

// Ring slots are copied by value across threads; the event must stay a
// trivially copyable POD for that to be a plain (data-race-free) store.
static_assert(std::is_trivially_copyable_v<StreamEvent>,
              "StreamEvent must stay trivially copyable: MpscRing slots are "
              "copied across threads");

class MpscRing {
 public:
  enum class FullPolicy : std::uint8_t {
    kEvictToResync,  // drop + degrade the switch to a shadow resync
    kBackpressure,   // spin until the drainer frees a slot (close() escapes)
  };

  struct Options {
    std::size_t shard_capacity = 4096;  // rounded up to a power of two
    FullPolicy on_full = FullPolicy::kEvictToResync;
  };

  // Lifetime totals, summed over shards. `full_stalls` counts full-shard
  // encounters (one per publish call that found no space, however long it
  // then spun) — the publish-contention signal telemetry exposes.
  struct Stats {
    std::uint64_t published = 0;
    std::uint64_t drained = 0;
    std::uint64_t evictions = 0;
    std::uint64_t full_stalls = 0;
  };

  // `switch_id_bound` sizes the evicted-switch set: one slot per SwitchId
  // value below the bound. Evicted events whose switch id is invalid or
  // out of bounds (fabric-wide events should never ride the ring) set a
  // sticky fabric-wide flag instead.
  MpscRing(std::size_t publishers, std::size_t switch_id_bound);
  MpscRing(std::size_t publishers, std::size_t switch_id_bound,
           Options options);
  ~MpscRing();
  MpscRing(const MpscRing&) = delete;
  MpscRing& operator=(const MpscRing&) = delete;

  [[nodiscard]] std::size_t publishers() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] std::size_t shard_capacity() const noexcept {
    return mask_ + 1;
  }

  // -- Producer side (thread owning shard `pub` only) ------------------------

  // Exclusivity registration: at most one live claim per shard. claim()
  // aborts on a double registration; release() ends it. EventBus's
  // ConcurrentPublishCapability is the RAII wrapper.
  void claim(std::size_t pub);
  void release(std::size_t pub) noexcept;

  // Append one event to shard `pub`. Returns false when the event was
  // degraded to an eviction (full shard under kEvictToResync, or the ring
  // is closed).
  bool publish(std::size_t pub, const StreamEvent& ev);

  // Unblock kBackpressure spinners and flip every later publish to the
  // eviction path. Sticky; used for shutdown and by the destructor.
  void close() noexcept { closed_.store(true, std::memory_order_release); }
  [[nodiscard]] bool closed() const noexcept {
    return closed_.load(std::memory_order_acquire);
  }

  // -- Consumer side (single drainer) ----------------------------------------

  // Pop everything currently published in shard `pub`, oldest first, into
  // sink(const StreamEvent&). The head cursor is released per element, so
  // a blocked publisher regains space mid-drain. Returns events delivered.
  template <typename Sink>
  std::size_t drain_shard(std::size_t pub, Sink&& sink) {
    Shard& s = shard(pub);
    const std::uint64_t tail = s.tail.load(std::memory_order_acquire);
    std::uint64_t head = s.head.load(std::memory_order_relaxed);
    const std::size_t n = static_cast<std::size_t>(tail - head);
    for (; head != tail; ++head) {
      sink(s.slots[head & mask_]);
      // Publish the freed slot only after the sink is done reading it.
      s.head.store(head + 1, std::memory_order_release);
    }
    s.drained.fetch_add(n, std::memory_order_relaxed);
    return n;
  }

  // Move the evicted-switch set into `out` (ascending id order, cleared as
  // read). Returns true when a fabric-wide (invalid / out-of-bounds id)
  // event was evicted since the last take.
  bool take_evictions(std::vector<SwitchId>& out);

  // Change-log mark publishers stamp into ring events. The bus restamps it
  // from the serial phase, in EventBus::attach_ring() and on every serial
  // publish (log writes are serial-phase by contract, so the value is
  // stable while publishers run).
  void set_change_log_mark(std::size_t mark) noexcept {
    change_log_mark_.store(mark, std::memory_order_release);
  }
  [[nodiscard]] std::size_t change_log_mark() const noexcept {
    return change_log_mark_.load(std::memory_order_acquire);
  }

  // -- Cursors and gauges (racy reads are monotone snapshots) ----------------

  [[nodiscard]] std::uint64_t published_cursor(std::size_t pub) const {
    return shard(pub).tail.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t drained_cursor(std::size_t pub) const {
    return shard(pub).head.load(std::memory_order_acquire);
  }
  // Live events across all shards (snapshot; exact at quiescence).
  [[nodiscard]] std::size_t occupancy() const;
  // Peak single-shard occupancy ever observed by a publisher.
  [[nodiscard]] std::uint64_t high_water() const;
  [[nodiscard]] Stats stats() const;

 private:
  // Padded so one publisher's cursor traffic never false-shares with its
  // neighbours or with the drainer's head writes.
  struct alignas(64) Shard {
    std::vector<StreamEvent> slots;
    alignas(64) std::atomic<std::uint64_t> tail{0};  // producer-owned
    alignas(64) std::atomic<std::uint64_t> head{0};  // consumer-owned
    alignas(64) std::atomic<std::uint64_t> evictions{0};
    std::atomic<std::uint64_t> full_stalls{0};
    std::atomic<std::uint64_t> high_water{0};
    std::atomic<bool> claimed{false};
    std::atomic<std::uint64_t> drained{0};  // lifetime total (relaxed)
  };

  [[nodiscard]] Shard& shard(std::size_t pub) {
    SCOUT_CHECK(pub < shards_.size(),
                "MpscRing: publisher " << pub << " of " << shards_.size());
    return *shards_[pub];
  }
  [[nodiscard]] const Shard& shard(std::size_t pub) const {
    return const_cast<MpscRing*>(this)->shard(pub);
  }

  void mark_eviction(Shard& s, SwitchId sw);

  std::uint64_t mask_ = 0;
  Options options_;
  std::atomic<std::size_t> change_log_mark_{0};
  std::atomic<bool> closed_{false};
  std::atomic<std::size_t> live_publishers_{0};
  std::atomic<bool> fabric_wide_eviction_{false};
  std::vector<std::unique_ptr<Shard>> shards_;
  // Indexed by SwitchId value; exchange-cleared by take_evictions().
  std::vector<std::atomic<std::uint8_t>> evicted_;
};

}  // namespace scout::stream
