// Typed events for the continuous-verification stream (paper framing:
// Scout runs *continuously* against a live fabric; Algorithm 1 reasons
// about "recently applied actions" — the stream subsystem turns the batch
// checker into a monitor that consumes exactly those actions as they
// happen instead of re-collecting state from scratch).
//
// Every observable mutation of the deployment publishes one event:
//  * TCAM deltas (install / match-key removal / eviction / in-place bit
//    corruption) carry the exact hardware rule images, published by the
//    switch agent *after* rendering — a VRF-rewrite software bug is
//    therefore visible in the event, just as it is in the TCAM.
//  * control-plane transitions (agent crash/recover, channel down/up,
//    TCAM overflow, full switch resync).
//  * policy-layer actions (benign change records; compiled-policy pushes,
//    which bump Controller::compiled_epoch()). A push invalidates only
//    the resident logical BDDs of the switches whose compiled rules it
//    changed: the checker compares each switch's
//    CompiledPolicy::rules_epoch, not the global epoch.
//
// Events are the *sole* input of stream::IncrementalChecker: it mirrors
// each switch's TCAM from the rule events and never re-collects, so a
// mutation path that skipped publication would silently diverge — the
// differential tests (tests/test_stream_monitor.cpp) pin the event
// instrumentation against fresh ScoutSystem::check_all output.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "src/common/ids.h"
#include "src/common/sim_clock.h"
#include "src/policy/object_ref.h"
#include "src/stream/cause.h"
#include "src/tcam/tcam_rule.h"

namespace scout::stream {

enum class StreamEventType : std::uint8_t {
  // -- TCAM deltas (drive the incremental T-BDD) ----------------------------
  kRuleInstalled,   // `rule` added to the switch TCAM (post-rendering image)
  kRulesRemoved,    // every TCAM copy matching `rule` (same_match) removed
  kRuleEvicted,     // exactly one copy bytewise-equal to `rule` evicted
  kRuleModified,    // entry at `tcam_index` rewritten in place: rule->rule_after
  kSwitchResynced,  // TCAM wiped; reinstalls follow as kRuleInstalled events
                    // (the checker re-encodes T once after the batch)
  // -- control-plane transitions (informational to the checker) -------------
  kTcamOverflow,    // install rejected by hardware; TCAM unchanged
  kAgentCrashed,
  kAgentRecovered,
  kChannelDown,
  kChannelUp,
  // -- policy layer ----------------------------------------------------------
  kPolicyPushed,    // compiled policy regenerated; `epoch` = new compiled_epoch
                    // (informational: the checker reads rule epochs)
  kPolicyChanged,   // record-only change-log entry for `object` (benign churn)
  // -- backpressure degradation ----------------------------------------------
  // Synthesized by EventBus::ingest_ring when the MPSC ring evicted events
  // for `sw` (full shard under MpscRing::FullPolicy::kEvictToResync): the
  // switch's event stream has a gap, so the incremental checker re-collects
  // its TCAM from ground truth — the one post-prime exception to "events
  // are the sole input", taken only at publisher quiescence.
  kShadowResync,
};

[[nodiscard]] std::string_view to_string(StreamEventType t) noexcept;

struct StreamEvent {
  // Monotone sequence number, assigned by the bus at publish. The cursor
  // contract: seq values are dense and strictly increasing, so a consumer
  // holding cursor c has seen exactly the events with seq < c.
  std::uint64_t seq = 0;
  SimTime time{};  // simulation clock at publish
  // Wall-clock anchor for event-to-detection latency measurements. Never
  // feeds verdicts (they must be bit-identical across runs) — diagnostics
  // only.
  std::chrono::steady_clock::time_point wall{};
  StreamEventType type = StreamEventType::kRuleInstalled;
  SwitchId sw{};           // invalid for fabric-wide events (policy layer)
  TcamRule rule{};         // install/remove/evict image; modify: before image
  TcamRule rule_after{};   // modify: after image
  std::size_t tcam_index = 0;  // modify: table position rewritten in place
  std::size_t count = 0;       // kRulesRemoved: copies the match took out
  std::uint64_t epoch = 0;     // kPolicyPushed: new compiled epoch
  ObjectRef object{};          // kPolicyChanged: the recorded object
  // Controller change-log size when the event was published: the cursor
  // layering over ChangeLog. A consumer can slice change_log.records() at
  // two events' marks to get exactly the policy actions between them —
  // what SCOUT stage 2 calls "recently applied actions".
  std::size_t change_log_mark = 0;
  // Causal provenance: the fault-engine episode that produced this event,
  // null for benign churn. Filled by EventBus::publish from the ambient
  // CauseScope when the publisher left it null; never read by verdicts or
  // digests — incident attribution only.
  CauseId cause{};
};

}  // namespace scout::stream
