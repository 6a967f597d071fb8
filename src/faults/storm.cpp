#include "src/faults/storm.h"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "src/common/rng.h"
#include "src/controller/controller.h"
#include "src/faults/repair_journal.h"
#include "src/scout/sim_network.h"

namespace scout {
namespace {

constexpr std::array<std::string_view, 3> kStormNames = {
    "rack-power", "rolling-upgrade", "pod-brownout"};

}  // namespace

std::span<const std::string_view> storm_profile_names() { return kStormNames; }

StormProfile storm_profile(std::string_view name) {
  StormProfile p;
  p.name = std::string(name);
  if (name == "rack-power") {
    p.kind = StormProfile::Kind::kRackPower;
  } else if (name == "rolling-upgrade") {
    p.kind = StormProfile::Kind::kRollingUpgrade;
  } else if (name == "pod-brownout") {
    p.kind = StormProfile::Kind::kPodBrownout;
  } else {
    throw std::invalid_argument{"storm_profile: unknown profile '" +
                                std::string(name) + "'"};
  }
  return p;
}

StormSchedule::StormSchedule(SimNetwork& net, StormProfile profile,
                             std::uint64_t seed)
    : net_(&net), profile_(std::move(profile)), seed_(seed) {}

void StormSchedule::run_episode(RepairJournal* journal) {
  if (!pending_heal_.empty()) {
    // Split mode left the fabric damaged; this cadence tick heals it
    // (under the damaging episode's cause) instead of firing new damage.
    stream::CauseScope scope{episode_cause_};
    heal(journal);
    return;
  }
  const std::uint64_t episode_seed = derive_seed(seed_, episode_++);
  // Episode ordinal doubles as the cause ordinal: one CauseId covers the
  // whole blast (damage and heal), which is exactly the "one root cause,
  // many symptoms" shape incident attribution has to collapse.
  episode_cause_ =
      stream::CauseId::make(stream::CauseEngine::kStorm, episode_);
  stream::CauseScope scope{episode_cause_};
  switch (profile_.kind) {
    case StormProfile::Kind::kRackPower:
      rack_power(episode_seed, journal);
      break;
    case StormProfile::Kind::kRollingUpgrade:
      rolling_upgrade(episode_seed, journal);
      break;
    case StormProfile::Kind::kPodBrownout:
      pod_brownout(episode_seed, journal);
      break;
  }
  ++stats_.episodes;
}

void StormSchedule::record_truth(SwitchId sw) {
  if (ledger_ != nullptr) {
    ledger_->record(episode_cause_, sw, net_->clock().now());
  }
}

void StormSchedule::heal(RepairJournal* journal) {
  (void)journal;
  const auto agents = net_->agents();
  Controller& controller = net_->controller();
  for (const std::size_t i : pending_heal_) {
    SwitchAgent& agent = *agents[i];
    if (profile_.kind == StormProfile::Kind::kRackPower) {
      agent.recover(controller.now());
    } else {
      controller.reconnect_switch(agent.id());
    }
    controller.resync_switch(agent.id());
    ++stats_.resyncs;
  }
  pending_heal_.clear();
}

void StormSchedule::rack_power(std::uint64_t episode_seed,
                               RepairJournal* journal) {
  const auto agents = net_->agents();
  if (agents.empty()) return;
  Rng rng{episode_seed};
  const std::size_t rack_size = std::max<std::size_t>(1, profile_.rack_size);
  const std::size_t n_racks = (agents.size() + rack_size - 1) / rack_size;
  const std::size_t rack = rng.below(n_racks);
  const std::size_t lo = rack * rack_size;
  const std::size_t hi = std::min(agents.size(), lo + rack_size);

  Controller& controller = net_->controller();
  // Power drops: every agent in the rack crashes at its next instruction.
  // The resync's first push trips the crash (one AGENT_CRASH record + a
  // stream event per member), the TCAM wipe sticks, and the remaining
  // replays bounce off the dead agent — a rack of devices with empty
  // hardware and full logical views, all raised in the same episode.
  for (std::size_t i = lo; i < hi; ++i) {
    SwitchAgent& agent = *agents[i];
    if (journal != nullptr) journal->snapshot_agent(*net_, agent.id());
    agent.crash_after(0);
    controller.resync_switch(agent.id());
    record_truth(agent.id());
    ++stats_.agents_crashed;
    ++stats_.resyncs;
    if (split_episodes_) pending_heal_.push_back(i);
  }
  if (split_episodes_) return;  // heal deferred to the next cadence tick
  // Power restored: the rack recovers together and the controller
  // resyncs each member back to the compiled state.
  for (std::size_t i = lo; i < hi; ++i) {
    SwitchAgent& agent = *agents[i];
    agent.recover(controller.now());
    controller.resync_switch(agent.id());
    ++stats_.resyncs;
  }
}

void StormSchedule::rolling_upgrade(std::uint64_t episode_seed,
                                    RepairJournal* journal) {
  const auto agents = net_->agents();
  if (agents.empty()) return;
  Rng rng{episode_seed};
  Controller& controller = net_->controller();
  // The upgraded controller instance recompiles the (unchanged) policy —
  // once or twice, as standby and active come up — bumping the compiled
  // epoch mid-churn. No switch's rules change, so no rule epoch moves and
  // every resident logical BDD stays; caches keyed by the whole-policy
  // epoch (the monitor's risk model, LogicalBddCache) rebuild.
  const std::size_t recompiles = 1 + rng.below(2);
  for (std::size_t i = 0; i < recompiles; ++i) {
    controller.recompile();
    ++stats_.recompiles;
  }
  // Its state-transfer audit then resyncs one switch against the fresh
  // compilation (the paper's controller replays config on takeover).
  const std::size_t idx = rng.below(agents.size());
  if (journal != nullptr) journal->snapshot_agent(*net_, agents[idx]->id());
  controller.resync_switch(agents[idx]->id());
  ++stats_.resyncs;
}

void StormSchedule::pod_brownout(std::uint64_t episode_seed,
                                 RepairJournal* journal) {
  const auto agents = net_->agents();
  if (agents.empty()) return;
  Rng rng{episode_seed};
  const std::size_t rack_size = std::max<std::size_t>(1, profile_.rack_size);
  const std::size_t pod_size =
      rack_size * std::max<std::size_t>(1, profile_.racks_per_pod);
  const std::size_t n_pods = (agents.size() + pod_size - 1) / pod_size;
  const std::size_t pod = rng.below(n_pods);
  const std::size_t lo = pod * pod_size;
  const std::size_t hi = std::min(agents.size(), lo + pod_size);

  Controller& controller = net_->controller();
  // Management network browns out: the whole pod goes unreachable at
  // once. A resync attempted while the channel is down wipes the TCAM
  // (the controller's state-transfer epoch already fenced the device)
  // but every replayed instruction is lost — one SWITCH_UNREACHABLE per
  // member lands in the controller's fault log, correlated in time.
  // Only currently-connected members flap, so the outage records this
  // episode creates are all post-watermark (journal-exact truncation).
  std::vector<std::size_t> flapped;
  for (std::size_t i = lo; i < hi; ++i) {
    SwitchAgent& agent = *agents[i];
    if (!controller.channel().connected(agent.id())) continue;
    if (journal != nullptr) journal->snapshot_agent(*net_, agent.id());
    controller.disconnect_switch(agent.id());
    controller.resync_switch(agent.id());
    record_truth(agent.id());
    ++stats_.channels_flapped;
    ++stats_.resyncs;
    flapped.push_back(i);
  }
  if (split_episodes_) {
    // Brownout persists past this cadence tick; the next one clears it.
    pending_heal_ = std::move(flapped);
    return;
  }
  // Brownout clears: reconnect the pod and resync every member back to
  // the compiled state.
  for (const std::size_t i : flapped) {
    controller.reconnect_switch(agents[i]->id());
    controller.resync_switch(agents[i]->id());
    ++stats_.resyncs;
  }
}

}  // namespace scout
