#include "net/fabric_port.hpp"

#include <stdexcept>
#include <utility>

namespace tdtcp {

namespace {

void CheckMode(const NetworkMode& mode) {
  // TransmissionTime divides by the rate.
  if (mode.rate_bps == 0) {
    throw std::invalid_argument(
        "FabricPort: NetworkMode rate_bps must be positive");
  }
}

}  // namespace

FabricPort::FabricPort(Simulator& sim, Config config, PacketSink* remote,
                       Random* rng)
    : sim_(sim), config_(std::move(config)), remote_(remote), rng_(rng),
      voq_(sim, config_.voq), mode_(config_.initial_mode) {
  if (remote_ == nullptr) {
    throw std::invalid_argument("FabricPort: null remote");
  }
  CheckMode(mode_);
}

void FabricPort::SetMode(const NetworkMode& mode) {
  CheckMode(mode);
  mode_ = mode;
  // Pinned packets already admitted to the VOQ must not ride the wrong
  // network: move the ones whose network just went away back to the stash
  // (this is what strands an MPTCP subflow's tail ACKs for a whole week,
  // §2.2), and pull in stashed packets whose network just came up. The
  // repack moves packets structurally (DrainRawInto/Restore): it is not a
  // service or admission event, so it must not distort sojourn stats,
  // advance the AQM, or manufacture drops for packets the queue already
  // admitted.
  if (!voq_.Empty()) {
    drain_scratch_.clear();
    voq_.DrainRawInto(drain_scratch_);  // one batched structural pop
    for (Packet* p : drain_scratch_) {
      if (p->pinned_path == kUnpinned || p->pinned_path == active_path()) {
        voq_.Restore(p);
      } else if (stash_[p->pinned_path].size() >=
                 config_.pinned_stash_capacity) {
        ++pinned_dropped_;
        sim_.ReleasePacket(p);
      } else {
        stash_[p->pinned_path].push_back(p);
      }
    }
    drain_scratch_.clear();
  }
  TopUpFromStash();
  MaybeTransmit();
}

void FabricPort::SetBlackout(bool blackout) {
  blackout_ = blackout;
  if (!blackout_) MaybeTransmit();
}

void FabricPort::Enqueue(Packet&& p) {
  p.enqueue_time = sim_.now();
  if (p.pinned_path != kUnpinned && p.pinned_path != active_path()) {
    auto& stash = stash_[p.pinned_path];
    if (stash.size() >= config_.pinned_stash_capacity) {
      ++pinned_dropped_;
      return;
    }
    stash.push_back(sim_.StashPacket(std::move(p)));
    return;
  }
  voq_.Enqueue(std::move(p));  // may drop
  MaybeTransmit();
}

std::uint32_t FabricPort::pinned_waiting() const {
  return static_cast<std::uint32_t>(stash_[0].size() + stash_[1].size());
}

void FabricPort::TopUpFromStash() {
  auto& stash = stash_[active_path()];
  // CanEnqueue is the discipline's own admission predicate (plain occupancy
  // for drop-tail, the dynamic threshold for a shared pool), so a stashed
  // pinned packet is never offered to a queue that would drop it.
  while (!stash.empty() && voq_.CanEnqueue()) {
    voq_.Enqueue(stash.front());
    stash.pop_front();
  }
}

void FabricPort::MaybeTransmit() {
  while (!kick_pending_ && !blackout_) {
    const SimTime now = sim_.now();
    if (now < busy_until_) {
      // The wire is still serializing: while a packet waits for it (in the
      // VOQ or the active path's stash), one start event waits too.
      if (voq_.Empty() && stash_[active_path()].empty()) return;
      kick_pending_ = true;
      sim_.ScheduleAtNoCancel(busy_until_, [this] {
        kick_pending_ = false;
        MaybeTransmit();
      });
      return;
    }
    TopUpFromStash();
    if (voq_.Empty()) return;
    // An AQM dequeue may consume the whole backlog as drops and come back
    // empty-handed; there is nothing to serialize then.
    Packet* head = voq_.Dequeue(now);
    if (head == nullptr) return;
    const SimTime tx = TransmissionTime(head->size_bytes, mode_.rate_bps);
    busy_until_ = now + tx;
    // The fault filter and the jitter draw run at serialization start; a
    // dropped packet still holds the wire for its tx time.
    if (has_fault_filter_ && fault_filter_(*head)) {
      ++fault_dropped_;  // lost on the wire
      sim_.ReleasePacket(head);
      continue;
    }
    // reTCP switch support: stamp which network carried this packet.
    head->circuit_mark = mode_.circuit;
    // Propagation is fixed when serialization starts: a mode change during
    // serialization does not re-route this packet.
    SimTime delay = tx + mode_.propagation;
    if (!config_.reorder_jitter.IsZero() && rng_ != nullptr) {
      delay += rng_->UniformTime(SimTime::Zero(), config_.reorder_jitter);
    }
    // The pooled handle the VOQ admitted rides the arrival event as one
    // pointer; the event releases it after delivery. One stream per port:
    // successive packets arrive in send order unless a mode switch shortens
    // propagation or jitter reorders them, and then the stream opens a new
    // heap entry.
    sim_.ScheduleInStream(in_flight_, delay, [this, head] {
      remote_->HandlePacket(std::move(*head));
      sim_.ReleasePacket(head);
    });
  }
}

}  // namespace tdtcp
