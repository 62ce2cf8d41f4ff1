#include "net/fabric_port.hpp"

#include <cassert>
#include <utility>

namespace tdtcp {

FabricPort::FabricPort(Simulator& sim, Config config, PacketSink* remote,
                       Random* rng)
    : sim_(sim), config_(std::move(config)), remote_(remote), rng_(rng),
      voq_(config_.voq), mode_(config_.initial_mode) {
  assert(remote_ != nullptr);
}

void FabricPort::SetMode(const NetworkMode& mode) {
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
    keep_scratch_.clear();
    for (Packet& p : drain_scratch_) {
      if (p.pinned_path != kUnpinned && p.pinned_path != active_path()) {
        auto& stash = stash_[p.pinned_path];
        if (stash.size() >= config_.pinned_stash_capacity) {
          ++pinned_dropped_;
        } else {
          stash.push_back(std::move(p));
        }
      } else {
        keep_scratch_.push_back(std::move(p));
      }
    }
    drain_scratch_.clear();
    for (auto& p : keep_scratch_) voq_.Restore(std::move(p));
    keep_scratch_.clear();
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
    stash.push_back(std::move(p));
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
    voq_.Enqueue(std::move(stash.front()));
    stash.pop_front();
  }
}

void FabricPort::MaybeTransmit() {
  if (busy_ || blackout_) return;
  TopUpFromStash();
  if (voq_.Empty()) return;
  // An AQM dequeue may consume the whole backlog as drops and come back
  // empty-handed; there is nothing to serialize then.
  std::optional<Packet> head = voq_.Dequeue(sim_.now());
  if (!head) return;
  // Park the in-flight packet in the simulator's freelist so each hop's
  // event captures one pointer, not a Packet copy.
  Packet* p = sim_.StashPacket(std::move(*head));
  // reTCP switch support: stamp which network carried this packet.
  p->circuit_mark = mode_.circuit;
  busy_ = true;
  const SimTime tx = TransmissionTime(p->size_bytes, mode_.rate_bps);
  sim_.ScheduleNoCancel(tx, [this, p] {
    busy_ = false;
    if (has_fault_filter_ && fault_filter_(*p)) {
      ++fault_dropped_;  // lost on the wire
      sim_.ReleasePacket(p);
      MaybeTransmit();
      return;
    }
    // Propagation parameters are read at serialization-complete time: a mode
    // change during serialization affects this packet's flight, as before.
    SimTime prop = mode_.propagation;
    if (!config_.reorder_jitter.IsZero() && rng_ != nullptr) {
      prop += rng_->UniformTime(SimTime::Zero(), config_.reorder_jitter);
    }
    // One stream per port: successive packets arrive in send order unless
    // a mode switch shortens propagation or jitter reorders them, and then
    // the stream opens a new heap entry.
    sim_.ScheduleInStream(in_flight_, prop, [this, p] {
      remote_->HandlePacket(std::move(*p));
      sim_.ReleasePacket(p);
    });
    MaybeTransmit();
  });
}

}  // namespace tdtcp
