#include "net/fabric_port.hpp"

#include <stdexcept>
#include <utility>

namespace tdtcp {

FabricPort::FabricPort(Simulator& sim, Config config, PacketSink* remote,
                       Random rng)
    : sim_(sim),
      link_(sim,
            Link::Config{.rate_bps = config.initial_mode.rate_bps,
                         .propagation = config.initial_mode.propagation,
                         .queue = config.voq,
                         .reorder_jitter = config.reorder_jitter,
                         .name = std::move(config.name)},
            remote, rng),
      mode_(config.initial_mode),
      pinned_stash_capacity_(config.pinned_stash_capacity) {
  SetMode(mode_);
}

void FabricPort::SetMode(const NetworkMode& mode) {
  // TransmissionTime divides by the rate; check before anything changes.
  if (mode.rate_bps == 0) {
    throw std::invalid_argument(
        "FabricPort: NetworkMode rate_bps must be positive");
  }
  mode_ = mode;
  // Pinned packets already admitted to the VOQ must not ride the wrong
  // network: move the ones whose network just went away back to the stash
  // (this is what strands an MPTCP subflow's tail ACKs for a whole week,
  // §2.2). The repack moves packets structurally (DrainRawInto/Restore): it
  // is not a service or admission event, so it must not distort sojourn
  // stats, advance the AQM, or manufacture drops for packets the queue
  // already admitted.
  QueueDisc& voq = link_.queue_before_retarget();
  if (!voq.Empty()) {
    drain_scratch_.clear();
    voq.DrainRawInto(drain_scratch_);  // one batched structural pop
    for (Packet* p : drain_scratch_) {
      if (p->pinned_path == kUnpinned || p->pinned_path == active_path()) {
        voq.Restore(p);
      } else if (stash_[p->pinned_path].size() >= pinned_stash_capacity_) {
        ++pinned_dropped_;
        sim_.ReleasePacket(p);
      } else {
        stash_[p->pinned_path].push_back(p);
      }
    }
    drain_scratch_.clear();
  }
  // The wire takes the new network, and stashed packets whose network just
  // came up join the VOQ behind the ones it kept.
  link_.Retarget(mode_.rate_bps, mode_.propagation, mode_.circuit,
                 &stash_[active_path()]);
}

void FabricPort::Enqueue(Packet&& p) {
  if (p.pinned_path != kUnpinned && p.pinned_path != active_path()) {
    link_.CatchUp();  // owed starts see the stashes as they were
    auto& stash = stash_[p.pinned_path];
    if (stash.size() >= pinned_stash_capacity_) {
      ++pinned_dropped_;
      return;
    }
    p.enqueue_time = sim_.now();
    stash.push_back(sim_.StashPacket(std::move(p)));
    return;
  }
  link_.Enqueue(std::move(p));  // may drop
}

std::uint32_t FabricPort::pinned_waiting() const {
  link_.CatchUp();  // an owed start may yet top the VOQ up from a stash
  return static_cast<std::uint32_t>(stash_[0].size() + stash_[1].size());
}

}  // namespace tdtcp
