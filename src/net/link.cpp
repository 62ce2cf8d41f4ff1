#include "net/link.hpp"

#include <stdexcept>
#include <utility>

namespace tdtcp {

Link::Link(Simulator& sim, Config config, PacketSink* sink, Random* rng)
    : sim_(sim), config_(std::move(config)), sink_(sink), rng_(rng),
      queue_(sim, config_.queue) {
  if (sink_ == nullptr) throw std::invalid_argument("Link: null sink");
  if (config_.rate_bps == 0) {
    throw std::invalid_argument("Link: rate_bps must be positive");
  }
}

void Link::Enqueue(Packet&& p) {
  p.enqueue_time = sim_.now();
  if (!queue_.Enqueue(std::move(p))) return;  // dropped
  MaybeTransmit();
}

void Link::set_enabled(bool enabled) {
  enabled_ = enabled;
  if (enabled_) MaybeTransmit();
}

void Link::Retarget(std::uint64_t rate_bps, SimTime propagation, bool circuit,
                    VectorFifo<Packet*>* stash) {
  config_.rate_bps = rate_bps;
  config_.propagation = propagation;
  circuit_ = circuit;
  stash_ = stash;
  TopUpFromStash();
  MaybeTransmit();
}

void Link::TopUpFromStash() {
  if (stash_ == nullptr) return;
  // CanEnqueue is the discipline's own admission predicate (plain occupancy
  // for drop-tail, the dynamic threshold for a shared pool), so a stashed
  // packet is never offered to a queue that would drop it.
  while (!stash_->empty() && queue_.CanEnqueue()) {
    queue_.Enqueue(stash_->front());
    stash_->pop_front();
  }
}

void Link::MaybeTransmit() {
  while (!kick_pending_ && enabled_) {
    const SimTime now = sim_.now();
    if (now < busy_until_) {
      // The wire is still serializing: while a packet waits for it (in the
      // queue or the stash), one start event waits too.
      if (queue_.Empty() && (stash_ == nullptr || stash_->empty())) return;
      kick_pending_ = true;
      sim_.ScheduleAtNoCancel(busy_until_, [this] {
        kick_pending_ = false;
        MaybeTransmit();
      });
      return;
    }
    TopUpFromStash();
    if (queue_.Empty()) {
      // Only a full shared pool holds a stash back: wait for a release.
      if (stash_ != nullptr && !stash_->empty() && !waiting_for_pool_) {
        waiting_for_pool_ = true;
        queue_.WaitForPoolSpace([this] {
          waiting_for_pool_ = false;
          MaybeTransmit();
        });
      }
      return;
    }
    // An AQM dequeue may consume the whole backlog as drops and come back
    // empty-handed; there is nothing to transmit then.
    Packet* head = queue_.Dequeue(now);
    if (head == nullptr) return;
    const SimTime tx = TransmissionTime(head->size_bytes, config_.rate_bps);
    busy_until_ = now + tx;
    // The fault filter and the jitter draw run at serialization start; a
    // dropped packet still holds the wire for its tx time.
    if (has_fault_filter_ && fault_filter_(*head)) {
      ++fault_dropped_;  // lost on the wire
      sim_.ReleasePacket(head);
      continue;
    }
    // reTCP switch support: a circuit stamps which network carried this
    // packet. Propagation is fixed here too: a retarget during serialization
    // does not re-route the packet.
    if (circuit_) head->circuit_mark = true;
    SimTime delay = tx + config_.propagation;
    if (!config_.reorder_jitter.IsZero() && rng_ != nullptr) {
      delay += rng_->UniformTime(SimTime::Zero(), config_.reorder_jitter);
    }
    // The pooled handle the queue admitted rides the arrival event as one
    // pointer; the event releases it after delivery. Arrivals leave in
    // serialization order with a fixed delay, so they ride one stream (one
    // heap entry for the whole pipeline); jitter or a retarget to a shorter
    // propagation breaks the order now and then, and such a packet just
    // opens its own entry.
    sim_.ScheduleInStream(in_flight_, delay, [this, head] {
      sink_->HandlePacket(std::move(*head));
      sim_.ReleasePacket(head);
    });
  }
}

}  // namespace tdtcp
