#include "net/link.hpp"

#include <cassert>
#include <utility>

namespace tdtcp {

Link::Link(Simulator& sim, Config config, PacketSink* sink, Random* rng)
    : sim_(sim), config_(std::move(config)), sink_(sink), rng_(rng),
      queue_(config_.queue) {
  assert(sink_ != nullptr);
  assert(config_.rate_bps > 0);
}

void Link::Enqueue(Packet&& p) {
  p.enqueue_time = sim_.now();
  if (!queue_.Enqueue(std::move(p))) return;  // dropped
  MaybeTransmit();
}

void Link::set_enabled(bool enabled) {
  if (enabled_ == enabled) return;
  enabled_ = enabled;
  if (enabled_) MaybeTransmit();
}

void Link::MaybeTransmit() {
  if (busy_ || !enabled_ || queue_.Empty()) return;
  // An AQM dequeue may consume the whole backlog as drops and come back
  // empty-handed; there is nothing to transmit then.
  std::optional<Packet> head = queue_.Dequeue(sim_.now());
  if (!head) return;
  // Park the in-flight packet in the simulator's freelist so the event
  // captures one pointer, not a Packet copy.
  Packet* p = sim_.StashPacket(std::move(*head));
  busy_ = true;
  const SimTime tx = TransmissionTime(p->size_bytes, config_.rate_bps);
  sim_.ScheduleNoCancel(tx, [this, p] {
    busy_ = false;
    Deliver(p);
    MaybeTransmit();
  });
}

void Link::Deliver(Packet* p) {
  if (has_fault_filter_ && fault_filter_(*p)) {
    ++fault_dropped_;
    sim_.ReleasePacket(p);
    return;  // lost on the wire
  }
  SimTime delay = config_.propagation;
  if (!config_.reorder_jitter.IsZero() && rng_ != nullptr) {
    delay += rng_->UniformTime(SimTime::Zero(), config_.reorder_jitter);
  }
  ++delivered_;
  // Deliveries leave in serialization order with a fixed delay, so they
  // ride one stream (one heap entry for the whole pipeline); jitter breaks
  // the order now and then, and such a packet just opens its own entry.
  sim_.ScheduleInStream(in_flight_, delay, [this, p] {
    sink_->HandlePacket(std::move(*p));
    sim_.ReleasePacket(p);
  });
}

}  // namespace tdtcp
