#include "net/link.hpp"

#include <stdexcept>
#include <utility>

namespace tdtcp {

Link::Link(Simulator& sim, Config config, PacketSink* sink, Random rng)
    : sim_(sim), config_(std::move(config)), sink_(sink), rng_(rng),
      queue_(sim, config_.queue) {
  if (sink_ == nullptr) throw std::invalid_argument("Link: null sink");
  if (config_.rate_bps == 0) {
    throw std::invalid_argument("Link: rate_bps must be positive");
  }
}

void Link::Enqueue(Packet&& p) {
  CatchUp();
  p.enqueue_time = sim_.now();
  if (!queue_.Enqueue(std::move(p))) return;  // dropped
  MaybeTransmit();
}

void Link::set_enabled(bool enabled) {
  RunOwedStarts(/*inclusive=*/false);  // a night at busy_until_ holds it
  enabled_ = enabled;
  if (enabled_) {
    MaybeTransmit();
  } else {
    start_owed_ = false;  // service resumes when the link does
  }
}

void Link::Retarget(std::uint64_t rate_bps, SimTime propagation, bool circuit,
                    VectorFifo<Packet*>* stash) {
  RunOwedStarts(/*inclusive=*/false);  // a start owed now takes the new wire
  config_.rate_bps = rate_bps;
  config_.propagation = propagation;
  circuit_ = circuit;
  stash_ = stash;
  // The packet in flight keeps its old propagation; a shorter new one
  // would land the next packet before it.
  covered_ = false;
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

void Link::RunOwedStarts(bool inclusive) {
  const SimTime now = sim_.now();
  while (start_owed_ && enabled_ &&
         (busy_until_ < now || (inclusive && busy_until_ == now))) {
    Start(busy_until_);
  }
}

void Link::MaybeTransmit() {
  if (!enabled_) return;
  if (busy_until_ <= sim_.now()) {
    Start(sim_.now());
    RunOwedStarts(/*inclusive=*/true);  // a zero-length packet frees it at once
  } else if (Waiting()) {
    OweStart();
  }
}

void Link::OweStart() {
  start_owed_ = true;
  // A wire that freed before now is still being caught up by the caller.
  if (covered_ || start_armed_ || busy_until_ < sim_.now()) return;
  start_armed_ = true;
  sim_.ScheduleAtNoCancel(busy_until_, [this] {
    start_armed_ = false;
    RunOwedStarts(/*inclusive=*/true);
    if (start_owed_) OweStart();  // the start ran early and owes another
  });
}

void Link::Start(SimTime t) {
  start_owed_ = false;
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
  Packet* head = queue_.Dequeue(t);
  if (head == nullptr) return;
  const SimTime tx = TransmissionTime(head->size_bytes, config_.rate_bps);
  tx_start_ = t;
  busy_until_ = t + tx;
  // The fault filter and the jitter draw run at serialization start; a
  // dropped packet still holds the wire for its tx time.
  if (has_fault_filter_ && fault_filter_(*head)) {
    ++fault_dropped_;  // lost on the wire
    sim_.ReleasePacket(head);
    covered_ = false;
  } else {
    // reTCP switch support: a circuit stamps which network carried this
    // packet. Propagation is fixed here too: a retarget during serialization
    // does not re-route the packet.
    if (circuit_) head->circuit_mark = true;
    SimTime delay = tx + config_.propagation;
    covered_ = queue_.shared_pool() == nullptr;
    if (!config_.reorder_jitter.IsZero()) {
      delay += rng_.UniformTime(SimTime::Zero(), config_.reorder_jitter);
      covered_ = false;
    }
    // The pooled handle the queue admitted rides the arrival event as one
    // pointer; the event releases it after delivery. Arrivals leave in
    // serialization order with a fixed delay, so they ride one stream (one
    // heap entry for the whole pipeline); jitter or a retarget to a shorter
    // propagation breaks the order now and then, and such a packet just
    // opens its own entry. A covered arrival first runs the start owed when
    // its packet left the wire.
    sim_.ScheduleInStream(in_flight_, t + delay - sim_.now(), [this, head] {
      RunOwedStarts(/*inclusive=*/true);
      sink_->HandlePacket(std::move(*head));
      sim_.ReleasePacket(head);
    });
  }
  if (Waiting()) OweStart();
}

}  // namespace tdtcp
