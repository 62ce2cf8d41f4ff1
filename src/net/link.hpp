// A unidirectional link: bounded queue + serializing transmitter +
// propagation delay. It is the one transmit loop in the simulator: host
// NIC links use it as built, and every FabricPort owns one as its VOQ and
// wire and retargets it as the RDCN schedule changes the network.
//
// Packets serialize back-to-back at `rate_bps`, then arrive at the sink
// after `propagation`. Serialization start is the only point where the link
// acts on a packet: it dequeues the head and schedules the arrival at
// start + tx + propagation, so a packet that finds the transmitter idle
// costs one event. While the queue (or the stash it tops up from) holds
// packets, exactly one start event waits for the wire to free up. A link
// can be disabled (RDCN night): the in-progress transmission completes,
// queued packets wait. Optional random jitter models intra-TDN reordering
// (off by default; Fig. 10's baseline reordering experiments enable it).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "net/node.hpp"
#include "net/queue_disc.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "sim/vector_fifo.hpp"

namespace tdtcp {

class Link {
 public:
  struct Config {
    std::uint64_t rate_bps = 10'000'000'000;  // 10 Gbps
    SimTime propagation = SimTime::Micros(1);
    QueueDisc::Config queue;
    // When > 0, each packet's propagation is extended by a uniform random
    // extra delay in [0, reorder_jitter]; late packets can overtake, which
    // models intrinsic intra-TDN reordering.
    SimTime reorder_jitter = SimTime::Zero();
    std::string name;  // for tracing
  };

  // Throws std::invalid_argument on a null sink or a zero rate.
  Link(Simulator& sim, Config config, PacketSink* sink, Random* rng = nullptr);

  // Admits a packet to the queue (may drop) and kicks the transmitter.
  void Enqueue(Packet&& p);

  // Fault-injection hook (src/fault): consulted once per packet when it
  // starts serializing. Returning true drops the packet on the wire (loss
  // or corruption; a corrupted packet fails the receiver checksum, which is
  // indistinguishable from loss here); it still holds the transmitter for
  // its tx time.
  using FaultFilter = std::function<bool(const Packet&)>;
  void SetFaultFilter(FaultFilter filter) {
    fault_filter_ = std::move(filter);
    // Hoisted emptiness flag: the per-packet fast path pays one predictable
    // branch when no filter is installed instead of a std::function probe.
    has_fault_filter_ = static_cast<bool>(fault_filter_);
  }
  std::uint64_t fault_dropped() const { return fault_dropped_; }

  // Night/blackout control: a disabled link does not start new
  // transmissions; the one in flight (if any) still completes and
  // propagates.
  void set_enabled(bool enabled);
  bool enabled() const { return enabled_; }

  // Points the wire at another network (FabricPort's mode flip): later
  // serializations run at `rate_bps` (> 0) over `propagation`, get the
  // circuit mark when `circuit`, and top the queue up from `stash` (pooled
  // handles, front first, while the queue would admit them; null = none)
  // before every dequeue. A packet already serializing keeps what it started
  // under. The stash tops up here too, even while the link is disabled.
  void Retarget(std::uint64_t rate_bps, SimTime propagation, bool circuit,
                VectorFifo<Packet*>* stash);

  QueueDisc& queue() { return queue_; }
  const QueueDisc& queue() const { return queue_; }
  const std::string& name() const { return config_.name; }

 private:
  // Starts serializing the head when the wire is free (the packet's arrival
  // is scheduled right then), else arms the one start event at busy_until_.
  void MaybeTransmit();
  // Moves stashed handles into the queue while it would admit them.
  void TopUpFromStash();

  Simulator& sim_;
  Config config_;
  PacketSink* sink_;
  Random* rng_;
  QueueDisc queue_;
  FaultFilter fault_filter_;
  bool has_fault_filter_ = false;
  SimTime busy_until_;        // end of the serialization in progress
  bool kick_pending_ = false;  // a start event waits at busy_until_
  bool enabled_ = true;
  bool circuit_ = false;  // stamp circuit_mark at serialization start
  VectorFifo<Packet*>* stash_ = nullptr;  // not owned
  bool waiting_for_pool_ = false;  // registered with the queue's pool
  EventQueue::Stream in_flight_;  // arrivals, in serialization order
  std::uint64_t fault_dropped_ = 0;
};

}  // namespace tdtcp
