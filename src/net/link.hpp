// A unidirectional link: bounded queue + serializing transmitter +
// propagation delay. It is the one transmit loop in the simulator: host
// NIC links use it as built, and every FabricPort owns one as its VOQ and
// wire and retargets it as the RDCN schedule changes the network.
//
// Packets serialize back-to-back at `rate_bps`, then arrive at the sink
// after `propagation`. Serialization start is the only point where the link
// acts on a packet: at start time t it dequeues the head and schedules the
// arrival at t + tx + propagation, so every packet costs one event, its
// arrival. A packet that queues behind a busy wire takes no event of its
// own: the link records that a start is owed at busy_until_ and runs it,
// still at its own time, when the link is next touched (Enqueue,
// set_enabled, Retarget, CatchUp, a queue() read) or when the packet in
// flight arrives at busy_until_ + propagation, whichever comes first. A
// start event at busy_until_ is armed only where that arrival is missing or
// could come too late: the wire dropped the packet (fault filter), the link
// draws jitter, the queue shares a SharedBufferPool (other queues' admission
// reads its occupancy), or a Retarget may have shortened the propagation.
//
// Tie rule: a night (set_enabled(false)) or a Retarget at exactly
// busy_until_ acts first, so the owed start is held or leaves on the new
// wire; anything else at that instant finds the start already run. An armed
// start event fires in event order, behind a controller boundary scheduled
// long before it.
//
// A link can be disabled (RDCN night): the in-progress transmission
// completes, queued packets wait. Optional random jitter models intra-TDN
// reordering (off by default; Fig. 10's baseline reordering experiments
// enable it).
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

  // `rng` is the link's own jitter stream (drawn only with reorder_jitter
  // set). Throws std::invalid_argument on a null sink or a zero rate.
  Link(Simulator& sim, Config config, PacketSink* sink, Random rng = Random());

  // Admits a packet to the queue (may drop) and kicks the transmitter.
  void Enqueue(Packet&& p);

  // Fault-injection hook (src/fault): consulted once per packet when it
  // starts serializing, which may lie before now (see tx_start()). Returning
  // true drops the packet on the wire (loss or corruption; a corrupted
  // packet fails the receiver checksum, which is indistinguishable from loss
  // here); it still holds the transmitter for its tx time.
  using FaultFilter = std::function<bool(const Packet&)>;
  void SetFaultFilter(FaultFilter filter) {
    fault_filter_ = std::move(filter);
    // Hoisted emptiness flag: the per-packet fast path pays one predictable
    // branch when no filter is installed instead of a std::function probe.
    has_fault_filter_ = static_cast<bool>(fault_filter_);
  }
  std::uint64_t fault_dropped() const {
    CatchUp();
    return fault_dropped_;
  }
  // When the most recent serialization started: inside the fault filter,
  // the time the filtered packet starts serializing.
  SimTime tx_start() const { return tx_start_; }

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

  // Runs every start owed until now, each at its own time, so that no
  // reader sees a packet the wire has already taken. Enqueue and every
  // reader (queue(), fault_dropped()) call it, and so does the owner of a
  // stash before it touches one. It is const because it only brings the
  // link up to now: a start run late differs from one run on time only in
  // its arrival's place among same-time events and in when its fault draw
  // is taken.
  void CatchUp() const {
    const_cast<Link*>(this)->RunOwedStarts(/*inclusive=*/true);
  }

  // The queue as of now.
  QueueDisc& queue() {
    CatchUp();
    return queue_;
  }
  const QueueDisc& queue() const {
    CatchUp();
    return queue_;
  }
  // The queue as a mode flip at now finds it, for an owner that repacks it
  // before calling Retarget (FabricPort::SetMode): a start owed at exactly
  // now has not run yet, since the flip wins that tie.
  QueueDisc& queue_before_retarget() {
    RunOwedStarts(/*inclusive=*/false);
    return queue_;
  }
  const std::string& name() const { return config_.name; }

 private:
  // Runs owed starts while the wire frees before now, or at now too when
  // `inclusive` (every caller but a night and a mode flip).
  void RunOwedStarts(bool inclusive);
  // After an entry point acted: starts serializing at once when the wire is
  // free, else owes a start at busy_until_ if a packet waits.
  void MaybeTransmit();
  // Serializes the next waiting packet at `t` (the wire is free by then);
  // the arrival is scheduled right away, even when `t` lies before now.
  void Start(SimTime t);
  // Records the start owed at busy_until_, arming the start event unless
  // the packet in flight will arrive in time to run it.
  void OweStart();
  bool Waiting() const {
    return !queue_.Empty() || (stash_ != nullptr && !stash_->empty());
  }
  // Moves stashed handles into the queue while it would admit them.
  void TopUpFromStash();

  Simulator& sim_;
  Config config_;
  PacketSink* sink_;
  Random rng_;
  QueueDisc queue_;
  FaultFilter fault_filter_;
  bool has_fault_filter_ = false;
  SimTime busy_until_;  // end of the serialization in progress
  SimTime tx_start_;    // start of the serialization in progress
  bool start_owed_ = false;   // a packet waits for the wire at busy_until_
  // The in-flight packet's arrival lands at busy_until_ + propagation, in
  // time to run the owed start.
  bool covered_ = false;
  bool start_armed_ = false;  // a start event is pending
  bool enabled_ = true;
  bool circuit_ = false;  // stamp circuit_mark at serialization start
  VectorFifo<Packet*>* stash_ = nullptr;  // not owned
  bool waiting_for_pool_ = false;  // registered with the queue's pool
  EventQueue::Stream in_flight_;  // arrivals, in serialization order
  std::uint64_t fault_dropped_ = 0;
};

}  // namespace tdtcp
