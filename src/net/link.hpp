// A unidirectional link: bounded queue + serializing transmitter +
// propagation delay.
//
// Packets serialize back-to-back at `rate_bps`, then arrive at the sink
// after `propagation`. A link can be disabled (RDCN night): the
// in-progress transmission completes, queued packets wait. Optional random
// jitter models intra-TDN reordering (off by default; Fig. 10's baseline
// reordering experiments enable it).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "net/node.hpp"
#include "net/queue_disc.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

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

  Link(Simulator& sim, Config config, PacketSink* sink, Random* rng = nullptr);

  // Admits a packet to the queue (may drop) and kicks the transmitter.
  void Enqueue(Packet&& p);

  // Fault-injection hook (src/fault): consulted once per packet after it
  // finishes serializing, before propagation. Returning true drops the
  // packet on the wire (loss or corruption; a corrupted packet fails the
  // receiver checksum, which is indistinguishable from loss here).
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

  void set_rate_bps(std::uint64_t rate) { config_.rate_bps = rate; }
  std::uint64_t rate_bps() const { return config_.rate_bps; }

  QueueDisc& queue() { return queue_; }
  const QueueDisc& queue() const { return queue_; }
  const std::string& name() const { return config_.name; }

  std::uint64_t delivered() const { return delivered_; }

 private:
  void MaybeTransmit();
  // `p` is a Simulator-stashed packet owned by the caller's event; Deliver
  // either forwards it (releasing after the final handoff) or drops it.
  void Deliver(Packet* p);

  Simulator& sim_;
  Config config_;
  PacketSink* sink_;
  Random* rng_;
  QueueDisc queue_;
  FaultFilter fault_filter_;
  bool has_fault_filter_ = false;
  bool busy_ = false;
  bool enabled_ = true;
  EventQueue::Stream in_flight_;  // propagation deliveries, in send order
  std::uint64_t delivered_ = 0;
  std::uint64_t fault_dropped_ = 0;
};

}  // namespace tdtcp
