// The reconfigurable ToR-to-ToR fabric port: a single VOQ whose service
// rate, propagation delay, and availability follow the RDCN schedule.
//
// This mirrors Etalon's model: one virtual output queue per destination
// rack, drained into whichever network (electrical packet or optical
// circuit) the current configuration provides, and paused entirely during
// reconfiguration nights. Leftover packets from a packet day drain at
// circuit speed once the circuit comes up (A.3's "quickly drained").
//
// MPTCP experiments pin subflows to one network (§2.2). Pinned packets whose
// network is not currently active wait in a side stash and join the VOQ when
// their network returns — this is what strands subflow traffic and produces
// MPTCP's flow-control stalls.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "net/node.hpp"
#include "net/queue_disc.hpp"
#include "sim/simulator.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace tdtcp {

// One network personality of the fabric (a TDN as seen by this rack pair).
struct NetworkMode {
  TdnId tdn = 0;
  std::uint64_t rate_bps = 10'000'000'000;
  SimTime propagation = SimTime::Micros(48);
  bool circuit = false;  // true when this mode is an optical circuit
};

class FabricPort {
 public:
  struct Config {
    QueueDisc::Config voq;
    NetworkMode initial_mode;
    // Optional uniform extra propagation jitter (intra-TDN reordering).
    SimTime reorder_jitter = SimTime::Zero();
    std::uint32_t pinned_stash_capacity = 256;
    std::string name;
  };

  FabricPort(Simulator& sim, Config config, PacketSink* remote, Random* rng = nullptr);

  // Schedule control (driven by the RDCN controller).
  void SetMode(const NetworkMode& mode);
  void SetBlackout(bool blackout);

  const NetworkMode& mode() const { return mode_; }
  bool blackout() const { return blackout_; }

  void Enqueue(Packet&& p);

  QueueDisc& voq() { return voq_; }
  const QueueDisc& voq() const { return voq_; }

  // Total packets stashed because their pinned network is inactive.
  std::uint32_t pinned_waiting() const;
  std::uint64_t pinned_dropped() const { return pinned_dropped_; }

  // Fault-injection hook (src/fault): consulted once per packet after it
  // finishes serializing, before propagation. Returning true drops it.
  using FaultFilter = std::function<bool(const Packet&)>;
  void SetFaultFilter(FaultFilter filter) {
    fault_filter_ = std::move(filter);
    has_fault_filter_ = static_cast<bool>(fault_filter_);
  }
  std::uint64_t fault_dropped() const { return fault_dropped_; }

  const std::string& name() const { return config_.name; }

 private:
  // Active path index: 0 = packet network, 1 = circuit.
  int active_path() const { return mode_.circuit ? 1 : 0; }

  void TopUpFromStash();
  void MaybeTransmit();

  Simulator& sim_;
  Config config_;
  PacketSink* remote_;
  Random* rng_;
  QueueDisc voq_;
  NetworkMode mode_;
  bool blackout_ = false;
  bool busy_ = false;
  EventQueue::Stream in_flight_;  // propagation deliveries, in send order
  std::deque<Packet> stash_[2];
  // Scratch for SetMode's VOQ repack; a member so mode flips (4x per RDCN
  // week per port) reuse its capacity instead of allocating a fresh deque.
  std::vector<Packet> keep_scratch_;
  std::vector<Packet> drain_scratch_;
  FaultFilter fault_filter_;
  bool has_fault_filter_ = false;
  std::uint64_t pinned_dropped_ = 0;
  std::uint64_t fault_dropped_ = 0;
};

}  // namespace tdtcp
