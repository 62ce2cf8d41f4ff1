// The reconfigurable ToR-to-ToR fabric port: a single VOQ whose service
// rate, propagation delay, and availability follow the RDCN schedule.
//
// This mirrors Etalon's model: one virtual output queue per destination
// rack, drained into whichever network (electrical packet or optical
// circuit) the current configuration provides, and paused entirely during
// reconfiguration nights. Leftover packets from a packet day drain at
// circuit speed once the circuit comes up (A.3's "quickly drained").
//
// The VOQ, the serializer, the blackout, the fault filter, the jitter and
// the arrival stream are a Link the port owns: the simulator's one transmit
// loop. A mode change retargets that Link's rate, propagation and circuit
// mark; the port keeps only the mode itself and the pinned stash. The Link
// runs the starts it owes lazily (link.hpp), so every way into the port
// (Enqueue, SetMode, SetBlackout, voq(), pinned_waiting(), fault_dropped())
// first brings the Link up to now: a packet queued behind the busy wire
// costs no event of its own, only its arrival.
//
// MPTCP experiments pin subflows to one network (§2.2). Pinned packets whose
// network is not currently active wait in a side stash and join the VOQ when
// their network returns — this is what strands subflow traffic and produces
// MPTCP's flow-control stalls.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/link.hpp"
#include "net/node.hpp"
#include "net/queue_disc.hpp"
#include "sim/simulator.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"
#include "sim/vector_fifo.hpp"

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

  // `rng` is the port's own jitter stream. Throws std::invalid_argument on
  // a null remote or a zero-rate mode.
  FabricPort(Simulator& sim, Config config, PacketSink* remote,
             Random rng = Random());

  // Schedule control (driven by the RDCN controller). SetMode throws
  // std::invalid_argument on a zero-rate mode. A packet already serializing
  // keeps the rate and propagation of the mode it started under; a
  // blackout lets it finish and holds the rest.
  void SetMode(const NetworkMode& mode);
  void SetBlackout(bool blackout) { link_.set_enabled(!blackout); }

  const NetworkMode& mode() const { return mode_; }
  bool blackout() const { return !link_.enabled(); }

  void Enqueue(Packet&& p);

  QueueDisc& voq() { return link_.queue(); }
  const QueueDisc& voq() const { return link_.queue(); }

  // Total packets stashed because their pinned network is inactive.
  std::uint32_t pinned_waiting() const;
  std::uint64_t pinned_dropped() const { return pinned_dropped_; }

  // Fault-injection hook (src/fault): see Link::SetFaultFilter.
  void SetFaultFilter(Link::FaultFilter filter) {
    link_.SetFaultFilter(std::move(filter));
  }
  std::uint64_t fault_dropped() const { return link_.fault_dropped(); }
  SimTime tx_start() const { return link_.tx_start(); }

  const std::string& name() const { return link_.name(); }

 private:
  // Active path index: 0 = packet network, 1 = circuit.
  int active_path() const { return mode_.circuit ? 1 : 0; }

  Simulator& sim_;
  Link link_;  // the VOQ and the wire
  NetworkMode mode_;
  std::uint32_t pinned_stash_capacity_;
  // Pooled handles of pinned packets waiting for their network, one FIFO
  // per path; the port owns them until they join the VOQ or are dropped.
  // The link tops the VOQ up from the active path's one.
  VectorFifo<Packet*> stash_[2];
  // Scratch for SetMode's VOQ repack; a member so mode flips (4x per RDCN
  // week per port) reuse its capacity instead of allocating a fresh vector.
  std::vector<Packet*> drain_scratch_;
  std::uint64_t pinned_dropped_ = 0;
};

}  // namespace tdtcp
