// Builds the paper's evaluation topology (Fig. 6): racks of hosts behind
// ToR switches connected by a reconfigurable fabric.
//
// Host ids are rack * hosts_per_rack + index. All benches use two racks, as
// in the paper ("we can emulate any scale of RDCN using this topology by
// pinning flows between this pair of racks"), but the builder supports any
// rack count with a full mesh of fabric ports.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/fabric_port.hpp"
#include "net/host.hpp"
#include "net/link.hpp"
#include "net/tor_switch.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace tdtcp {

// Propagation delay of every rack NIC link (Fig. 6's machine NIC).
inline constexpr SimTime kHostLinkDelay = SimTime::Nanos(500);

struct TopologyConfig {
  std::uint32_t num_racks = 2;
  std::uint32_t hosts_per_rack = 16;

  // The rack "machine NIC" (Fig. 6): every emulated host in a rack shares
  // one data-plane NIC in each direction, so the rack's aggregate arrival
  // rate at the ToR can never exceed this — exactly the property that keeps
  // the synchronized post-notification burst from instantly overflowing the
  // VOQ at circuit start in the real testbed.
  std::uint64_t host_link_rate_bps = 100'000'000'000;

  // The two TDN personalities of the fabric. Defaults reproduce §5.1:
  // packet network 10 Gbps / ~100 us RTT, optical 100 Gbps / ~40 us RTT.
  NetworkMode packet_mode{/*tdn=*/0, /*rate=*/10'000'000'000,
                          /*prop=*/SimTime::Micros(48), /*circuit=*/false};
  NetworkMode circuit_mode{/*tdn=*/1, /*rate=*/100'000'000'000,
                           /*prop=*/SimTime::Micros(18), /*circuit=*/true};

  // The single queue-discipline default for every fabric-port VOQ
  // (QueueDisc::Config's own defaults are the paper's 16-packet drop-tail
  // VOQ with marking disabled; DCTCP configs lower the threshold and
  // ExperimentConfig::WithQdisc swaps the discipline).
  QueueDisc::Config voq;

  // The rack NIC queues (deep drop-tail by default; a NIC is not a VOQ).
  QueueDisc::Config host_queue = HostQueueDefault();
  static QueueDisc::Config HostQueueDefault() {
    QueueDisc::Config q;
    q.capacity_packets = 1024;
    return q;
  }

  SimTime fabric_reorder_jitter = SimTime::Zero();

  NotifyGenConfig notify;
  NotifyDistribution notify_dist;
};

class Topology {
 public:
  // Every ToR, fabric port and rack NIC link draws from its own stream,
  // forked from `rng` by component id; `rng` itself never advances.
  Topology(Simulator& sim, const Random& rng, const TopologyConfig& config);

  Host* host(RackId rack, std::uint32_t index) {
    return hosts_[rack * config_.hosts_per_rack + index].get();
  }
  Host* host_by_id(NodeId id) { return hosts_[id].get(); }
  NodeId num_hosts() const { return static_cast<NodeId>(hosts_.size()); }
  ToRSwitch* tor(RackId rack) { return tors_[rack].get(); }

  // The fabric port carrying traffic from `src` rack toward `dst` rack.
  FabricPort* port(RackId src, RackId dst) { return tors_[src]->port(dst); }

  // The rack machine NICs (shared by every host in the rack): hosts -> ToR
  // and ToR -> hosts. Fault plans target these for NIC loss and link-down
  // windows.
  Link* rack_uplink(RackId rack) { return uplinks_[rack]; }
  Link* rack_downlink(RackId rack) { return downlinks_[rack]; }

  NodeId host_id(RackId rack, std::uint32_t index) const {
    return rack * config_.hosts_per_rack + index;
  }
  RackId rack_of(NodeId host) const { return host / config_.hosts_per_rack; }

  const TopologyConfig& config() const { return config_; }

 private:
  // Delivers rack-downlink packets to the destination host.
  class RackDemux : public PacketSink {
   public:
    explicit RackDemux(Topology* topo) : topo_(topo) {}
    void HandlePacket(Packet&& p) override {
      topo_->host_by_id(p.dst)->HandlePacket(std::move(p));
    }
   private:
    Topology* topo_;
  };

  TopologyConfig config_;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<std::unique_ptr<ToRSwitch>> tors_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<Link*> uplinks_;    // per rack, owned by links_
  std::vector<Link*> downlinks_;  // per rack, owned by links_
  std::vector<std::unique_ptr<RackDemux>> demuxes_;
};

}  // namespace tdtcp
