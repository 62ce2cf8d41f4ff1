// Top-of-rack switch: routes between local hosts and remote racks through
// reconfigurable fabric ports, and generates the ICMP TDN-change
// notifications (§3.2) with the latency model whose optimizations §5.4
// evaluates.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/fabric_port.hpp"
#include "net/link.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace tdtcp {

// ToR-side notification generation model (§5.4).
//  * cached_packet: pre-built ICMP skeleton, only the TDN ID is filled in
//    (optimized) vs constructing a packet from scratch per host with a
//    heavy-tailed cost (unoptimized; 8x slower at p50, 2.7x at p99).
//  * via_control_network: dedicated control NIC with a fixed small delay
//    (optimized) vs riding the busy data-plane downlink queue (unoptimized).
// Both construction paths are lognormal; caching cuts the median ~8x but
// keeps a relatively fatter tail (the paper measures 8x at p50, 2.7x at
// p99 — §5.4).
inline constexpr SimTime kNotifyGenCachedMedian = SimTime::Nanos(500);
inline constexpr double kNotifyGenCachedSigma = 0.7;
inline constexpr double kNotifyGenFreshSigma = 0.35;
// The control network's fixed delivery delay.
inline constexpr SimTime kNotifyControlDelay = SimTime::Micros(1);

struct NotifyGenConfig {
  bool cached_packet = true;
  SimTime gen_delay_fresh_median = SimTime::Micros(4);
  bool via_control_network = true;
};

class ToRSwitch : public PacketSink {
 public:
  // Hosts are numbered rack-major: rack r holds ids r*hosts_per_rack up to
  // (r+1)*hosts_per_rack - 1, so routing is pure arithmetic. `rng` is the
  // switch's own stream (notification generation delays); every fabric port
  // forks its jitter stream from it. Throws std::invalid_argument when
  // `hosts_per_rack` is zero.
  ToRSwitch(Simulator& sim, RackId rack, std::uint32_t hosts_per_rack,
            NotifyGenConfig notify, Random rng);

  RackId rack() const { return rack_; }

  // `control_sink` receives ICMP notifications delivered over the control
  // network (in practice, the host itself). Hosts are attached in id order,
  // so host `id` sits at slot id % hosts_per_rack.
  void AttachHost(NodeId host, Link* downlink, PacketSink* control_sink);

  // Creates the fabric port toward `rack`. A port configured with
  // QdiscKind::kSharedPool is attached to this switch's buffer pool of
  // kSharedPoolPackets, so every such VOQ on the ToR competes under
  // dynamic-threshold sharing.
  FabricPort* AddRemoteRack(RackId rack, FabricPort::Config config,
                            PacketSink* remote_tor);

  void HandlePacket(Packet&& p) override;

  // Emits a TDN-change notification to every attached host. Generation cost
  // accumulates per host (the software switch builds packets in a loop), so
  // later hosts learn later. `imminent` is the reTCPdyn advance notice;
  // `peer` scopes the notification to paths toward one remote rack
  // (multi-rack fabrics). `seq` is the controller's generation number
  // stamped into the ICMP (zero = unsequenced, see Packet::notify_seq).
  void NotifyHosts(TdnId tdn, bool imminent = false, RackId peer = kAllRacks,
                   std::uint64_t seq = 0);

  // Control-plane fault hook (src/fault): decides how each per-host
  // notification is delivered. The hook appends the delivery delays to use
  // to `delays_out` -- none drops the notification, one delivers it
  // normally (possibly late), several duplicate it. When unset, one
  // delivery at `base_delay`.
  using NotifyFaultHook = std::function<void(
      const Packet& icmp, SimTime base_delay, std::vector<SimTime>& delays_out)>;
  void SetNotifyFaultHook(NotifyFaultHook hook) {
    notify_fault_ = std::move(hook);
    has_notify_fault_ = static_cast<bool>(notify_fault_);
  }

  // Throws std::out_of_range when no port toward `rack` was added.
  FabricPort* port(RackId rack) { return &PortOrThrow(rack); }
  const FabricPort* port(RackId rack) const { return &PortOrThrow(rack); }

  std::uint64_t forwarded() const { return forwarded_; }
  std::uint64_t notifications_sent() const { return notifications_sent_; }

  // The switch-wide buffer pool (kSharedPool VOQs only; total_packets stays
  // zero when no port shares).
  const SharedBufferPool& shared_pool() const { return shared_pool_; }

  // Total notification generation latency accumulated for the most recent
  // NotifyHosts() call, per host (for §5.4 latency breakdowns).
  const std::vector<SimTime>& last_notify_latency() const {
    return last_notify_latency_;
  }

 private:
  struct HostPort {
    NodeId id;
    Link* downlink;
    PacketSink* control;
  };

  SimTime SampleGenDelay();

  // Resolved forwarding target: exactly one of the two is non-null. Resolve
  // throws std::logic_error for a local host that was never attached or a
  // remote rack with no fabric port.
  struct Route {
    Link* downlink = nullptr;
    FabricPort* port = nullptr;
  };
  Route Resolve(NodeId dst);
  FabricPort& PortOrThrow(RackId rack) const;

  Simulator& sim_;
  RackId rack_;
  std::uint32_t hosts_per_rack_;
  NotifyGenConfig notify_;
  Random rng_;
  std::vector<HostPort> hosts_;
  // Indexed by destination rack; null where no port was added.
  std::vector<std::unique_ptr<FabricPort>> ports_;
  SharedBufferPool shared_pool_;
  NotifyFaultHook notify_fault_;
  bool has_notify_fault_ = false;
  std::uint64_t forwarded_ = 0;
  std::uint64_t notifications_sent_ = 0;
  std::vector<SimTime> last_notify_latency_;
  // Scratch for NotifyHosts fault-hook delivery times (reused per host).
  std::vector<SimTime> deliveries_scratch_;
};

}  // namespace tdtcp
