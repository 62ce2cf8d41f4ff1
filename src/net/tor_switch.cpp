#include "net/tor_switch.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace tdtcp {

ToRSwitch::ToRSwitch(Simulator& sim, RackId rack, std::uint32_t hosts_per_rack,
                     NotifyGenConfig notify, Random rng)
    : sim_(sim),
      rack_(rack),
      hosts_per_rack_(hosts_per_rack),
      notify_(notify),
      rng_(rng) {
  if (hosts_per_rack_ == 0) {
    throw std::invalid_argument("ToRSwitch: hosts_per_rack must be positive");
  }
}

void ToRSwitch::AttachHost(NodeId host, Link* downlink, PacketSink* control_sink) {
  hosts_.push_back(HostPort{host, downlink, control_sink});
}

FabricPort* ToRSwitch::AddRemoteRack(RackId rack, FabricPort::Config config,
                                     PacketSink* remote_tor) {
  const bool shares = config.voq.kind == QdiscKind::kSharedPool;
  if (shares) shared_pool_.total_packets = kSharedPoolPackets;
  auto port = std::make_unique<FabricPort>(
      sim_, std::move(config), remote_tor,
      rng_.Fork(StreamId(StreamKind::kFabricPort, rack)));
  FabricPort* raw = port.get();
  if (shares) raw->voq().AttachSharedPool(&shared_pool_);
  if (rack >= ports_.size()) ports_.resize(static_cast<std::size_t>(rack) + 1);
  ports_[rack] = std::move(port);
  return raw;
}

FabricPort& ToRSwitch::PortOrThrow(RackId rack) const {
  if (rack >= ports_.size() || ports_[rack] == nullptr) {
    throw std::out_of_range("ToRSwitch: no fabric port toward rack " +
                            std::to_string(rack));
  }
  return *ports_[rack];
}

ToRSwitch::Route ToRSwitch::Resolve(NodeId dst) {
  const RackId dst_rack = static_cast<RackId>(dst / hosts_per_rack_);
  if (dst_rack == rack_) {
    // Host slots are attached in id order, so the downlink index is
    // arithmetic, not a hash probe.
    const std::size_t idx = static_cast<std::size_t>(dst % hosts_per_rack_);
    if (idx >= hosts_.size() || hosts_[idx].id != dst) {
      throw std::logic_error("ToRSwitch: unknown local host " +
                             std::to_string(dst));
    }
    return Route{hosts_[idx].downlink, nullptr};
  }
  if (dst_rack >= ports_.size() || ports_[dst_rack] == nullptr) {
    throw std::logic_error("ToRSwitch: no fabric port for destination rack " +
                           std::to_string(dst_rack));
  }
  return Route{nullptr, ports_[dst_rack].get()};
}

void ToRSwitch::HandlePacket(Packet&& p) {
  ++forwarded_;
  const Route r = Resolve(p.dst);
  if (r.downlink != nullptr) {
    r.downlink->Enqueue(std::move(p));
  } else {
    r.port->Enqueue(std::move(p));
  }
}

SimTime ToRSwitch::SampleGenDelay() {
  if (notify_.cached_packet) {
    return rng_.LognormalTime(kNotifyGenCachedMedian, kNotifyGenCachedSigma);
  }
  return rng_.LognormalTime(notify_.gen_delay_fresh_median,
                            kNotifyGenFreshSigma);
}

void ToRSwitch::NotifyHosts(TdnId tdn, bool imminent, RackId peer,
                            std::uint64_t seq) {
  last_notify_latency_.assign(hosts_.size(), SimTime::Zero());
  SimTime accumulated = SimTime::Zero();
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    accumulated += SampleGenDelay();
    last_notify_latency_[i] = accumulated;

    Packet icmp;
    icmp.id = sim_.NextPacketId();
    icmp.type = PacketType::kTdnNotify;
    icmp.size_bytes = 64;
    icmp.dst = hosts_[i].id;
    icmp.notify_tdn = tdn;
    icmp.circuit_imminent = imminent;
    icmp.notify_peer = peer;
    icmp.notify_seq = seq;
    ++notifications_sent_;

    deliveries_scratch_.clear();
    if (has_notify_fault_) {
      notify_fault_(icmp, accumulated, deliveries_scratch_);
    } else {
      deliveries_scratch_.push_back(accumulated);
    }
    for (SimTime when : deliveries_scratch_) {
      // Each delivery owns a pooled copy of the ICMP, so the event captures
      // pointers instead of a whole Packet (which would not fit the inline
      // event buffer anyway).
      Packet* stashed = sim_.StashPacket(Packet(icmp));
      if (notify_.via_control_network) {
        PacketSink* sink = hosts_[i].control;
        sim_.ScheduleNoCancel(when + kNotifyControlDelay, [this, sink, stashed] {
          sink->HandlePacket(std::move(*stashed));
          sim_.ReleasePacket(stashed);
        });
      } else {
        // Data-plane delivery: the ICMP rides the (possibly busy) downlink.
        Link* down = hosts_[i].downlink;
        sim_.ScheduleNoCancel(when, [this, down, stashed] {
          down->Enqueue(std::move(*stashed));
          sim_.ReleasePacket(stashed);
        });
      }
    }
  }
}

}  // namespace tdtcp
