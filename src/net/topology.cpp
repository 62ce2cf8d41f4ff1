#include "net/topology.hpp"

#include <string>

namespace tdtcp {

Topology::Topology(Simulator& sim, const Random& rng,
                   const TopologyConfig& config)
    : config_(config) {
  const std::uint32_t total_hosts = config.num_racks * config.hosts_per_rack;
  hosts_.reserve(total_hosts);
  for (NodeId id = 0; id < total_hosts; ++id) {
    hosts_.push_back(std::make_unique<Host>(sim, id));
    hosts_.back()->set_notify_distribution(config.notify_dist);
  }

  tors_.reserve(config.num_racks);
  for (RackId r = 0; r < config.num_racks; ++r) {
    // The builder numbers hosts rack-major and attaches them in id order,
    // which is what the ToR's arithmetic routing assumes.
    tors_.push_back(std::make_unique<ToRSwitch>(
        sim, r, config.hosts_per_rack, config.notify,
        rng.Fork(StreamId(StreamKind::kToR, r))));
  }

  // Rack machine NICs (shared by all hosts in the rack, per Fig. 6).
  Link::Config host_link;
  host_link.rate_bps = config.host_link_rate_bps;
  host_link.propagation = kHostLinkDelay;
  host_link.queue = config.host_queue;

  for (RackId r = 0; r < config.num_racks; ++r) {
    Link::Config up = host_link;
    up.name = "rack" + std::to_string(r) + "-up";
    links_.push_back(std::make_unique<Link>(
        sim, up, tors_[r].get(),
        rng.Fork(StreamId(StreamKind::kRackUplink, r))));
    Link* uplink = links_.back().get();
    uplinks_.push_back(uplink);

    demuxes_.push_back(std::make_unique<RackDemux>(this));
    Link::Config down = host_link;
    down.name = "rack" + std::to_string(r) + "-down";
    links_.push_back(std::make_unique<Link>(
        sim, down, demuxes_.back().get(),
        rng.Fork(StreamId(StreamKind::kRackDownlink, r))));
    Link* downlink = links_.back().get();
    downlinks_.push_back(downlink);

    for (std::uint32_t i = 0; i < config.hosts_per_rack; ++i) {
      Host* h = host(r, i);
      h->AttachUplink(uplink);
      tors_[r]->AttachHost(h->id(), downlink, h);
    }
  }

  // Full mesh of fabric ports between racks, starting on the packet network.
  for (RackId a = 0; a < config.num_racks; ++a) {
    for (RackId b = 0; b < config.num_racks; ++b) {
      if (a == b) continue;
      FabricPort::Config fp;
      fp.voq = config.voq;
      fp.initial_mode = config.packet_mode;
      fp.reorder_jitter = config.fabric_reorder_jitter;
      fp.name = "fabric" + std::to_string(a) + "-" + std::to_string(b);
      tors_[a]->AddRemoteRack(b, fp, tors_[b].get());
    }
  }
}

}  // namespace tdtcp
