#include "fault/fault_injector.hpp"

#include <algorithm>
#include <cinttypes>
#include <stdexcept>
#include <string>

namespace tdtcp {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDataLoss: return "data-loss";
    case FaultKind::kDataCorrupt: return "data-corrupt";
    case FaultKind::kBurstLoss: return "burst-loss";
    case FaultKind::kNotifyDrop: return "notify-drop";
    case FaultKind::kNotifyDelay: return "notify-delay";
    case FaultKind::kNotifyDuplicate: return "notify-dup";
    case FaultKind::kStallDrop: return "stall-drop";
    case FaultKind::kLinkDown: return "link-down";
    case FaultKind::kLinkUp: return "link-up";
    case FaultKind::kHostDown: return "host-down";
    case FaultKind::kHostUp: return "host-up";
  }
  return "?";
}

FaultInjector::FaultInjector(Simulator& sim, FaultPlan plan,
                             std::uint64_t run_seed)
    : sim_(sim),
      plan_(std::move(plan)),
      streams_(Random(run_seed).Fork(kFaultSeedSalt)) {}

void FaultInjector::Arm(Topology& topo) {
  if (armed_) throw std::logic_error("FaultInjector::Arm called twice");
  armed_ = true;
  const std::uint32_t racks = topo.config().num_racks;

  // One Gilbert-Elliott chain and one stream per faulted link. Indices are
  // assigned in a fixed construction order so the trace's `subject` field
  // (and the stream's id) is stable: fabric ports first (src-major), then
  // rack uplinks, then downlinks.
  std::uint32_t subject = 0;
  const auto add_link = [&] {
    links_.push_back(LinkState{
        false, streams_.Fork(StreamId(StreamKind::kLinkFault, subject))});
    return subject++;
  };

  for (RackId a = 0; a < racks; ++a) {
    for (RackId b = 0; b < racks; ++b) {
      if (a == b) continue;
      FabricPort* port = topo.port(a, b);
      audited_ports_.push_back(port);
      const std::uint32_t idx = add_link();
      if (!plan_.fabric.Empty()) {
        port->SetFaultFilter([this, idx, port](const Packet& p) {
          return RollLink(plan_.fabric, links_[idx], p, idx,
                          port->tx_start());
        });
      }
    }
  }
  for (RackId r = 0; r < racks; ++r) {
    for (Link* link : {topo.rack_uplink(r), topo.rack_downlink(r)}) {
      const std::uint32_t idx = add_link();
      if (!plan_.host_links.Empty()) {
        link->SetFaultFilter([this, idx, link](const Packet& p) {
          return RollLink(plan_.host_links, links_[idx], p, idx,
                          link->tx_start());
        });
      }
    }
  }

  if (!plan_.control.Empty()) {
    for (RackId r = 0; r < racks; ++r) {
      notify_rngs_.push_back(
          streams_.Fork(StreamId(StreamKind::kNotifyFault, r)));
      topo.tor(r)->SetNotifyFaultHook(
          [this, r](const Packet& icmp, SimTime base,
                    std::vector<SimTime>& out) {
            OnNotify(icmp, base, out, r);
          });
    }
  }

  for (const LinkDownWindow& w : plan_.link_downs) {
    if (w.rack >= racks || w.duration.IsZero()) continue;
    Link* link = w.uplink ? topo.rack_uplink(w.rack) : topo.rack_downlink(w.rack);
    const std::uint32_t rack = w.rack;
    sim_.ScheduleAtNoCancel(w.down_at, [this, link, rack] {
      link->set_enabled(false);
      ++stats_.link_transitions;
      Record(FaultKind::kLinkDown, 0, rack);
    });
    sim_.ScheduleAtNoCancel(w.down_at + w.duration, [this, link, rack] {
      link->set_enabled(true);
      ++stats_.link_transitions;
      Record(FaultKind::kLinkUp, 0, rack);
    });
  }

  for (const HostDownWindow& w : plan_.host_downs) {
    if (w.rack >= racks || w.host_index >= topo.config().hosts_per_rack) {
      continue;
    }
    Host* host = topo.host(w.rack, w.host_index);
    const std::uint32_t node = host->id();
    sim_.ScheduleAtNoCancel(w.down_at, [this, host, node] {
      host->set_nic_enabled(false);
      ++stats_.host_transitions;
      Record(FaultKind::kHostDown, 0, node);
    });
    if (!w.duration.IsZero()) {
      sim_.ScheduleAtNoCancel(w.down_at + w.duration, [this, host, node] {
        host->set_nic_enabled(true);
        ++stats_.host_transitions;
        Record(FaultKind::kHostUp, 0, node);
      });
    }
  }

  if (!plan_.audit_interval.IsZero()) ScheduleAudit();
}

bool FaultInjector::RollLink(const LinkFaultSpec& spec, LinkState& link,
                             const Packet& p, std::uint32_t subject,
                             SimTime at) {
  Random& rng = link.rng;
  if (spec.gilbert_elliott) {
    // Advance the chain once per packet, then roll the state's loss prob.
    if (link.bad) {
      if (rng.Bernoulli(spec.ge_p_bad_to_good)) link.bad = false;
    } else if (rng.Bernoulli(spec.ge_p_good_to_bad)) {
      link.bad = true;
    }
    const double loss = link.bad ? spec.ge_loss_bad : spec.ge_loss_good;
    if (rng.Bernoulli(loss)) {
      ++stats_.burst_dropped;
      Record(FaultKind::kBurstLoss, p.id, subject, at);
      return true;
    }
  }
  if (rng.Bernoulli(spec.loss_rate)) {
    ++stats_.data_dropped;
    Record(FaultKind::kDataLoss, p.id, subject, at);
    return true;
  }
  if (rng.Bernoulli(spec.corrupt_rate)) {
    ++stats_.data_corrupted;
    Record(FaultKind::kDataCorrupt, p.id, subject, at);
    return true;
  }
  return false;
}

bool FaultInjector::InStall(SimTime t) const {
  for (const auto& w : plan_.control.stalls) {
    if (t >= w.from && t < w.until) return true;
  }
  return false;
}

void FaultInjector::OnNotify(const Packet& icmp, SimTime base_delay,
                             std::vector<SimTime>& delays_out,
                             std::uint32_t rack) {
  const ControlFaultSpec& c = plan_.control;
  Random& rng = notify_rngs_[rack];
  if (InStall(sim_.now())) {
    ++stats_.stall_dropped;
    Record(FaultKind::kStallDrop, icmp.id, rack);
    return;  // no deliveries: the reconfiguration happens silently
  }
  if (rng.Bernoulli(c.notify_loss_rate)) {
    ++stats_.notifications_dropped;
    Record(FaultKind::kNotifyDrop, icmp.id, rack);
    return;
  }
  SimTime when = base_delay;
  if (!c.notify_delay_mean.IsZero()) {
    when = when + SimTime::Picos(static_cast<std::int64_t>(
                      rng.Exponential(static_cast<double>(
                          c.notify_delay_mean.picos()))));
  }
  if (!c.notify_delay_jitter.IsZero()) {
    when = when + rng.UniformTime(SimTime::Zero(), c.notify_delay_jitter);
  }
  if (when != base_delay) {
    ++stats_.notifications_delayed;
    Record(FaultKind::kNotifyDelay, icmp.id, rack);
  }
  delays_out.push_back(when);
  if (rng.Bernoulli(c.notify_duplicate_rate)) {
    ++stats_.notifications_duplicated;
    Record(FaultKind::kNotifyDuplicate, icmp.id, rack);
    // The duplicate trails the original slightly, as a retransmitted or
    // misrouted copy would.
    delays_out.push_back(when + SimTime::Micros(1));
  }
}

void FaultInjector::Record(FaultKind kind, std::uint64_t packet_id,
                           std::uint32_t subject, SimTime at) {
  hash_.Mix(static_cast<std::uint64_t>(at.picos()));
  hash_.Mix(static_cast<std::uint64_t>(kind));
  hash_.Mix(packet_id);
  hash_.Mix(subject);
  const FaultEvent e{at, kind, packet_id, subject};
  if (recent_.size() < kRecentFaults) {
    recent_.push_back(e);
  } else {
    recent_[recorded_ % kRecentFaults] = e;
  }
  ++recorded_;
}

std::vector<FaultEvent> FaultInjector::RecentFaults() const {
  std::vector<FaultEvent> out;
  out.reserve(recent_.size());
  for (std::uint64_t i = recorded_ - recent_.size(); i < recorded_; ++i) {
    out.push_back(recent_[i % kRecentFaults]);
  }
  return out;
}

void FaultInjector::DumpRecentFaults(std::FILE* out,
                                     std::size_t last_n) const {
  const std::uint64_t shown = std::min<std::uint64_t>(last_n, recent_.size());
  std::fprintf(out,
               "recent fault trace (%" PRIu64 " of %" PRIu64 " events):\n",
               shown, recorded_);
  for (std::uint64_t i = recorded_ - shown; i < recorded_; ++i) {
    const FaultEvent& e = recent_[i % kRecentFaults];
    std::fprintf(out, "  t=%.3fus %s packet=%" PRIu64 " subject=%u\n",
                 static_cast<double>(e.at.picos()) / 1e6, FaultKindName(e.kind),
                 e.packet_id, e.subject);
  }
}

void FaultInjector::ScheduleAudit() {
  sim_.ScheduleNoCancel(plan_.audit_interval, [this] {
    Audit();
    ScheduleAudit();
  });
}

void FaultInjector::Audit() const {
  for (const FabricPort* port : audited_ports_) {
    const QueueDisc* voq = &port->voq();  // as of now: owed starts run first
    if (!voq->WithinBound()) {
      throw std::logic_error(
          "VOQ occupancy invariant violated: occupancy " +
          std::to_string(voq->occupancy()) + " exceeds bound (capacity " +
          std::to_string(voq->capacity()) + ") at t=" +
          std::to_string(sim_.now().picos()) + "ps");
    }
  }
}

}  // namespace tdtcp
