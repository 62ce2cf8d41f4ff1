#include "net/host.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace tdtcp {

void Host::Send(Packet&& p) {
  if (uplink_ == nullptr) {
    throw std::logic_error("Host " + std::to_string(id_) +
                           ": Send with no uplink attached");
  }
  if (!nic_enabled_) {
    ++dropped_nic_down_;
    return;
  }
  p.src = id_;
  uplink_->Enqueue(std::move(p));
}

void Host::set_nic_enabled(bool enabled) {
  if (enabled == nic_enabled_) return;
  nic_enabled_ = enabled;
  if (has_trace_) {
    trace_->Emit(sim_.now().picos(), TracePoint::kHostNicState,
                 /*flow=*/0, enabled ? 1 : 0, 0, 0, id_);
  }
}

void Host::HandlePacket(Packet&& p) {
  if (!nic_enabled_) {
    ++dropped_nic_down_;
    return;
  }
  if (p.type == PacketType::kTdnNotify) {
    if (p.notify_seq != 0) {
      // Sequenced notification: apply it only if it is newer than the last
      // one seen for this peer scope. This makes duplicated, reordered, and
      // stale control-plane deliveries idempotent (§3.2) without the flows
      // ever seeing them.
      std::uint64_t& last = LastNotifySeq(p.notify_peer);
      if (p.notify_seq <= last) {
        ++stale_notifications_dropped_;
        if (has_trace_) {
          trace_->Emit(sim_.now().picos(), TracePoint::kHostNotifyStale,
                       /*flow=*/0, p.notify_tdn, p.notify_seq,
                       p.circuit_imminent, id_);
        }
        return;
      }
      last = p.notify_seq;
    }
    if (has_trace_) {
      trace_->Emit(sim_.now().picos(), TracePoint::kHostNotifyRx,
                   /*flow=*/0, p.notify_tdn, p.notify_seq,
                   p.circuit_imminent, id_);
    }
    DistributeTdn(p.notify_tdn, p.circuit_imminent, p.notify_peer);
    return;
  }
  PacketSink* endpoint = endpoints_.Find(p.flow);
  if (endpoint == nullptr) {
    ++dropped_no_endpoint_;
    // RFC 9293: a segment aimed at a closed endpoint gets RST — unless it is
    // itself an RST (never answer RST with RST, or two dead ends ping-pong
    // forever). The peer's connection aborts with kPeerReset instead of
    // retransmitting into the void.
    if (!p.rst && p.src != kInvalidNode) {
      Packet rst;
      rst.id = sim_.NextPacketId();
      rst.type = PacketType::kData;
      rst.rst = true;
      rst.flow = p.flow;
      rst.dst = p.src;
      rst.seq = p.ack;
      rst.size_bytes = 60;
      rst.pinned_path = p.pinned_path;
      rst.subflow = p.subflow;
      rst.is_mptcp = p.is_mptcp;
      rst.sent_time = sim_.now();
      ++rsts_sent_;
      Send(std::move(rst));
    }
    return;
  }
  endpoint->HandlePacket(std::move(p));
}

std::uint64_t& Host::LastNotifySeq(RackId peer) {
  if (peer == kAllRacks) return last_notify_seq_all_;
  if (peer >= last_notify_seq_.size()) {
    last_notify_seq_.resize(static_cast<std::size_t>(peer) + 1, 0);
  }
  return last_notify_seq_[peer];
}

void Host::DistributeTdn(TdnId tdn, bool imminent, RackId peer) {
  const auto matches = [peer](const ListenerEntry& l) {
    return peer == kAllRacks || l.peer_rack == kAllRacks ||
           l.peer_rack == peer;
  };
  if (notify_.pull_model) {
    // Flows read a shared variable: all see the new TDN at once.
    for (const ListenerEntry& l : tdn_listeners_) {
      if (matches(l)) l.listener->OnTdnChange(tdn, imminent);
    }
    return;
  }
  // Push model: the kernel walks the flow list; flow i learns the new TDN
  // i staggers later ("unlucky flows which see the TDN update after others
  // get less time to send", §5.4).
  for (std::size_t i = 0; i < tdn_listeners_.size(); ++i) {
    if (!matches(tdn_listeners_[i])) continue;
    TdnListener* listener = tdn_listeners_[i].listener;
    sim_.ScheduleNoCancel(notify_.push_stagger * static_cast<std::int64_t>(i),
                          [this, listener, tdn, imminent] {
                            // Removed before its slot: never called.
                            for (const ListenerEntry& l : tdn_listeners_) {
                              if (l.listener != listener) continue;
                              listener->OnTdnChange(tdn, imminent);
                              return;
                            }
                          });
  }
}

}  // namespace tdtcp
