// An end host: NIC uplink to its ToR, endpoint (socket) registry, and the
// kernel-side TDN-notification distribution model from §5.4.
#pragma once

#include <cstdint>
#include <vector>

#include "net/flow_table.hpp"
#include "net/link.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "sim/timer_wheel.hpp"
#include "trace/tracepoints.hpp"

namespace tdtcp {

// Defined in src/tcp (a layer above); the host only stores the pointer so
// connections on this host can find their shared recovery agent.
class RecoveryAgent;

// How the host kernel distributes a freshly received TDN ID to its flows.
// "Push" loops over established flows one by one (each successive flow sees
// the update `push_stagger` later); "pull" publishes a global variable that
// every flow reads immediately (§5.4's 3-orders-of-magnitude optimization).
struct NotifyDistribution {
  bool pull_model = true;
  SimTime push_stagger = SimTime::Micros(4);
};

class Host : public PacketSink {
 public:
  // A flow that hears this host's TDN changes. Connections, MPTCP metas and
  // the trace recorder implement it and register once (AddTdnListener).
  class TdnListener {
   public:
    // The active TDN changed. `imminent` is the reTCPdyn advance notice
    // (circuit coming up shortly).
    virtual void OnTdnChange(TdnId tdn, bool imminent) = 0;
    // Management-plane TDN-count reconfiguration (ScheduleChange::live_tdns):
    // unlike the data-plane TDN notifications this is not a lossy ICMP — the
    // controller's management network tells every host synchronously how
    // many TDNs the new schedule has, and connections retire the rest.
    virtual void OnTdnReconfig(std::uint32_t /*live_tdns*/) {}

   protected:
    ~TdnListener() = default;
  };

  Host(Simulator& sim, NodeId id) : sim_(sim), id_(id), wheel_(sim) {}

  NodeId id() const { return id_; }

  // Per-host hierarchical timer wheel: every connection's RTO/TLP/persist/
  // TimeWait timer is an intrusive entry here instead of a heap event.
  TimerWheel& wheel() { return wheel_; }

  // Host-level shared recovery agent (src/tcp/recovery_agent.hpp), or null.
  // Connections consult this at construction and register themselves.
  void SetRecoveryAgent(RecoveryAgent* agent) { recovery_agent_ = agent; }
  RecoveryAgent* recovery_agent() const { return recovery_agent_; }

  void AttachUplink(Link* up) { uplink_ = up; }

  // Sockets register to receive packets addressed to this host's flow.
  // Re-registering a flow replaces its endpoint. Throws
  // std::invalid_argument on a null endpoint.
  void RegisterEndpoint(FlowId flow, PacketSink* endpoint) {
    endpoints_.Insert(flow, endpoint);
  }
  // `endpoint` guards against the churn race where a closed connection's
  // deferred teardown would evict a new connection that reused its FlowId:
  // only the sink that owns the entry may remove it (nullptr = any owner).
  void UnregisterEndpoint(FlowId flow, PacketSink* endpoint = nullptr) {
    endpoints_.Erase(flow, endpoint);
  }
  std::size_t num_endpoints() const { return endpoints_.size(); }
  std::size_t num_tdn_listeners() const { return tdn_listeners_.size(); }

  // Flow-ordered: the i-th registered listener is the i-th established flow
  // the push model iterates over. `peer_rack` filters per-destination
  // notifications (multi-rack fabrics); kAllRacks listeners hear everything,
  // and fabric-wide notifications reach every listener. Reconfigs reach
  // every listener, in registration order.
  //
  // Iteration rule: delivery walks the list in place, so no listener may
  // add or remove a listener from inside OnTdnChange or OnTdnReconfig.
  // A push-model slot is a deferred event, not a delivery in progress: a
  // listener removed before its slot fires is skipped.
  void AddTdnListener(TdnListener* listener, RackId peer_rack = kAllRacks) {
    tdn_listeners_.push_back({listener, peer_rack});
  }
  void RemoveTdnListener(const TdnListener* listener) {
    std::erase_if(tdn_listeners_,
                  [listener](const auto& e) { return e.listener == listener; });
  }
  void DistributeTdnReconfig(std::uint32_t live_tdns) {
    for (const auto& e : tdn_listeners_) e.listener->OnTdnReconfig(live_tdns);
  }

  void set_notify_distribution(NotifyDistribution d) { notify_ = d; }

  // Transmit a packet from a local socket out the NIC. Throws
  // std::logic_error when no uplink is attached.
  void Send(Packet&& p);

  // Packet arriving from the ToR (or control network).
  void HandlePacket(Packet&& p) override;

  std::uint64_t dropped_no_endpoint() const { return dropped_no_endpoint_; }
  std::uint64_t rsts_sent() const { return rsts_sent_; }

  // FaultKind::kHostDown model: the NIC dies (both directions drop silently)
  // but the host's kernel timers keep running, so local connections march
  // through their retry caps and abort deterministically.
  void set_nic_enabled(bool enabled);
  bool nic_enabled() const { return nic_enabled_; }
  std::uint64_t dropped_nic_down() const { return dropped_nic_down_; }

  // Sequenced notifications (Packet::notify_seq != 0) filtered because a
  // newer one for the same peer scope was already applied -- duplicates,
  // reordered stragglers, and stale retransmissions all land here (§3.2).
  std::uint64_t stale_notifications_dropped() const {
    return stale_notifications_dropped_;
  }

  // Tracepoint sink: notification receipt/dedup emit kHostNotifyRx /
  // kHostNotifyStale (flow 0, host id in a3).
  void SetTraceRing(TraceRing* ring) {
    trace_ = ring;
    has_trace_ = ring != nullptr;
    wheel_.SetTrace(ring, id_);
  }

 private:
  struct ListenerEntry {
    TdnListener* listener;
    RackId peer_rack;
  };

  void DistributeTdn(TdnId tdn, bool imminent, RackId peer);
  std::uint64_t& LastNotifySeq(RackId peer);

  Simulator& sim_;
  NodeId id_;
  TimerWheel wheel_;
  RecoveryAgent* recovery_agent_ = nullptr;
  Link* uplink_ = nullptr;
  FlowTable endpoints_;
  std::vector<ListenerEntry> tdn_listeners_;
  NotifyDistribution notify_;
  std::uint64_t dropped_no_endpoint_ = 0;
  std::uint64_t rsts_sent_ = 0;
  bool nic_enabled_ = true;
  std::uint64_t dropped_nic_down_ = 0;
  // Highest applied notify_seq per peer scope: indexed by peer rack, grown
  // on first use; the fabric-wide scope (kAllRacks) has its own slot.
  std::vector<std::uint64_t> last_notify_seq_;
  std::uint64_t last_notify_seq_all_ = 0;
  std::uint64_t stale_notifications_dropped_ = 0;
  TraceRing* trace_ = nullptr;
  bool has_trace_ = false;
};

}  // namespace tdtcp
