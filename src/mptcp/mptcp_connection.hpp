// Multipath TCP with the paper's `tdm_schd` scheduler (§2.2).
//
// The meta-connection owns one subflow per network, each pinned to its path
// (subflow 0 → packet network, subflow 1 → optical circuit), each a full
// TcpConnection with its own sequence space. New application data is mapped
// into the data-sequence (DSS) space and steered to whichever subflow's
// network the RDCN schedule currently provides. Subflow ACKs piggyback a
// DATA_ACK (dss_ack) that frees the bounded meta send buffer.
//
// The stall mechanism the paper measures arises structurally: tail segments
// sent on the optical subflow right before circuit teardown sit stashed at
// the ToR (their path is pinned and inactive), so the DATA_ACK stops
// advancing, the meta send buffer fills, and the sender cannot push new data
// on the now-active packet subflow until connection-level reinjection remaps
// the stranded DSS range onto it — at the cost of duplicate transmissions.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/host.hpp"
#include "net/node.hpp"
#include "sim/simulator.hpp"
#include "tcp/receive_buffer.hpp"
#include "tcp/subflow_owner.hpp"
#include "tcp/tcp_connection.hpp"

namespace tdtcp {

class MptcpConnection : public PacketSink,
                        private Host::TdnListener,
                        private SubflowOwner {
 public:
  struct Config {
    TcpConfig subflow;                 // base subflow configuration
    std::uint32_t num_subflows = 2;    // subflow i is pinned to path i
  };

  // Meta-level send buffer: unacked-at-meta data is bounded by this, which
  // is what turns a stalled DATA_ACK (hole parked on a dead subflow) into a
  // transmission stall a few hundred microseconds later.
  static constexpr std::uint64_t kMetaSndBufBytes = 128 * 8940;
  // Meta-level receive buffer shared by all subflows (Linux-scale, MBs). A
  // data-sequence hole lets in-order-at-subflow data pile up here; if it
  // ever fills, the advertised meta window closes — §3.3's flow-control
  // stall. The send buffer usually binds first.
  static constexpr std::uint64_t kMetaRcvBufBytes = 512 * 8940;
  // How long the scheduler tolerates a stall before reinjecting, and how
  // many segments one reinjection pass remaps. The delay approximates the
  // subflow-RTO-scale trigger of the reference implementation.
  static constexpr SimTime kReinjectDelay = SimTime::Micros(500);
  static constexpr std::uint32_t kReinjectBurstSegments = 8;
  // Keep this many unsent segments queued per active subflow.
  static constexpr std::uint32_t kSubflowQueueSegments = 2;

  struct Stats {
    std::uint64_t scheduled_segments = 0;
    std::uint64_t reinjections = 0;
    std::uint64_t reinjected_bytes = 0;
    std::uint64_t stall_checks = 0;
    std::uint64_t meta_duplicates = 0;  // receiver-side DSS dups discarded
    std::uint64_t zero_window_acks = 0; // flow-control stall evidence
    std::uint64_t subflow_aborts = 0;   // subflows closed abnormally
    std::uint64_t abort_reinjections = 0;  // DSS ranges rescued from them
    // Stranded DSS ranges no survivor could accept (none left, or the only
    // candidates had their FIN on the wire): data the meta lost, not rescued.
    std::uint64_t unrescued_ranges = 0;
    std::uint64_t unrescued_bytes = 0;
  };

  // Throws std::invalid_argument unless 1 <= num_subflows <= 8.
  MptcpConnection(Simulator& sim, Host* host, FlowId flow, NodeId peer,
                  Config config);
  ~MptcpConnection() override;

  void Listen();
  void Connect();
  void SetUnlimitedData(bool unlimited);

  // Graceful meta close: every subflow sends its FIN through the normal
  // machinery. The meta reaches kClosed — and ClosedFn fires — once the last
  // subflow does. An aborted subflow (RST, retry cap) hands its stranded DSS
  // ranges to a survivor before the meta gives up on them.
  void Close();
  void Abort(CloseReason reason = CloseReason::kUserAbort);
  using ClosedFn = TcpConnection::ClosedFn;
  // Same contract as TcpConnection::SetClosedCallback: the callback must not
  // destroy the meta-connection synchronously.
  void SetClosedCallback(ClosedFn fn) { on_closed_ = std::move(fn); }
  bool closed() const { return closed_subflows_ == subflows_.size(); }
  // kNormal when every subflow closed gracefully; otherwise the first
  // abnormal subflow reason (kNone while any subflow is still open).
  CloseReason close_reason() const;

  void HandlePacket(Packet&& p) override;

  // Sender-side meta progress: DSS bytes cumulatively DATA_ACKed.
  std::uint64_t meta_bytes_acked() const { return dss_una_ - 1; }
  // Receiver-side meta progress: DSS bytes delivered in order to the app.
  std::uint64_t meta_bytes_delivered() const { return meta_rcv_.rcv_nxt() - 1; }

  TcpConnection* subflow(std::uint32_t i) { return subflows_[i].get(); }
  std::uint32_t active_subflow() const { return active_subflow_; }
  const Stats& stats() const { return mp_stats_; }

  // Aggregate reordering stats across subflows (Fig. 10's MPTCP line).
  std::uint64_t reorder_events() const;
  std::uint64_t reorder_marked_lost() const;
  // Sender- and receiver-side totals across subflows.
  std::uint64_t retransmissions() const;
  std::uint64_t duplicate_segments() const;

 private:
  // Host::TdnListener: tdm_schd steers to the subflow of the active TDN.
  void OnTdnChange(TdnId tdn, bool imminent) override;
  void OnSubflowClosed(std::uint32_t idx, CloseReason reason);
  // Remap DSS ranges stranded on a dead subflow onto a surviving one.
  void ReinjectOrphans(std::uint32_t dead_idx);
  TcpConnection* FindSurvivor(std::uint32_t excluding);
  // SubflowOwner (tcp/subflow_owner.hpp): what the subflows ask of and
  // report to the meta.
  std::uint64_t MetaAck() const override { return meta_rcv_.rcv_nxt(); }
  std::uint64_t MetaWindow() const override;
  void OnMetaAck(std::uint64_t dss_ack, std::uint64_t dss_rwnd) override;
  void TrySchedule() override;
  void OnSubflowDeliver(const TcpConnection::DeliverInfo& info);
  void ArmReinjectTimer();
  void MaybeReinject();
  std::uint64_t MetaWindowUsed() const { return dss_next_ - dss_una_; }

  Simulator& sim_;
  Host* host_;
  FlowId flow_;
  Config config_;
  std::vector<std::unique_ptr<TcpConnection>> subflows_;
  std::uint32_t active_subflow_ = 0;
  bool unlimited_ = false;

  // Sender meta state (DSS space is 1-based like the stream space).
  std::uint64_t dss_next_ = 1;
  std::uint64_t dss_una_ = 1;
  std::uint64_t peer_meta_wnd_ = 1ull << 30;

  // Receiver meta reassembly.
  ReceiveBuffer meta_rcv_;

  EventId reinject_timer_ = kInvalidEventId;
  SimTime last_progress_;

  // Teardown: count of subflows at kClosed, first abnormal reason seen.
  std::uint32_t closed_subflows_ = 0;
  CloseReason abnormal_reason_ = CloseReason::kNone;
  ClosedFn on_closed_;

  Stats mp_stats_;
};

}  // namespace tdtcp
