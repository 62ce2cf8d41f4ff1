// The TCP engine.
//
// One class implements every sender/receiver variant in the paper:
//   * classic single-path TCP (CUBIC, DCTCP, reTCP): one TdnState,
//     notifications ignored;
//   * TDTCP: N TdnStates, ToR notifications switch the active one, segments
//     carry TD_DATA_ACK TDN tags, the relaxed reordering heuristic and
//     per-TDN RTT filtering are active;
//   * MPTCP subflows: pinned to one network, carrying DSS mappings, driven
//     by the meta-connection in src/mptcp/ through a SubflowOwner.
//
// The engine mirrors the Linux machinery the paper modifies: a SACK
// scoreboard, the Open/Disorder/CWR/Recovery/Loss state machine
// (per TDN, as in Fig. 4), RACK-style time-based loss detection with
// TLP probes, RTO with exponential backoff, DSACK-based undo of spurious
// recoveries, and ECN (DCTCP-style per-packet echo).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "net/host.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "sim/timer_wheel.hpp"
#include "sim/vector_fifo.hpp"
#include "tcp/invariant_checker.hpp"
#include "tcp/recovery_agent.hpp"
#include "tcp/receive_buffer.hpp"
#include "tcp/rtt_estimator.hpp"
#include "tcp/send_queue.hpp"
#include "tcp/subflow_owner.hpp"
#include "tcp/tcp_config.hpp"
#include "tcp/types.hpp"
#include "tdtcp/congestion_control.hpp"
#include "tdtcp/reordering.hpp"
#include "tdtcp/tdn_manager.hpp"
#include "trace/tracepoints.hpp"

namespace tdtcp {

struct TcpStats {
  std::uint64_t segments_sent = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t fast_recoveries = 0;
  std::uint64_t tlp_probes = 0;
  std::uint64_t undo_events = 0;          // spurious recoveries rolled back
  std::uint64_t dsacks_received = 0;
  // Reordering accounting for Fig. 10: an event is an ACK whose SACK
  // processing leaves un-SACKed segments below the highest SACK; "marked"
  // counts segments the fast-retransmit logic declared lost.
  std::uint64_t reorder_events = 0;
  std::uint64_t reorder_hole_packets = 0;
  std::uint64_t reorder_marked_lost = 0;
  std::uint64_t cross_tdn_exemptions = 0;  // §3.4 holes left un-marked
  std::uint64_t rtt_samples_dropped = 0;   // §4.4 type-3 samples discarded
  std::uint64_t tdn_switches = 0;
  std::uint64_t tdn_inferred_switches = 0;  // recovered via data-path tags
  std::uint64_t tdn_reconfigs = 0;          // management-plane TDN-count changes
  std::uint64_t acks_received = 0;
  std::uint64_t bytes_received = 0;        // receiver-side delivered to app
  std::uint64_t duplicate_segments = 0;    // receiver-side dup arrivals
  std::uint64_t persist_probes = 0;        // zero-window probes sent
  std::uint64_t fins_sent = 0;             // FIN segments (first transmission)
  std::uint64_t fins_received = 0;         // peer FINs consumed in order
  std::uint64_t rsts_sent = 0;
  std::uint64_t rsts_received = 0;
  std::uint64_t synack_give_ups = 0;       // SYN-ACK cap hit, back to kListen
  // Host recovery agent (tcp/recovery_agent.hpp) interactions on this flow.
  std::uint64_t recovery_forced = 0;    // agent-forced early retransmits
  std::uint64_t recovery_rescued = 0;   // forced rtx later cumulatively acked
  std::uint64_t recovery_spurious = 0;  // forced rtx disproved by DSACK
};

// RFC 9293 state machine (TcpConnection::State). Values are stable trace IDs
// (kTcpStateChange arguments appear in checked-in fixtures): append, never
// reorder.
enum class TcpState : std::uint8_t {
  kClosed, kListen, kSynSent, kSynReceived, kEstablished,
  kFinWait1, kFinWait2, kClosing, kTimeWait, kCloseWait, kLastAck,
};

// Every per-lifecycle scalar of a TcpConnection, at the value a lifecycle
// starts from. The constructor default-initializes it and Reopen
// value-assigns a fresh one, so a field added here starts every lifecycle
// at its initializer without a second hand-kept list. Containers, which
// keep their capacity across reopens, and the owner's wiring (host, flow,
// config, hooks) live in TcpConnection itself.
struct TcpLifecycleVars {
  TcpState state_ = TcpState::kClosed;

  // Negotiated at handshake: both ends TD_CAPABLE with equal TDN counts.
  bool tdtcp_active_ = false;

  TdnChangePointer tdn_change_;
  bool tdn_pointer_pending_ = false;  // advance pointer at next transmission

  // --- sequence space (1-based; SYN occupies byte 0) ---------------------------
  std::uint64_t snd_una_ = 0;
  std::uint64_t snd_nxt_ = 0;

  // --- app data ------------------------------------------------------------------
  bool unlimited_data_ = false;
  std::uint64_t pending_bytes_ = 0;    // sum of the unsent chunks' bytes

  // --- peer flow control -----------------------------------------------------
  std::uint64_t peer_rwnd_ = 1ull << 30;

  // --- loss detection state -----------------------------------------------------
  SimTime rack_mstamp_ = SimTime::Zero();  // newest delivered tx timestamp
  TdnId rack_mstamp_tdn_ = 0;
  std::uint32_t prev_holes_ = 0;  // reordering-event edge detection
  TdnId ece_target_tdn_ = 0;

  // --- timers ---------------------------------------------------------------------
  std::uint32_t rto_backoff_ = 0;
  bool tlp_in_flight_ = false;
  std::uint32_t persist_backoff_ = 0;
  // True while the outstanding data is an unanswered zero-window probe.
  // Retransmissions of the probe ride the RTO timer, so the RTO give-up
  // path consults this to report the abort as kPersistTimeout (and to cap
  // it at max_persist_retries) instead of kRetryLimit.
  bool persist_probing_ = false;

  // --- teardown state ------------------------------------------------------------
  CloseReason close_reason_ = CloseReason::kNone;
  bool fin_pending_ = false;    // Close() called; FIN not yet on the wire
  bool fin_sent_ = false;       // our FIN occupies [fin_seq_, fin_seq_+1)
  std::uint64_t fin_seq_ = 0;
  bool fin_received_ = false;   // peer FIN seen (possibly out of order)
  std::uint64_t peer_fin_seq_ = 0;
  bool fin_consumed_ = false;   // peer FIN reached rcv_nxt: ACK covers it
  // Still owns the host demux entry and TDN listeners (never a subflow's).
  bool host_registered_ = false;
  std::uint32_t rto_retries_ = 0;  // consecutive data RTOs without progress

  // --- pacing ---------------------------------------------------------------------
  EventId pace_timer_ = kInvalidEventId;
  SimTime next_send_time_ = SimTime::Zero();

  // --- reTCP circuit echo tracking ---------------------------------------------
  bool last_circuit_echo_ = false;
  bool circuit_echo_seen_ = false;

  // --- data-path TDN inference (§3.2 robustness) ---------------------------------
  TdnId peer_tdn_candidate_ = kNoTdn;
  std::uint32_t peer_tdn_streak_ = 0;
  SimTime peer_tdn_first_ = SimTime::Zero();
  SimTime last_notify_time_ = SimTime::Zero();
  bool notify_seen_ = false;

  TcpStats stats_;
};

class TcpConnection : public PacketSink,
                      public Host::TdnListener,
                      private TcpLifecycleVars {
 public:
  using State = TcpState;

  // Receiver callback: an in-order byte range was delivered to the app.
  // `stream_seq` is the (1-based) TCP stream offset; when the segment
  // carried a DSS mapping, `dss_seq`/`has_dss` expose it for MPTCP.
  struct DeliverInfo {
    std::uint64_t stream_seq;
    std::uint32_t len;
    bool has_dss;
    std::uint64_t dss_seq;
  };
  using DeliverFn = std::function<void(const DeliverInfo&)>;

  // A non-null `owner` makes this MPTCP subflow `subflow` of that
  // meta-connection (tcp/subflow_owner.hpp). The connection shares
  // `config` and never writes to it. Throws std::invalid_argument on a null
  // host or config.
  TcpConnection(Simulator& sim, Host* host, FlowId flow, NodeId peer,
                std::shared_ptr<const TcpConfig> config,
                SubflowOwner* owner = nullptr, std::uint8_t subflow = 0);
  // A connection that owns its config alone.
  TcpConnection(Simulator& sim, Host* host, FlowId flow, NodeId peer,
                TcpConfig config, SubflowOwner* owner = nullptr,
                std::uint8_t subflow = 0)
      : TcpConnection(sim, host, flow, peer,
                      std::make_shared<const TcpConfig>(std::move(config)),
                      owner, subflow) {}
  ~TcpConnection() override;

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  // --- slot reuse (ChurnGenerator) ---------------------------------------------
  // What the destructor does, now: cancel every timer, leave the recovery
  // agent, the host's demux table and its TDN listener list. Idempotent; the
  // destructor of a retired connection does nothing more.
  void Retire();
  // Turns a retired connection into the one the constructor would build for
  // (host, flow, peer, config): every per-lifecycle scalar, the TDN state
  // sets, buffers and the checker start over, and every hook (closed,
  // deliver, tap, trace ring, fault trace) is detached. Containers keep
  // their capacity and a TDN keeps its congestion-control module when the
  // module's class is unchanged. The connection and its TdnManager now
  // share `config`; the previous one is released, and nothing is copied.
  // Connect() and Listen() still refuse a closed connection; only this
  // entry point reopens one. Throws std::logic_error on a subflow or on a
  // connection that is not kClosed and retired, std::invalid_argument on a
  // null host or config.
  void Reopen(Host* host, FlowId flow, NodeId peer,
              std::shared_ptr<const TcpConfig> config);

  // --- connection lifecycle --------------------------------------------------
  void Listen();
  void Connect();
  // Graceful close: no more application data; a FIN rides the normal
  // scoreboard/RTO machinery after everything buffered has been sent. Called
  // before the handshake completes, the intent is remembered and the FIN
  // follows the handshake (a lingering close, like a real socket close with
  // unsent data). Idempotent.
  void Close();
  // Immediate teardown: sends RST (when a sequence-synchronized state makes
  // one meaningful) and releases everything now.
  void Abort(CloseReason reason = CloseReason::kUserAbort);
  // Fired exactly once when the connection reaches kClosed with a definite
  // reason. The callback must not destroy the connection synchronously (it
  // runs inside packet/timer processing); defer reclamation with
  // sim.Schedule(0, ...).
  using ClosedFn = std::function<void(CloseReason)>;
  void SetClosedCallback(ClosedFn fn) { on_closed_ = std::move(fn); }

  // --- application data -------------------------------------------------------
  // Unlimited source (long-lived flow, as in §5.1).
  void SetUnlimitedData(bool unlimited);
  // Finite write of plain stream bytes.
  void AddAppData(std::uint64_t bytes);
  // MPTCP: append `len` bytes mapped at data-level sequence `dss_seq`.
  // Returns false — and queues nothing — once the FIN is on the wire or the
  // connection is closed; reinjection callers must route the range elsewhere.
  bool AddMappedData(std::uint32_t len, std::uint64_t dss_seq);

  // --- TDN control -------------------------------------------------------------
  // Host::TdnListener: the host's notification entry point.
  void OnTdnChange(TdnId tdn, bool imminent) override;
  // Management-plane TDN-count change: retire per-TDN state sets with
  // id >= live_tdns (TdnManager::RetireAbove).
  void OnTdnReconfig(std::uint32_t live_tdns) override;
  // §4.2: collapse an established TDTCP connection to regular TCP.
  void DowngradeToRegularTcp();

  // --- network entry point -----------------------------------------------------
  void HandlePacket(Packet&& p) override;

  // --- hooks -------------------------------------------------------------------
  void SetDeliverCallback(DeliverFn fn) { deliver_ = std::move(fn); }
  // Debug tap: observes every packet this endpoint sends/receives (the
  // counterpart of the paper artifact's Wireshark TDTCP dissector).
  enum class TapDirection : std::uint8_t { kTx, kRx };
  using TapFn = std::function<void(TapDirection, const Packet&)>;
  void SetPacketTap(TapFn fn) {
    tap_ = std::move(fn);
    // Hoisted emptiness flag: the per-packet paths test one bool instead of
    // probing the std::function's vtable pointer.
    has_tap_ = static_cast<bool>(tap_);
  }
  // Fault-trace context for invariant-violation reports (the armed
  // FaultInjector, when an experiment runs with a FaultPlan).
  void SetFaultTraceSource(const FaultTraceSource* src) { fault_trace_ = src; }
  const FaultTraceSource* fault_trace() const { return fault_trace_; }
  // Tracepoint sink (trace/tracepoints.hpp). Same hoisted-bool discipline as
  // the packet tap: the disabled fast path costs one predictable branch.
  // The TDN manager's tracepoints go to the same ring (TdnTrace()).
  void SetTraceRing(TraceRing* ring) {
    trace_ = ring;
    has_trace_ = ring != nullptr;
  }

  // --- introspection -----------------------------------------------------------
  State state() const { return state_; }
  CloseReason close_reason() const { return close_reason_; }
  static const char* StateName(State s);
  bool tdtcp_active() const { return tdtcp_active_; }
  std::uint64_t snd_una() const { return snd_una_; }
  std::uint64_t snd_nxt() const { return snd_nxt_; }
  std::uint64_t rcv_nxt() const { return rcv_buffer_.rcv_nxt(); }
  std::uint64_t bytes_acked() const;      // sender-side progress (all TDNs)
  std::uint64_t outstanding_bytes() const { return snd_nxt_ - snd_una_; }
  std::uint64_t unsent_buffered_bytes() const;
  TdnManager& tdns() { return tdns_; }
  const TdnManager& tdns() const { return tdns_; }
  const TcpStats& stats() const { return stats_; }
  const TcpConfig& config() const { return *config_; }
  const SendQueue& send_queue() const { return send_queue_; }
  FlowId flow() const { return flow_; }
  // An MPTCP subflow (built with a SubflowOwner).
  bool is_subflow() const { return owner_ != nullptr; }
  std::uint32_t rto_backoff() const { return rto_backoff_; }
  bool persist_timer_armed() const { return persist_entry_.armed(); }
  // Our FIN is on the wire: no further stream bytes (AddMappedData refuses),
  // so MPTCP failover must not pick this subflow as a reinjection target.
  bool fin_sent() const { return fin_sent_; }

  // Unacked data-level (DSS) ranges, lowest first — MPTCP reinjection scans
  // these to remap stranded data onto the active subflow.
  struct DssRange { std::uint64_t dss_seq; std::uint32_t len; };
  std::vector<DssRange> UnackedDssRanges() const;
  // DSS ranges scheduled onto this subflow but not yet transmitted (stuck in
  // the send buffer of a subflow whose path went away).
  std::vector<DssRange> PendingDssRanges() const;

  // --- host recovery agent hooks (tcp/recovery_agent.hpp) --------------------
  // Unacked data is on the wire and the connection is in a state the agent
  // may act on (synchronized, not persist-probing a zero window).
  bool RecoveryOutstanding() const;
  // Pessimistic RTT estimate for the agent's adaptive quiet threshold: the
  // slowest per-TDN sRTT, or the configured initial RTO before any sample.
  SimTime RecoveryRttHint() const;
  // Forces an early retransmit of the oldest unacked (un-SACKed) segment
  // through the ordinary scoreboard machinery — Karn-safe, per-TDN episode
  // accounting intact — and re-arms the RTO from the fresh transmission
  // WITHOUT bumping the exponential backoff. Returns false when nothing is
  // eligible (handshake, retransmission already in flight, FIN-less empty
  // queue). `quiet`/`threshold` only annotate the tracepoint.
  bool ForceRecoveryRetransmit(SimTime quiet, SimTime threshold);

 private:
  // Counts a DSACK-disproved forcing (stats + agent threshold adaptation).
  void CountSpuriousForcing();

  struct PendingChunk {
    std::uint64_t bytes;
    bool has_dss;
    std::uint64_t dss_seq;
  };

  // --- open / reopen -------------------------------------------------------------
  // The most elements a reopen keeps room for in each per-segment buffer
  // (scoreboard, out-of-order store, SACK ranges, unsent chunks): enough for
  // a one-segment flow's SYN, data and FIN, the most common churn cycle,
  // while a slot that once carried a long flow does not pin that flow's
  // footprint. Peak RSS grows with this bound times the retained
  // connections; per-call scratch is per thread and not bounded here
  // (DESIGN.md, "Churn slots reopen their connections").
  static constexpr std::size_t kMaxKeptOnReset = 4;
  // Registers with the host's recovery agent and (never for a subflow) the
  // host's demux table and TDN listener list.
  void Attach();

  // --- handshake ---------------------------------------------------------------
  void SendSyn();
  void ResendSynPacket();
  void OnSyn(const Packet& p);
  void OnSynAck(const Packet& p);
  void CompleteHandshake();
  // Satellite: SYN-ACK retransmit cap — drop the half-open attempt and
  // become a fresh listener again.
  void ResetToListen();

  // --- teardown ----------------------------------------------------------------
  // Hard-error guard for API misuse (Listen/Connect off kClosed): dump like
  // the invariant checker, then throw std::logic_error — release builds too.
  [[noreturn]] void LifecycleError(const char* api) const;
  bool InClosingFamily() const {
    return state_ == State::kFinWait1 || state_ == State::kFinWait2 ||
           state_ == State::kClosing || state_ == State::kTimeWait ||
           state_ == State::kCloseWait || state_ == State::kLastAck;
  }
  // A FIN has been queued (fin_pending_) and all buffered data is on the
  // wire: append the sequence-occupying FIN segment.
  void MaybeSendFin();
  // Peer FIN consumed in order at `fin_seq`: ACK it and advance the state
  // machine (passive close / simultaneous close / TIME_WAIT entry).
  void ConsumePeerFin();
  // Our FIN was cumulatively acked: FIN-WAIT-1 → FIN-WAIT-2 / CLOSING →
  // TIME_WAIT / LAST-ACK → CLOSED.
  void MaybeAdvanceCloseStates();
  void EnterTimeWait();
  void OnTimeWaitFire();
  void SendRst();
  void OnRst();
  void SendPureAck();
  bool CanTransmit() const {
    return state_ == State::kEstablished || state_ == State::kFinWait1 ||
           state_ == State::kCloseWait || state_ == State::kClosing ||
           state_ == State::kLastAck;
  }
  // Terminal transition: retire per-TDN accounting for every scoreboard
  // entry, cancel timers, deregister from the host, run the checker's kClose
  // recount, and fire ClosedFn exactly once.
  void ToClosed(CloseReason reason);
  // Cumulative-ACK value to advertise: rcv_nxt plus one once the peer's FIN
  // has been consumed (the FIN occupies a sequence byte).
  std::uint64_t AckValue() const {
    return rcv_buffer_.rcv_nxt() + (fin_consumed_ ? 1 : 0);
  }

  // --- sending ------------------------------------------------------------------
  void MaybeSend();
  // True when pacing defers transmission; arms the pace timer.
  bool PacingDefers();
  void NotePacedTransmission(std::uint32_t bytes);
  bool CanSendNewSegment() const;
  // `len_cap` caps the segment payload (0 = no cap); the persist path sends
  // 1-byte window probes through the regular segment machinery.
  void SendNewSegment(std::uint32_t len_cap = 0);
  bool RetransmitOneLost();
  void TransmitSegment(TxSegment& seg, bool is_retransmission);
  // Every packet this endpoint sends starts here: id (drawn first, so ids
  // keep their order), type, flow, destination, wire size, and a subflow's
  // path pin, index and MPTCP flag.
  Packet NewPacket(PacketType type, std::uint32_t size_bytes);
  // ...and leaves here: stamps sent_time, taps it, hands it to the host.
  void Emit(Packet&& p);

  // --- receiving ----------------------------------------------------------------
  void OnDataSegment(Packet&& p);
  void SendAck(const ReceiveBuffer::Result& result, const Packet& data);

  // --- ACK processing -----------------------------------------------------------
  void OnAckPacket(const Packet& p);
  std::uint32_t ProcessSackBlocks(const Packet& p);
  // ApplySack visitor body: per-TDN sacked_out accounting, lost-undo,
  // RACK mstamp advance, and SACK RTT sampling against `ack_tdn`.
  void NoteSackedSegment(TxSegment& seg, TdnId ack_tdn);
  void ProcessDsack(const SackBlock& block);
  // Returns true when the ACK retired at least one data segment that was
  // never retransmitted — the only ACKs Karn's algorithm lets reset the RTO
  // backoff.
  bool ProcessCumulativeAck(const Packet& p);
  // Takes `seg` out of its TDN's pipe counters (packets_out and each of
  // sacked/lost/retrans_out it is flagged in); returns that TDN's state.
  // Every path that drops a segment from the scoreboard goes through here.
  TdnState& RetireFromPipe(const TxSegment& seg);
  void DetectLosses(TdnId trigger_tdn, std::uint32_t newly_sacked);
  void MarkSegmentLost(TxSegment& seg);
  void AdvanceStateMachines(const Packet& p);
  void ProportionalRateReduction(TdnState& st, std::uint32_t newly_acked,
                                 std::uint32_t newly_sacked);
  void MaybeUndo(TdnState& st);

  // --- congestion transitions -----------------------------------------------
  void EnterRecovery(TdnState& st);
  void EnterCwr(TdnState& st);
  void EnterLoss(TdnState& st);

  // --- timers -------------------------------------------------------------------
  void ArmRto();
  void OnRtoFire();
  void ArmTlp();
  void OnTlpFire();
  // Zero-window persist timer (RFC 9293 §3.8.6.1): while the peer advertises
  // a zero window and nothing is in flight, probe with 1-byte segments under
  // exponential backoff instead of stalling forever.
  void ArmPersist();
  void CancelPersist();
  void OnPersistFire();
  void CancelTimers();
  SimTime RtoForSegment(const TxSegment& seg) const;

  // --- TDN switching / inference ---------------------------------------------
  // The switch itself (shared by notifications and data-path inference).
  void SwitchActiveTdn(TdnId tdn);
  // Observes the peer's TD_DATA_ACK tag on incoming traffic; infers a lost
  // notification when a mismatch streak outlives the reordering patience.
  void NotePeerTdn(TdnId tdn);

  // --- helpers ------------------------------------------------------------------
  TdnState& ActiveState() { return tdns_.active(); }
  TdnId ActiveTdn() const { return tdns_.active_id(); }
  bool IsCwndLimited() const;
  void NoteCircuitEcho(bool circuit);
  void RunChecker(TcpInvariantChecker::Event ev) {
    if (config_->invariant_checks) checker_.Check(*this, ev);
  }
  // Connection-state transition with its tracepoint.
  void SetState(State s);
  void Trace(TracePoint point, std::uint64_t a0 = 0, std::uint64_t a1 = 0,
             std::uint64_t a2 = 0, std::uint64_t a3 = 0) {
    if (has_trace_) {
      trace_->Emit(sim_.now().picos(), point, flow_, a0, a1, a2, a3);
    }
  }
  // Where a TdnManager call emits its tracepoints: this connection's ring,
  // flow and clock, or nowhere.
  TdnTraceSink TdnTrace() const {
    if (!has_trace_) return {};
    return {trace_, sim_.now().picos(), flow_};
  }

  Simulator& sim_;
  Host* host_;
  FlowId flow_;
  NodeId peer_;
  // Shared with every endpoint opened from the same config; tdns_ points
  // into it too.
  std::shared_ptr<const TcpConfig> config_;
  // MPTCP meta-connection; null for a plain connection.
  SubflowOwner* owner_;
  // Subflow index: the path the packets are pinned to (owner_ only).
  std::uint8_t subflow_;
  // Whether tap_ and trace_ are set (SetPacketTap, SetTraceRing); they sit
  // beside subflow_ to share its word.
  bool has_tap_ = false;
  bool has_trace_ = false;

  TdnManager tdns_;
  SendQueue send_queue_;
  ReceiveBuffer rcv_buffer_;

  // --- app data ------------------------------------------------------------------
  VectorFifo<PendingChunk> pending_;   // unsent application bytes

  // Scratch that lives only within one call (the per-ACK per-TDN rows) is
  // per thread, in tcp_connection.cpp, not here: a connection holds only
  // state that outlives a call.

  // --- timers ---------------------------------------------------------------------
  // RTO/TLP/persist/TimeWait live on the host's hierarchical timer wheel as
  // intrusive entries (zero steady-state allocation, O(1) rearm); only the
  // pace timer — fine-grained, sub-tick spacing — stays on the event heap.
  // The wheel auto-disarms an entry before invoking its trampoline, so the
  // `armed()` predicates match the old "EventId cleared in the lambda" flow.
  static void RtoTrampoline(void* c) {
    static_cast<TcpConnection*>(c)->OnRtoFire();
  }
  static void TlpTrampoline(void* c) {
    static_cast<TcpConnection*>(c)->OnTlpFire();
  }
  static void PersistTrampoline(void* c) {
    static_cast<TcpConnection*>(c)->OnPersistFire();
  }
  static void TimeWaitTrampoline(void* c) {
    static_cast<TcpConnection*>(c)->OnTimeWaitFire();
  }
  TimerWheel::Timer rto_entry_;
  TimerWheel::Timer tlp_entry_;
  TimerWheel::Timer persist_entry_;
  TimerWheel::Timer time_wait_entry_;

  // --- host recovery agent ---------------------------------------------------
  RecoveryAgent* recovery_agent_ = nullptr;  // host's agent at (re)open
  RecoveryAgent::Node recovery_node_;
  // [seq, end_seq) of forced segments already retired by a cumulative ACK,
  // so a late DSACK can still reclassify the forcing as spurious. Bounded;
  // oldest entries are dropped.
  static constexpr std::size_t kMaxForcedRetired = 64;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> forced_retired_;

  // --- invariant checking / fault context ---------------------------------------
  // Runs only with config_->invariant_checks.
  TcpInvariantChecker checker_;
  const FaultTraceSource* fault_trace_ = nullptr;

  // --- callbacks -------------------------------------------------------------------
  DeliverFn deliver_;
  TapFn tap_;
  TraceRing* trace_ = nullptr;
  ClosedFn on_closed_;
  // MPTCP: DSS ranges stranded when an aborted subflow's scoreboard was
  // released — the meta-connection reinjects them onto a survivor.
  std::vector<DssRange> orphaned_dss_;
};

}  // namespace tdtcp
