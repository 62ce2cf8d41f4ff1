#include "tcp/tcp_connection.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace tdtcp {

namespace {

// What one ACK newly acked and SACKed on one TDN, and the RTT sample it took
// there: OnAckPacket fills one row per TDN, AdvanceStateMachines reads them.
struct AckRow {
  std::uint32_t acked_pkts = 0;
  std::uint32_t sacked_pkts = 0;
  std::uint64_t acked_bytes = 0;
  SimTime rtt = SimTime::Zero();
};

// Per-call scratch of OnAckPacket, through AdvanceStateMachines: one copy
// per thread instead of one per connection. It is dead once the call that
// fills it returns, and nothing between the fill and the last read enters
// another connection's ACK path (packets leave through links, whose
// arrivals are events), so connections on one thread cannot see each
// other's values; threads (sweep workers) each have their own.
thread_local std::vector<AckRow> t_ack_rows;

// The state sets a connection with `config` starts with.
std::uint32_t InitialTdns(const TcpConfig& config) {
  return config.tdtcp_enabled ? config.num_tdns : 1;
}

// `config`, checked before the TdnManager reads it.
std::shared_ptr<const TcpConfig> NonNull(
    std::shared_ptr<const TcpConfig> config, FlowId flow) {
  if (config == nullptr) {
    throw std::invalid_argument("TcpConnection on flow " +
                                std::to_string(flow) + ": null config");
  }
  return config;
}

}  // namespace

TcpConnection::TcpConnection(Simulator& sim, Host* host, FlowId flow,
                             NodeId peer,
                             std::shared_ptr<const TcpConfig> config,
                             SubflowOwner* owner, std::uint8_t subflow)
    : sim_(sim), host_(host), flow_(flow), peer_(peer),
      config_(NonNull(std::move(config), flow)), owner_(owner),
      subflow_(subflow), tdns_(InitialTdns(*config_), *config_) {
  if (host_ == nullptr) {
    throw std::invalid_argument("TcpConnection on flow " +
                                std::to_string(flow_) + ": null host");
  }
  rto_entry_.Init(this, &RtoTrampoline);
  tlp_entry_.Init(this, &TlpTrampoline);
  persist_entry_.Init(this, &PersistTrampoline);
  time_wait_entry_.Init(this, &TimeWaitTrampoline);
  Attach();
}

TcpConnection::~TcpConnection() { Retire(); }

void TcpConnection::Attach() {
  recovery_agent_ = host_->recovery_agent();
  if (recovery_agent_ != nullptr) {
    recovery_agent_->Register(*this, recovery_node_);
  }
  // A subflow's meta-connection owns the flow demux entry, and tdm_schd is
  // driven by the meta's notifications.
  if (owner_ == nullptr) {
    host_->RegisterEndpoint(flow_, this);
    host_->AddTdnListener(this, config_->peer_rack);
    host_registered_ = true;
  }
}

void TcpConnection::Retire() {
  CancelTimers();
  if (recovery_agent_ != nullptr) recovery_agent_->Deregister(recovery_node_);
  if (host_registered_) {
    host_->UnregisterEndpoint(flow_, this);
    host_->RemoveTdnListener(this);
    host_registered_ = false;
  }
}

void TcpConnection::Reopen(Host* host, FlowId flow, NodeId peer,
                           std::shared_ptr<const TcpConfig> config) {
  if (host == nullptr || config == nullptr) {
    throw std::invalid_argument("TcpConnection::Reopen on flow " +
                                std::to_string(flow) + ": null " +
                                (host == nullptr ? "host" : "config"));
  }
  if (owner_ != nullptr || state_ != State::kClosed || host_registered_ ||
      recovery_node_.agent != nullptr) {
    throw std::logic_error("TcpConnection::Reopen on flow " +
                           std::to_string(flow_) + " in state " +
                           StateName(state_) +
                           " (expected a retired, non-subflow connection)");
  }
  host_ = host;
  flow_ = flow;
  peer_ = peer;
  config_ = std::move(config);
  static_cast<TcpLifecycleVars&>(*this) = TcpLifecycleVars{};
  SetClosedCallback(nullptr);
  SetDeliverCallback(nullptr);
  SetPacketTap(nullptr);
  SetFaultTraceSource(nullptr);
  SetTraceRing(nullptr);
  // Untraced, as at construction: no kTdnStateSelect for these sets.
  tdns_.Reopen(InitialTdns(*config_), *config_);
  send_queue_.Reset(kMaxKeptOnReset);
  rcv_buffer_.Reset(kMaxKeptOnReset);
  pending_.Reset(kMaxKeptOnReset);
  forced_retired_.clear();
  orphaned_dss_.clear();
  checker_.Reset();
  Attach();
}

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

void TcpConnection::SetState(State s) {
  if (s == state_) return;
  Trace(TracePoint::kTcpStateChange, static_cast<std::uint64_t>(state_),
        static_cast<std::uint64_t>(s));
  state_ = s;
}

const char* TcpConnection::StateName(State s) {
  switch (s) {
    case State::kClosed: return "Closed";
    case State::kListen: return "Listen";
    case State::kSynSent: return "SynSent";
    case State::kSynReceived: return "SynReceived";
    case State::kEstablished: return "Established";
    case State::kFinWait1: return "FinWait1";
    case State::kFinWait2: return "FinWait2";
    case State::kClosing: return "Closing";
    case State::kTimeWait: return "TimeWait";
    case State::kCloseWait: return "CloseWait";
    case State::kLastAck: return "LastAck";
  }
  return "?";
}

void TcpConnection::LifecycleError(const char* api) const {
  // Same discipline as TcpInvariantChecker::Violate: dump the state that
  // proves the misuse, then throw — release builds included. An assert here
  // would let a release-mode churn harness silently clobber a live
  // connection's sequence space.
  std::fprintf(stderr,
               "\n=== TCP lifecycle error (flow %u) ===\n"
               "%s() requires a fresh connection in state Closed; "
               "state=%s close_reason=%s snd_una=%llu snd_nxt=%llu\n"
               "=== end lifecycle error ===\n",
               flow_, api, StateName(state_), CloseReasonName(close_reason_),
               static_cast<unsigned long long>(snd_una_),
               static_cast<unsigned long long>(snd_nxt_));
  throw std::logic_error(std::string("TcpConnection::") + api +
                         " on flow " + std::to_string(flow_) + " in state " +
                         StateName(state_) + " (expected a fresh Closed)");
}

void TcpConnection::Listen() {
  if (state_ != State::kClosed || close_reason_ != CloseReason::kNone) {
    LifecycleError("Listen");
  }
  SetState(State::kListen);
}

void TcpConnection::Connect() {
  if (state_ != State::kClosed || close_reason_ != CloseReason::kNone) {
    LifecycleError("Connect");
  }
  SetState(State::kSynSent);
  SendSyn();
  ArmRto();
}

void TcpConnection::SendSyn() {
  // The SYN occupies one virtual sequence byte. It is always accounted to
  // TDN 0 (Appendix A.2): the TDTCP negotiation has not completed, so there
  // is no notion of an active TDN yet.
  TxSegment seg;
  seg.seq = 0;
  seg.len = 1;
  seg.syn = true;
  seg.tdn = 0;
  seg.first_sent = seg.last_sent = sim_.now();
  send_queue_.Append(seg);
  tdns_.state(0).packets_out++;
  snd_nxt_ = 1;

  ResendSynPacket();
}

void TcpConnection::ResendSynPacket() {
  Packet p = NewPacket(PacketType::kData, kHeaderBytes);
  p.syn = true;
  p.td_capable = config_->tdtcp_enabled;
  p.td_num_tdns = config_->num_tdns;
  if (state_ == State::kSynReceived) p.ack = 1;  // SYN/ACK
  ++stats_.segments_sent;
  Emit(std::move(p));
}

void TcpConnection::OnSyn(const Packet& p) {
  // Passive open. Negotiate TD_CAPABLE: both sides must agree on the number
  // of TDNs so the IDs refer to the same network conditions (§4.2).
  tdtcp_active_ = config_->tdtcp_enabled && p.td_capable &&
                  p.td_num_tdns == config_->num_tdns;
  SetState(State::kSynReceived);
  SendSyn();
  ArmRto();
}

void TcpConnection::OnSynAck(const Packet& p) {
  tdtcp_active_ = config_->tdtcp_enabled && p.td_capable &&
                  p.td_num_tdns == config_->num_tdns;
  // The SYN/ACK acknowledges our SYN. The SYN may have been marked lost by
  // an RTO while its path (e.g. a pinned subflow's circuit) was unavailable,
  // so account every flag it carries.
  send_queue_.AckThrough(
      1, [this](const TxSegment& seg) { RetireFromPipe(seg); });
  snd_una_ = 1;
  // A delayed handshake (SYN waited for its path) should not poison the
  // congestion state the connection starts with.
  for (std::size_t i = 0; i < tdns_.num_tdns(); ++i) {
    TdnState& st = tdns_.state(static_cast<TdnId>(i));
    if (st.ca_state == CaState::kLoss && st.packets_out == 0) {
      st.ca_state = CaState::kOpen;
      st.cwnd = std::max(st.cwnd, config_->initial_cwnd);
      st.undo_marker = 0;
    }
  }
  rto_backoff_ = 0;
  CompleteHandshake();

  // Final handshake ACK.
  Packet a = NewPacket(PacketType::kAck, kAckBytes);
  a.ack = 1;
  Emit(std::move(a));
}

void TcpConnection::CompleteHandshake() {
  SetState(State::kEstablished);
  CancelTimers();
  rto_retries_ = 0;
  if (owner_ != nullptr) owner_->TrySchedule();
  // A Close() issued before the handshake completed (lingering close) takes
  // effect now: the FIN follows whatever data was queued.
  if (fin_pending_ && state_ == State::kEstablished) {
    SetState(State::kFinWait1);
  }
  MaybeSend();
}

void TcpConnection::ResetToListen() {
  // Drop the half-open attempt and become a fresh listener (RFC 9293's
  // "return to LISTEN": SYN-ACK retransmission cap or a peer RST in
  // SYN-RECEIVED — the caller accounts which). Everything the attempt put
  // on the scoreboard — the SYN-ACK's virtual byte — is retired with full
  // per-TDN accounting so the invariant recount stays exact.
  for (const auto& seg : send_queue_.segments()) RetireFromPipe(seg);
  send_queue_.Clear();
  snd_una_ = 0;
  snd_nxt_ = 0;
  tdtcp_active_ = false;
  rto_backoff_ = 0;
  rto_retries_ = 0;
  CancelTimers();
  // A Close() issued while half-open must not be stranded: a "fresh
  // listener" would never fire ClosedFn for it, and the intent would leak
  // into the next accepted connection (instant FIN-WAIT-1 on handshake
  // completion). Behave like Close() on a listener instead.
  if (fin_pending_) {
    fin_pending_ = false;
    ToClosed(CloseReason::kNormal);
    return;
  }
  // Teardown state from the dropped attempt must not survive into the next
  // accepted connection: a stale fin_received_/fin_consumed_ would skew
  // AckValue() and the close machine from the first segment on.
  fin_sent_ = false;
  fin_seq_ = 0;
  fin_received_ = false;
  fin_consumed_ = false;
  peer_fin_seq_ = 0;
  rcv_buffer_.Reset(kMaxKeptOnReset);
  SetState(State::kListen);
}

// ---------------------------------------------------------------------------
// Teardown
// ---------------------------------------------------------------------------

void TcpConnection::Close() {
  if (state_ == State::kClosed || fin_pending_ || fin_sent_) return;
  Trace(TracePoint::kTcpClose, static_cast<std::uint64_t>(state_));
  unlimited_data_ = false;
  switch (state_) {
    case State::kListen:
      ToClosed(CloseReason::kNormal);
      return;
    case State::kSynSent:
    case State::kSynReceived:
      // Lingering close: remember the intent and let the handshake finish;
      // the FIN rides after any data queued before Close(). If the peer is
      // dead, the SYN retry caps abort with their own reason.
      fin_pending_ = true;
      return;
    case State::kEstablished:
      fin_pending_ = true;
      SetState(State::kFinWait1);
      break;
    case State::kCloseWait:
      fin_pending_ = true;
      SetState(State::kLastAck);
      break;
    default:
      return;  // already on a closing path
  }
  MaybeSend();
}

void TcpConnection::Abort(CloseReason reason) {
  if (state_ == State::kClosed) return;
  // An RST is only meaningful from states where the peer knows our sequence
  // space — and never in reply to the peer's own RST.
  if (state_ != State::kListen && state_ != State::kSynSent &&
      reason != CloseReason::kPeerReset) {
    SendRst();
  }
  ToClosed(reason);
}

void TcpConnection::SendRst() {
  Packet p = NewPacket(PacketType::kData, kHeaderBytes);
  p.rst = true;
  p.seq = snd_nxt_;
  ++stats_.rsts_sent;
  Trace(TracePoint::kTcpRstOut, static_cast<std::uint64_t>(state_));
  Emit(std::move(p));
}

void TcpConnection::OnRst() {
  ++stats_.rsts_received;
  Trace(TracePoint::kTcpRstIn, static_cast<std::uint64_t>(state_));
  switch (state_) {
    case State::kClosed:
    case State::kListen:
      return;  // nothing to abort
    case State::kSynReceived:
      // RFC 9293: a reset during a passive open returns to LISTEN.
      ResetToListen();
      return;
    default:
      ToClosed(CloseReason::kPeerReset);
      return;
  }
}

void TcpConnection::ConsumePeerFin() {
  switch (state_) {
    case State::kEstablished:
      SetState(State::kCloseWait);
      if (config_->close_on_peer_fin) Close();
      break;
    case State::kFinWait1:
      // Our FIN is still unacked (an ACK covering it would have moved us to
      // FIN-WAIT-2 already): simultaneous close.
      SetState(State::kClosing);
      break;
    case State::kFinWait2:
      EnterTimeWait();
      break;
    default:
      break;  // duplicates in Closing/TimeWait/CloseWait/LastAck: re-ACK only
  }
}

void TcpConnection::MaybeAdvanceCloseStates() {
  if (!fin_sent_ || snd_una_ <= fin_seq_) return;
  switch (state_) {
    case State::kFinWait1:
      SetState(State::kFinWait2);
      break;
    case State::kClosing:
      EnterTimeWait();
      break;
    case State::kLastAck:
      ToClosed(CloseReason::kNormal);
      break;
    default:
      break;
  }
}

void TcpConnection::EnterTimeWait() {
  SetState(State::kTimeWait);
  // Our FIN — the last byte of the stream — is acked, so the scoreboard is
  // empty and no retransmission machinery is needed; only the 2MSL clock and
  // the duty to re-ACK a retransmitted peer FIN remain.
  CancelTimers();
  const SimTime deadline = host_->wheel().Arm(
      time_wait_entry_, sim_.now() + config_->time_wait_duration);
  Trace(TracePoint::kTcpTimerArm,
        static_cast<std::uint64_t>(TraceTimer::kTimeWait),
        static_cast<std::uint64_t>(deadline.picos()));
}

void TcpConnection::OnTimeWaitFire() {
  Trace(TracePoint::kTcpTimerFire,
        static_cast<std::uint64_t>(TraceTimer::kTimeWait));
  ToClosed(CloseReason::kNormal);
}

void TcpConnection::ToClosed(CloseReason reason) {
  if (state_ == State::kClosed && close_reason_ != CloseReason::kNone) return;
  // MPTCP: snapshot data-level ranges stranded on this subflow before the
  // scoreboard is released, so the meta-connection can reinject them onto a
  // surviving subflow.
  if (owner_ != nullptr && reason != CloseReason::kNormal) {
    orphaned_dss_ = UnackedDssRanges();
    for (const auto& r : PendingDssRanges()) orphaned_dss_.push_back(r);
  }
  // Retire per-TDN pipe accounting for everything still on the scoreboard —
  // the post-close recount (Event::kClose) then proves every counter hit
  // exactly zero.
  for (const auto& seg : send_queue_.segments()) RetireFromPipe(seg);
  send_queue_.Clear();
  pending_.clear();
  pending_bytes_ = 0;
  unlimited_data_ = false;
  CancelTimers();
  // Every path into kClosed funnels through here; the wheel's idempotent
  // disarm makes CancelTimers safe to repeat, and after it no timer may
  // survive to fire into a dead connection (the old EventId scheme only got
  // this right by luck of kInvalidEventId checks on some abort paths).
  assert(!rto_entry_.armed() && !tlp_entry_.armed() &&
         !persist_entry_.armed() && !time_wait_entry_.armed() &&
         "ToClosed left a wheel timer armed");
  assert(pace_timer_ == kInvalidEventId && "ToClosed left the pace timer");
  if (recovery_agent_ != nullptr) recovery_agent_->Deregister(recovery_node_);
  SetState(State::kClosed);
  close_reason_ = reason;
  if (host_registered_) {
    host_->UnregisterEndpoint(flow_, this);
    host_->RemoveTdnListener(this);
    host_registered_ = false;
  }
  RunChecker(TcpInvariantChecker::Event::kClose);
  Trace(TracePoint::kTcpClosed, static_cast<std::uint64_t>(reason));
  if (on_closed_) on_closed_(reason);
}

void TcpConnection::DowngradeToRegularTcp() {
  // §4.2: only the local side is affected; the peer may keep sending
  // TDTCP-enabled segments but will get regular ACKs back. We freeze on the
  // currently active state set and stop reacting to TDN notifications.
  tdtcp_active_ = false;
}

// ---------------------------------------------------------------------------
// Application data
// ---------------------------------------------------------------------------

void TcpConnection::SetUnlimitedData(bool unlimited) {
  unlimited_data_ = unlimited;
  MaybeSend();
}

void TcpConnection::AddAppData(std::uint64_t bytes) {
  // Data written after Close() has no sequence space left (the FIN is the
  // last byte of the stream): drop it.
  if (bytes == 0 || fin_pending_ || fin_sent_ || state_ == State::kClosed) {
    return;
  }
  pending_.push_back(PendingChunk{bytes, false, 0});
  pending_bytes_ += bytes;
  MaybeSend();
}

bool TcpConnection::AddMappedData(std::uint32_t len, std::uint64_t dss_seq) {
  // Mapped data is accepted until the FIN is actually on the wire: a meta
  // reinjection may still ride ahead of a pending (not yet sent) FIN. The
  // caller must check the result — a refused range was NOT queued, and a
  // reinjection that ignores the refusal silently drops that DSS range.
  if (len == 0 || fin_sent_ || state_ == State::kClosed) return false;
  pending_.push_back(PendingChunk{len, true, dss_seq});
  pending_bytes_ += len;
  MaybeSend();
  return true;
}

std::uint64_t TcpConnection::unsent_buffered_bytes() const {
  return pending_bytes_;
}

std::uint64_t TcpConnection::bytes_acked() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < tdns_.num_tdns(); ++i) {
    total += tdns_.state(static_cast<TdnId>(i)).bytes_acked;
  }
  return total;
}

std::vector<TcpConnection::DssRange> TcpConnection::UnackedDssRanges() const {
  // After an abort the scoreboard is gone; the ranges it held were
  // snapshotted into orphaned_dss_ for the meta-connection to reinject.
  if (state_ == State::kClosed) return orphaned_dss_;
  std::vector<DssRange> out;
  for (const auto& seg : send_queue_.segments()) {
    if (seg.has_dss && !seg.syn && !seg.fin) {
      out.push_back({seg.dss_seq, seg.len});
    }
  }
  return out;
}

std::vector<TcpConnection::DssRange> TcpConnection::PendingDssRanges() const {
  std::vector<DssRange> out;
  for (const auto& chunk : pending_) {
    if (chunk.has_dss) {
      out.push_back({chunk.dss_seq, static_cast<std::uint32_t>(chunk.bytes)});
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// TDN control
// ---------------------------------------------------------------------------

void TcpConnection::OnTdnChange(TdnId tdn, bool imminent) {
  if (imminent) {
    // reTCPdyn advance notice: the ToR enlarged its VOQ; pre-ramp.
    TdnState& st = ActiveState();
    st.cc->OnCircuitTransition(st, /*circuit_up=*/true, /*imminent=*/true);
    MaybeSend();
    return;
  }
  if (!tdtcp_active_) return;
  // A genuine notification is ground truth: it supersedes any data-path
  // inference in progress and suppresses inference for a while (stragglers
  // tagged with the previous TDN are expected right after a switch).
  notify_seen_ = true;
  last_notify_time_ = sim_.now();
  peer_tdn_candidate_ = kNoTdn;
  peer_tdn_streak_ = 0;
  SwitchActiveTdn(tdn);
}

void TcpConnection::OnTdnReconfig(std::uint32_t live_tdns) {
  // Management-plane TDN-count change (ScheduleChange::live_tdns): retire
  // every per-TDN state set the new schedule no longer drives. Unlike
  // OnTdnChange this is reliable (no ICMP loss model) and touches state
  // directly, so it runs under the same invariant-checker discipline as a
  // switch.
  if (!tdtcp_active_) return;
  ++stats_.tdn_reconfigs;
  if (config_->invariant_checks) checker_.WillSwitchTdn(*this);
  const bool moved = tdns_.RetireAbove(live_tdns, TdnTrace());
  if (moved) {
    ++stats_.tdn_switches;
    tdn_pointer_pending_ = true;
    ArmRto();
    ArmTlp();
  }
  RunChecker(TcpInvariantChecker::Event::kTdnSwitch);
  if (moved) MaybeSend();
}

void TcpConnection::SwitchActiveTdn(TdnId tdn) {
  if (config_->invariant_checks) checker_.WillSwitchTdn(*this);
  if (!tdns_.SwitchTo(tdn, TdnTrace())) return;  // duplicate: no-op
  ++stats_.tdn_switches;
  // First transmission on the new TDN will advance the TDN change pointer.
  tdn_pointer_pending_ = true;
  // Timers depend on the active TDN's RTT model.
  ArmRto();
  ArmTlp();
  RunChecker(TcpInvariantChecker::Event::kTdnSwitch);
  // §5.2 "initial burst": the resumed TDN wakes with a (possibly) wide-open
  // cwnd and near-zero in-flight, so transmission resumes immediately.
  MaybeSend();
}

void TcpConnection::NotePeerTdn(TdnId tdn) {
  if (!tdtcp_active_ || tdn == kNoTdn) return;
  if (tdn == ActiveTdn()) {
    // Peer agrees with our view: any mismatch streak was stragglers.
    peer_tdn_candidate_ = kNoTdn;
    peer_tdn_streak_ = 0;
    return;
  }
  if (tdn != peer_tdn_candidate_) {
    peer_tdn_candidate_ = tdn;
    peer_tdn_streak_ = 1;
    peer_tdn_first_ = sim_.now();
    return;
  }
  ++peer_tdn_streak_;
  if (peer_tdn_streak_ < kTdnInferPackets) return;
  // In-flight traffic tagged with the previous TDN drains within about one
  // RTT of a genuine switch, so require the mismatch streak to outlive the
  // same patience the relaxed reordering heuristic uses (1.5x the slowest
  // sRTT, §3.4) -- measured both from the first mismatch and from the last
  // notification we actually received.
  const RttEstimator& slowest = tdns_.SlowestRtt(ActiveTdn());
  const SimTime patience = slowest.has_sample()
                               ? slowest.srtt() + slowest.srtt() / 2
                               : config_->rtt.initial_rto;
  if (sim_.now() - peer_tdn_first_ <= patience) return;
  if (notify_seen_ && sim_.now() - last_notify_time_ <= patience) return;
  // Our notification for this TDN change was lost: converge via the data
  // path (§3.2 graceful degradation).
  const TdnId target = peer_tdn_candidate_;
  peer_tdn_candidate_ = kNoTdn;
  peer_tdn_streak_ = 0;
  ++stats_.tdn_inferred_switches;
  SwitchActiveTdn(target);
}

// ---------------------------------------------------------------------------
// Packet entry point
// ---------------------------------------------------------------------------

void TcpConnection::HandlePacket(Packet&& p) {
  if (has_tap_) tap_(TapDirection::kRx, p);
  if (p.rst) {
    OnRst();
    return;
  }
  if (state_ == State::kClosed) {
    // A dead endpoint object still wired into the datapath behaves like the
    // host's closed port: reset the sender (never in reply to an RST, which
    // the branch above already consumed).
    SendRst();
    return;
  }
  if (p.type == PacketType::kData) {
    if (p.syn) {
      if (state_ == State::kListen) { OnSyn(p); return; }
      if (state_ == State::kSynSent) { OnSynAck(p); return; }
      // Retransmitted SYN-ACK: our handshake ACK was lost. Re-ACK so the
      // peer can leave SYN-RECEIVED. A bare duplicate SYN is ignored — the
      // peer's RTO resends our SYN-ACK if that was the loss.
      if (p.ack == 1 &&
          (state_ == State::kEstablished || InClosingFamily())) {
        SendPureAck();
      }
      return;
    }
    if (state_ == State::kListen) {
      // Data at a listener that never saw this handshake.
      SendRst();
      return;
    }
    if (p.payload > 0 || p.fin) {
      OnDataSegment(std::move(p));
      return;
    }
    return;
  }
  // Pure ACK.
  if (state_ == State::kListen) {
    SendRst();
    return;
  }
  if (state_ == State::kSynReceived) CompleteHandshake();
  switch (state_) {
    case State::kEstablished:
    case State::kFinWait1:
    case State::kFinWait2:
    case State::kClosing:
    case State::kCloseWait:
    case State::kLastAck:
      OnAckPacket(p);
      break;
    default:
      break;  // SynSent / TimeWait: a pure ACK carries nothing for us
  }
}

// ---------------------------------------------------------------------------
// Receiver path
// ---------------------------------------------------------------------------

void TcpConnection::OnDataSegment(Packet&& p) {
  if (state_ == State::kSynReceived) {
    // The handshake ACK can be implicit in the first data segment.
    CompleteHandshake();
  }
  if (state_ != State::kEstablished && !InClosingFamily()) return;

  // TD_DATA_ACK D bit: the TDN the peer sent this data on.
  NotePeerTdn(p.data_tdn);

  ReceiveBuffer::Result result;
  if (p.payload > 0) {
    result = rcv_buffer_.OnData(p.seq, p.payload, p.has_dss, p.dss_seq,
                                sim_.now());
    if (result.duplicate) ++stats_.duplicate_segments;
    for (const auto& d : result.delivered) {
      stats_.bytes_received += d.len;
      if (deliver_) deliver_(DeliverInfo{d.seq, d.len, d.has_dss, d.dss_seq});
    }
  }
  if (p.fin && !fin_received_) {
    fin_received_ = true;
    peer_fin_seq_ = p.seq + p.payload;
    ++stats_.fins_received;
  }
  // The FIN is consumed only in order: every stream byte before it must have
  // been delivered, or the ACK covering it would lie about the data.
  bool fin_just_consumed = false;
  if (fin_received_ && !fin_consumed_ &&
      rcv_buffer_.rcv_nxt() == peer_fin_seq_) {
    fin_consumed_ = true;
    fin_just_consumed = true;
    Trace(TracePoint::kTcpFinRx, peer_fin_seq_);
  }
  // ACK first — AckValue() covers the consumed FIN — then advance the close
  // machine: ConsumePeerFin may enter TIME-WAIT or close outright, and the
  // ACK must not be lost to that transition.
  SendAck(result, p);
  if (fin_just_consumed) {
    ConsumePeerFin();
  } else if (p.fin && fin_consumed_ && state_ == State::kTimeWait) {
    // Retransmitted peer FIN: our final ACK was lost. The re-ACK went out
    // above; restart the 2MSL clock (RFC 9293 §3.10.7.4).
    EnterTimeWait();
  }
}

void TcpConnection::SendAck(const ReceiveBuffer::Result& result,
                            const Packet& data) {
  Packet a = NewPacket(PacketType::kAck, kAckBytes);
  a.ack = AckValue();
  const std::uint64_t used = rcv_buffer_.ooo_bytes();
  const std::uint64_t wnd =
      config_->rcv_buf_bytes > used ? config_->rcv_buf_bytes - used : 0;
  a.rcv_window = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(wnd, 0xffffffffu));
  a.has_rwnd = true;
  a.num_sack =
      static_cast<std::uint8_t>(rcv_buffer_.BuildSackBlocks(result, a.sack));
  // DCTCP-style precise per-packet ECN echo.
  a.ece = (data.ecn == Ecn::kCe);
  // reTCP: echo the switch's circuit mark back to the sender.
  a.circuit_echo = data.circuit_mark;
  // TD_DATA_ACK: the TDN this ACK is being sent on (A bit).
  if (tdtcp_active_) a.ack_tdn = ActiveTdn();
  if (owner_ != nullptr) {
    a.has_dss = true;
    a.dss_ack = owner_->MetaAck();
    a.dss_rwnd = owner_->MetaWindow();
  }
  Emit(std::move(a));
}

void TcpConnection::SendPureAck() {
  // Bare re-ACK (retransmitted SYN-ACK or peer FIN): no SACK blocks, no
  // window recomputation — just the cumulative ACK the peer is missing.
  Packet a = NewPacket(PacketType::kAck, kAckBytes);
  a.ack = AckValue();
  if (tdtcp_active_) a.ack_tdn = ActiveTdn();
  Emit(std::move(a));
}

// ---------------------------------------------------------------------------
// Sender path: ACK processing
// ---------------------------------------------------------------------------

void TcpConnection::OnAckPacket(const Packet& p) {
  ++stats_.acks_received;
  if (owner_ != nullptr && p.has_dss) owner_->OnMetaAck(p.dss_ack, p.dss_rwnd);
  if (p.has_rwnd) {
    peer_rwnd_ = p.rcv_window;  // zero means flow-control stall
    if (peer_rwnd_ > 0 && (persist_entry_.armed() || persist_probing_)) {
      // The window reopened: leave persist mode. MaybeSend (below, on every
      // ACK path including the stale-ACK one) resumes normal transmission.
      // persist_probing_ can outlive the timer (it lapses once the probe is
      // outstanding and the RTO owns it), so check both.
      CancelPersist();
    }
  }

  // TD_DATA_ACK A bit: the TDN the peer sent this ACK on.
  NotePeerTdn(p.ack_tdn);

  if (p.ack > snd_nxt_) return;  // acks data never sent
  // §4.3 "all TDNs": an ACK may acknowledge data sent on any TDN, so the
  // stale-ACK filter must consult the sum of per-TDN packets_out. A stale
  // ACK may still carry a window update (e.g. a zero-window reopening), so
  // give the transmit path a chance before discarding it.
  if (tdns_.TotalPacketsOut() == 0 && p.ack <= snd_una_) {
    MaybeSend();
    return;
  }

  const TdnId trigger_tdn =
      (tdtcp_active_ && p.ack_tdn != kNoTdn) ? p.ack_tdn : ActiveTdn();
  tdns_.EnsureTdn(trigger_tdn, TdnTrace());

  NoteCircuitEcho(p.circuit_echo);

  // Per-ACK accounting, one row per TDN.
  t_ack_rows.assign(tdns_.num_tdns(), AckRow{});
  ece_target_tdn_ = trigger_tdn;

  const std::uint32_t newly_sacked =
      p.num_sack > 0 ? ProcessSackBlocks(p) : 0;

  if (p.ack > snd_una_) {
    const bool acked_fresh_data = ProcessCumulativeAck(p);
    rto_retries_ = 0;      // forward progress: the peer is alive
    persist_backoff_ = 0;  // an ACKed probe is an answered probe
    persist_probing_ = false;
    // Karn's algorithm: an ACK that only covers retransmitted data is
    // ambiguous — it may acknowledge the original transmission, so it says
    // nothing about the current path delay. Only an ACK of never-
    // retransmitted data proves the path is live and may reset the
    // exponential RTO backoff.
    if (acked_fresh_data) rto_backoff_ = 0;
    tlp_in_flight_ = false;
    // Cumulative advance = forward progress: reset the recovery agent's
    // quiet clock for this connection.
    if (recovery_agent_ != nullptr) recovery_agent_->NoteProgress(recovery_node_);
  }

  DetectLosses(trigger_tdn, newly_sacked);
  AdvanceStateMachines(p);

  // An ACK covering our FIN moves the close machine; it may retire the
  // connection entirely (LAST-ACK -> CLOSED), after which no timer may be
  // re-armed and the checker has already run its post-close recount.
  if (fin_sent_) MaybeAdvanceCloseStates();
  if (state_ == State::kClosed) return;

  ArmRto();
  ArmTlp();
  RunChecker(TcpInvariantChecker::Event::kAck);
  MaybeSend();
  if (owner_ != nullptr) owner_->TrySchedule();
}

std::uint32_t TcpConnection::ProcessSackBlocks(const Packet& p) {
  // RFC 2883: a D-SACK is a first block below the cumulative ACK, or one
  // contained in the second block. It is consumed here and skipped below.
  std::uint8_t first = 0;
  if (p.num_sack > 0) {
    const SackBlock& b0 = p.sack[0];
    const bool below_cum = b0.end <= p.ack;
    const bool inside_second = p.num_sack >= 2 &&
                               b0.start >= p.sack[1].start &&
                               b0.end <= p.sack[1].end;
    if (below_cum || inside_second) {
      ++stats_.dsacks_received;
      ProcessDsack(b0);
      first = 1;
    }
  }
  // The packet's own block array is applied in place (a span past any
  // leading D-SACK block) — no per-ACK copy of the blocks.
  const TdnId ack_tdn = p.ack_tdn;
  return send_queue_.ApplySack(
      std::span<const SackBlock>(p.sack.data() + first,
                                 static_cast<std::size_t>(p.num_sack - first)),
      [this, ack_tdn](TxSegment& seg) { NoteSackedSegment(seg, ack_tdn); });
}

void TcpConnection::NoteSackedSegment(TxSegment& seg, TdnId ack_tdn) {
  TdnState& st = tdns_.state(seg.tdn);
  st.sacked_out++;
  Trace(TracePoint::kTcpSackEdit,
        static_cast<std::uint64_t>(TraceSackEdit::kSacked), seg.seq, seg.len,
        seg.tdn);
  if (seg.tdn < t_ack_rows.size()) t_ack_rows[seg.tdn].sacked_pkts++;
  if (seg.lost) {
    // The receiver has it after all; it was reordered, not lost.
    seg.lost = false;
    st.lost_out--;
  }
  if (seg.last_sent > rack_mstamp_) {
    rack_mstamp_ = seg.last_sent;
    rack_mstamp_tdn_ = seg.tdn;
  }
  // SACK RTT sampling (Linux sack_rtt): a newly SACKed, never-retransmitted
  // segment is as valid a sample as a cumulatively acked one, under the
  // same Karn + TDN-matching rules. Without it a sender whose only
  // delivered segments are SACKed keeps RTO pinned at initial_rto, whose
  // exponential backoff can phase-lock with the rotation week so every
  // retransmission lands in the same congested schedule segment.
  if (!config_->sack_rtt) return;
  if (seg.ever_retrans) return;
  const SimTime rtt = sim_.now() - seg.last_sent;
  if (tdtcp_active_ && config_->per_tdn_rtt) {
    if (ack_tdn != kNoTdn && ack_tdn == seg.tdn) {
      st.rtt.AddSample(rtt);
    } else {
      ++stats_.rtt_samples_dropped;
    }
  } else {
    st.rtt.AddSample(rtt);
  }
}

void TcpConnection::ProcessDsack(const SackBlock& block) {
  Trace(TracePoint::kTcpSackEdit,
        static_cast<std::uint64_t>(TraceSackEdit::kUndo), block.start,
        block.end - block.start);
  // A DSACK proves a retransmission was spurious: the receiver already had
  // the data. Credit the undo bookkeeping of the TDN whose recovery episode
  // produced the retransmission (seg.undo_tdn — pinned at the *first*
  // retransmission, so later re-retransmissions on other TDNs don't move
  // the credit).
  TxSegment* seg = send_queue_.Find(block.start);
  if (seg != nullptr && seg->ever_retrans) {
    // The DSACK disproves an agent forcing exactly once: clear the flag so a
    // second duplicate report cannot double-count.
    if (seg->forced_rtx) {
      seg->forced_rtx = false;
      CountSpuriousForcing();
    }
    TdnState& st = tdns_.state(seg->undo_tdn);
    if (st.undo_retrans > 0) st.undo_retrans--;
    return;
  }
  // Retired forced segment: the original's (delayed) cumulative ACK beat the
  // DSACK. The range record is erased on match, keeping the count
  // exactly-once per forcing.
  for (auto it = forced_retired_.begin(); it != forced_retired_.end(); ++it) {
    if (block.start >= it->first && block.start < it->second) {
      forced_retired_.erase(it);
      CountSpuriousForcing();
      break;
    }
  }
  // Segment already cumulatively acked: credit the TDN whose recovery
  // episode actually covered this sequence range. A bare "first armed undo
  // marker" scan would credit whichever TDN happens to be recovering now —
  // across a TDN switch that is the wrong episode, and its undo would
  // restore the wrong TDN's window.
  for (std::size_t i = 0; i < tdns_.num_tdns(); ++i) {
    TdnState& st = tdns_.state(static_cast<TdnId>(i));
    if (st.undo_marker != 0 && st.undo_retrans > 0 &&
        block.start >= st.undo_marker && block.start < st.high_seq) {
      st.undo_retrans--;
      return;
    }
  }
}

TdnState& TcpConnection::RetireFromPipe(const TxSegment& seg) {
  TdnState& st = tdns_.state(seg.tdn);
  st.packets_out--;
  if (seg.sacked) st.sacked_out--;
  if (seg.lost) st.lost_out--;
  if (seg.retrans) st.retrans_out--;
  return st;
}

bool TcpConnection::ProcessCumulativeAck(const Packet& p) {
  bool acked_fresh_data = false;
  std::vector<AckRow>& rows = t_ack_rows;
  send_queue_.AckThrough(p.ack, [this, &p, &acked_fresh_data,
                                 &rows](const TxSegment& seg) {
    // §4.3 "specific TDN": scan the retransmission queue and update the
    // tracking variables of the TDN each segment belongs to.
    TdnState& st = RetireFromPipe(seg);
    if (!seg.syn && !seg.fin) {
      st.bytes_acked += seg.len;
      AckRow& row = rows[seg.tdn];
      row.acked_pkts++;
      row.acked_bytes += seg.len;
      ece_target_tdn_ = seg.tdn;
    }
    // An acked never-retransmitted FIN proves path liveness just like data.
    if (!seg.syn && !seg.ever_retrans) acked_fresh_data = true;
    // An agent-forced segment finally cumulatively acked is a rescue. Keep
    // its range around so a late DSACK (duplicate arriving after the
    // original's delayed ACK) can still reclassify the forcing as spurious.
    if (seg.forced_rtx) {
      ++stats_.recovery_rescued;
      if (recovery_agent_ != nullptr) recovery_agent_->NoteRescued();
      if (forced_retired_.size() >= kMaxForcedRetired) {
        forced_retired_.erase(forced_retired_.begin());
      }
      forced_retired_.emplace_back(seg.seq, seg.end_seq());
    }
    Trace(TracePoint::kTcpSackEdit,
          static_cast<std::uint64_t>(TraceSackEdit::kAcked), seg.seq, seg.len,
          seg.tdn);
    if (seg.last_sent > rack_mstamp_) {
      rack_mstamp_ = seg.last_sent;
      rack_mstamp_tdn_ = seg.tdn;
    }
    // RTT sampling: Karn (never a retransmitted segment), then §4.4's TDN
    // matching — only samples whose data and ACK rode the same TDN feed
    // that TDN's estimator; "type-3" mixed samples are dropped.
    if (seg.ever_retrans) return;
    const SimTime rtt = sim_.now() - seg.last_sent;
    if (tdtcp_active_ && config_->per_tdn_rtt) {
      if (p.ack_tdn != kNoTdn && p.ack_tdn == seg.tdn) {
        st.rtt.AddSample(rtt);
        rows[seg.tdn].rtt = rtt;
      } else {
        ++stats_.rtt_samples_dropped;
      }
    } else {
      st.rtt.AddSample(rtt);
      rows[seg.tdn].rtt = rtt;
    }
  });
  snd_una_ = p.ack;
  return acked_fresh_data;
}

void TcpConnection::DetectLosses(TdnId trigger_tdn, std::uint32_t newly_sacked) {
  const std::uint64_t high_sacked = send_queue_.highest_sacked();
  if (high_sacked <= snd_una_) return;

  const auto segs = send_queue_.segments();
  std::uint32_t holes = 0;
  std::uint32_t marked = 0;

  // SACKed segments after the current one: the queue's total less those
  // passed. The loop never changes `sacked` (only `lost`/`retrans`).
  const std::uint32_t sacked_total = send_queue_.sacked();
  std::uint32_t sacked_seen = 0;

  for (TxSegment& seg : segs) {
    if (seg.end_seq() > high_sacked) break;
    if (seg.sacked) {
      ++sacked_seen;
      continue;
    }
    // A retransmission is in flight: only RACK-on-the-retransmission may
    // re-declare it (Linux keeps SACKED_RETRANS segments off the mark list
    // until the rtx itself times out or proves lost).
    if (seg.retrans) {
      bool rtx_lost = false;
      if (config_->rack_enabled && rack_mstamp_ > SimTime::Zero()) {
        const TdnState& st = tdns_.state(seg.tdn);
        const SimTime reo_wnd = st.rtt.has_sample() ? st.rtt.min_rtt() / 4
                                                    : SimTime::Micros(25);
        rtx_lost = rack_mstamp_ > seg.last_sent + reo_wnd;
      }
      if (rtx_lost) {
        TdnState& st = tdns_.state(seg.tdn);
        seg.retrans = false;
        st.retrans_out--;
        if (!seg.lost) {
          MarkSegmentLost(seg);
          ++marked;
        }
      }
      continue;
    }
    if (seg.lost) continue;  // awaiting retransmission
    ++holes;

    // Classic dupACK-count analogue: enough SACKed segments above this one.
    const bool dup_cond = sacked_total - sacked_seen >= kDupAckThreshold;

    // RACK: delivered segments transmitted sufficiently later imply loss.
    bool rack_cond = false;
    if (config_->rack_enabled && rack_mstamp_ > SimTime::Zero()) {
      const TdnState& st = tdns_.state(seg.tdn);
      const SimTime reo_wnd = st.rtt.has_sample()
                                  ? st.rtt.min_rtt() / 4
                                  : SimTime::Micros(25);
      rack_cond = rack_mstamp_ > seg.last_sent + reo_wnd;
    }
    if (!dup_cond && !rack_cond) continue;

    // §3.4 relaxed detection: a hole whose TDN differs from the TDN of the
    // triggering ACK is suspected cross-TDN reordering — its ACK is merely
    // delayed on the slower path. Exempt it unless it has been silent for a
    // full pessimistic cross-TDN RTT (then RACK-TLP-style recovery kicks in).
    if (tdtcp_active_ && config_->relaxed_reordering &&
        SuspectCrossTdnReordering(seg, trigger_tdn, tdn_change_)) {
      const RttEstimator& slowest = tdns_.SlowestRtt(seg.tdn);
      SimTime patience = slowest.has_sample()
                             ? slowest.srtt() + slowest.srtt() / 2
                             : config_->rtt.initial_rto;
      // "Pessimistic" requires the hole's own path to have been measured: a
      // fast TDN's samples bound nothing about an unsampled slow path, so
      // until the hole's TDN has an RTT of its own, wait at least the
      // conservative pre-handshake RTO.
      if (!tdns_.state(seg.tdn).rtt.has_sample()) {
        patience = std::max(patience, config_->rtt.initial_rto);
      }
      if (sim_.now() - seg.last_sent <= patience) {
        ++stats_.cross_tdn_exemptions;
        continue;
      }
    }
    MarkSegmentLost(seg);
    ++marked;
  }

  // A reordering event is a *new* gap opening between the cumulative ACK
  // and the highest SACK (Fig. 10a); long-lived exempted holes count once.
  if (holes > prev_holes_ && newly_sacked > 0) {
    ++stats_.reorder_events;
    stats_.reorder_hole_packets += holes - prev_holes_;
  }
  prev_holes_ = holes;
  stats_.reorder_marked_lost += marked;
  if (marked > 0) RunChecker(TcpInvariantChecker::Event::kLoss);
}

void TcpConnection::MarkSegmentLost(TxSegment& seg) {
  assert(!seg.lost && !seg.sacked);
  seg.lost = true;
  TdnState& st = tdns_.state(seg.tdn);
  st.lost_out++;
  Trace(TracePoint::kTcpSackEdit,
        static_cast<std::uint64_t>(TraceSackEdit::kLost), seg.seq, seg.len,
        seg.tdn);
  if (seg.retrans) {
    // The retransmission itself is presumed lost too.
    seg.retrans = false;
    st.retrans_out--;
  }
}

void TcpConnection::AdvanceStateMachines(const Packet& p) {
  const std::vector<AckRow>& rows = t_ack_rows;
  const AckRow none;  // a TDN added since the rows were sized
  for (std::size_t i = 0; i < tdns_.num_tdns(); ++i) {
    const TdnId id = static_cast<TdnId>(i);
    TdnState& st = tdns_.state(id);
    const AckRow& row = i < rows.size() ? rows[i] : none;
    const std::uint32_t acked_here = row.acked_pkts;
    const CaState prev_ca = st.ca_state;
    const std::uint32_t prev_cwnd = st.cwnd;
    const std::uint32_t prev_ssthresh = st.ssthresh;

    // CC per-ACK hook (DCTCP fraction tracking etc.) for TDNs with progress.
    if (acked_here > 0) {
      AckContext ctx;
      ctx.event.newly_acked_packets = acked_here;
      ctx.event.newly_acked_bytes = row.acked_bytes;
      ctx.event.ece = p.ece && id == ece_target_tdn_;
      ctx.event.circuit_echo = p.circuit_echo;
      ctx.event.rtt_sample = row.rtt;
      ctx.event.cwnd_limited = st.cwnd_limited;
      ctx.snd_una = snd_una_;
      ctx.snd_nxt = snd_nxt_;
      ctx.now = sim_.now();
      st.cc->OnAck(st, ctx);
    }

    // ECN-Echo: reduce once per window via the CWR state.
    if (p.ece && id == ece_target_tdn_ &&
        (st.ca_state == CaState::kOpen || st.ca_state == CaState::kDisorder)) {
      EnterCwr(st);
    }

    switch (st.ca_state) {
      case CaState::kOpen:
      case CaState::kDisorder:
        if (st.lost_out > 0) {
          EnterRecovery(st);
          // The entering ACK participates in the rate reduction (Linux runs
          // tcp_cwnd_reduction on the same ACK that enters recovery).
          ProportionalRateReduction(st, acked_here, row.sacked_pkts);
        } else if (st.sacked_out > 0) {
          st.ca_state = CaState::kDisorder;
        } else {
          st.ca_state = CaState::kOpen;
        }
        break;
      case CaState::kCwr:
        ProportionalRateReduction(st, acked_here, row.sacked_pkts);
        if (snd_una_ >= st.high_seq) {
          st.ca_state = CaState::kOpen;
          st.cwnd = std::max(2u, st.ssthresh);  // tcp_end_cwnd_reduction
          st.cc->OnCwndEvent(st, CwndEvent::kCompleteCwr);
        }
        break;
      case CaState::kRecovery:
      case CaState::kLoss:
        MaybeUndo(st);
        if (st.ca_state == CaState::kRecovery) {
          ProportionalRateReduction(st, acked_here, row.sacked_pkts);
        }
        if ((st.ca_state == CaState::kRecovery || st.ca_state == CaState::kLoss) &&
            snd_una_ >= st.high_seq) {
          if (st.ca_state == CaState::kRecovery) {
            st.cwnd = std::max(2u, st.ssthresh);  // tcp_end_cwnd_reduction
          }
          st.ca_state = st.sacked_out > 0 ? CaState::kDisorder : CaState::kOpen;
          st.undo_marker = 0;
        }
        break;
    }

    // Window growth on ACKed progress, outside Recovery/CWR (slow-start
    // regrowth during Loss recovery is standard).
    if (acked_here > 0 &&
        (st.ca_state == CaState::kOpen || st.ca_state == CaState::kDisorder ||
         st.ca_state == CaState::kLoss)) {
      st.cc->CongAvoid(st, acked_here, sim_.now());
    }

    if (has_trace_) {
      if (st.ca_state != prev_ca) {
        Trace(TracePoint::kTcpCaStateChange, id,
              static_cast<std::uint64_t>(prev_ca),
              static_cast<std::uint64_t>(st.ca_state));
      }
      if (st.cwnd != prev_cwnd || st.ssthresh != prev_ssthresh) {
        Trace(TracePoint::kTcpCwndUpdate, id, st.cwnd, st.ssthresh);
      }
    }
  }
}

void TcpConnection::ProportionalRateReduction(TdnState& st,
                                              std::uint32_t newly_acked,
                                              std::uint32_t newly_sacked) {
  // RFC 6937 / Linux tcp_cwnd_reduction. While the pipe is above ssthresh,
  // release sending credit in proportion to delivery (rate halving); once at
  // or below, hold the pipe at ssthresh, always allowing the fast
  // retransmit itself through.
  const std::uint32_t delivered = newly_acked + newly_sacked;
  if (delivered == 0 && st.lost_out == 0) return;
  st.prr_delivered += delivered;
  const std::uint32_t pipe = st.packets_in_flight();
  std::int64_t sndcnt;
  if (pipe > st.ssthresh) {
    sndcnt = (static_cast<std::int64_t>(st.prr_delivered) * st.ssthresh +
              st.prior_cwnd - 1) / std::max<std::uint32_t>(1, st.prior_cwnd) -
             st.prr_out;
  } else {
    const std::int64_t delta = static_cast<std::int64_t>(st.ssthresh) - pipe;
    sndcnt = std::min<std::int64_t>(
        delta, std::max<std::int64_t>(
                   static_cast<std::int64_t>(st.prr_delivered) - st.prr_out,
                   newly_acked));
  }
  const bool fast_rexmit = st.lost_out > 0;
  sndcnt = std::max<std::int64_t>(sndcnt, fast_rexmit ? 1 : 0);
  // Floor at 1: with an empty pipe and zero send credit (a pure-SACK ACK
  // whose delivery was already spent), pipe + sndcnt is 0, and a zero
  // window would deadlock the connection until RTO (Linux warns on
  // snd_cwnd == 0 for the same reason).
  st.cwnd = std::max(
      1u, pipe + static_cast<std::uint32_t>(std::max<std::int64_t>(0, sndcnt)));
}

void TcpConnection::MaybeUndo(TdnState& st) {
  if (st.undo_marker == 0) return;
  const bool all_rtx_disproved = st.any_rtx_since_entry && st.undo_retrans == 0;
  const bool acked_without_rtx =
      !st.any_rtx_since_entry && snd_una_ >= st.high_seq;
  if (!all_rtx_disproved && !acked_without_rtx) return;

  // Spurious recovery: restore the window (Linux tcp_undo_cwnd_reduction).
  st.cwnd = st.cc->UndoCwnd(st);
  st.ssthresh = std::max(st.ssthresh, st.prior_ssthresh);
  st.ca_state = snd_una_ >= st.high_seq ? CaState::kOpen : CaState::kDisorder;
  st.undo_marker = 0;
  st.undo_events++;
  stats_.undo_events++;
  Trace(TracePoint::kTcpUndo, st.id, st.cwnd, st.ssthresh);
  st.cc->OnCwndEvent(st, CwndEvent::kLossUndone);
}

// ---------------------------------------------------------------------------
// Congestion transitions
// ---------------------------------------------------------------------------

void TcpConnection::EnterRecovery(TdnState& st) {
  st.prior_cwnd = st.cwnd;
  st.prior_ssthresh = st.ssthresh;
  st.ssthresh = std::max(2u, st.cc->SsThresh(st));
  st.ca_state = CaState::kRecovery;
  st.high_seq = snd_nxt_;
  st.undo_marker = snd_una_;
  st.undo_retrans = 0;
  st.any_rtx_since_entry = false;
  st.rtx_this_episode = 0;
  // PRR: the window converges to ssthresh proportionally to delivery.
  st.prr_delivered = 0;
  st.prr_out = 0;
  st.fast_recoveries++;
  stats_.fast_recoveries++;
}

void TcpConnection::EnterCwr(TdnState& st) {
  st.prior_cwnd = st.cwnd;
  st.prior_ssthresh = st.ssthresh;
  st.ssthresh = std::max(2u, st.cc->SsThresh(st));
  st.ca_state = CaState::kCwr;
  st.high_seq = snd_nxt_;
  st.undo_marker = 0;  // ECN reductions are never undone
  st.prr_delivered = 0;
  st.prr_out = 0;
}

void TcpConnection::EnterLoss(TdnState& st) {
  st.prior_cwnd = st.cwnd;
  st.prior_ssthresh = st.ssthresh;
  st.ssthresh = std::max(2u, st.cc->SsThresh(st));
  st.cwnd = 1;
  st.ca_state = CaState::kLoss;
  st.high_seq = snd_nxt_;
  st.undo_marker = snd_una_;
  st.undo_retrans = 0;
  st.any_rtx_since_entry = false;
  st.rtx_this_episode = 0;
  st.timeouts++;
  st.cc->OnRetransmitTimeout(st);
  // Everything outstanding on this TDN is presumed lost, including any
  // retransmissions in flight (Linux tcp_enter_loss clears SACKED_RETRANS).
  for (auto& seg : send_queue_.segments()) {
    if (seg.tdn != st.id || seg.sacked) continue;
    if (seg.retrans) {
      seg.retrans = false;
      st.retrans_out--;
    }
    if (!seg.lost) MarkSegmentLost(seg);
  }
}

// ---------------------------------------------------------------------------
// Sending
// ---------------------------------------------------------------------------

bool TcpConnection::PacingDefers() {
  if (!config_->pacing_enabled) return false;
  const RttEstimator& rtt = tdns_.active().rtt;
  if (!rtt.has_sample()) return false;  // no rate estimate yet
  if (next_send_time_ <= sim_.now()) return false;
  if (pace_timer_ == kInvalidEventId) {
    pace_timer_ = sim_.ScheduleAt(next_send_time_, [this] {
      pace_timer_ = kInvalidEventId;
      MaybeSend();
    });
  }
  return true;
}

void TcpConnection::NotePacedTransmission(std::uint32_t bytes) {
  if (!config_->pacing_enabled) return;
  const TdnState& st = tdns_.active();
  if (!st.rtt.has_sample()) return;
  // rate = gain * cwnd * mss / srtt; the gap for `bytes` is bytes/rate.
  const double rate_Bps = config_->pacing_gain *
                          static_cast<double>(st.cwnd) * config_->mss /
                          st.rtt.srtt().seconds();
  if (rate_Bps <= 0) return;
  const SimTime gap = SimTime::SecondsF(bytes / rate_Bps);
  const SimTime base = std::max(next_send_time_, sim_.now());
  next_send_time_ = base + gap;
}

bool TcpConnection::IsCwndLimited() const {
  const TdnState& st = tdns_.active();
  return st.packets_in_flight() >= st.cwnd;
}

void TcpConnection::MaybeSend() {
  if (!CanTransmit()) return;

  // §4.3 "any TDN": retransmissions go out first if any TDN is recovering,
  // regardless of which TDN originally carried the segment.
  while (tdns_.AnyRetransmitPending() && !IsCwndLimited()) {
    if (PacingDefers()) return;
    if (!RetransmitOneLost()) break;
  }

  while (CanSendNewSegment()) {
    if (PacingDefers()) return;
    SendNewSegment();
  }

  // The FIN follows the last buffered byte; it ignores cwnd/rwnd (its one
  // virtual byte never occupies the network).
  MaybeSendFin();

  // Linux tcp_is_cwnd_limited bookkeeping: growth is only justified when
  // the window, not the application, was the limit.
  TdnState& st = ActiveState();
  const bool have_data = unlimited_data_ || pending_bytes_ > 0;
  st.cwnd_limited = have_data && IsCwndLimited();

  // Zero-window deadlock breaker: data is waiting, nothing is in flight (so
  // no ACK will ever come back), and the peer's window — not cwnd — blocks
  // the next segment. Without a probe the connection would stall forever,
  // because the ACK reopening the window has no packet to ride on.
  if (have_data && outstanding_bytes() == 0 && !CanSendNewSegment()) {
    ArmPersist();
  }
}

bool TcpConnection::CanSendNewSegment() const {
  if (!CanTransmit() || fin_sent_) return false;
  if (!unlimited_data_ && pending_bytes_ == 0) return false;
  if (IsCwndLimited()) return false;
  const std::uint64_t wnd = std::min<std::uint64_t>(peer_rwnd_, config_->snd_buf_bytes);
  std::uint32_t next_len = config_->mss;
  if (!unlimited_data_ && !pending_.empty()) {
    next_len = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(next_len, pending_.front().bytes));
  }
  return outstanding_bytes() + next_len <= wnd;
}

void TcpConnection::SendNewSegment(std::uint32_t len_cap) {
  std::uint32_t len = config_->mss;
  if (len_cap != 0) len = std::min(len, len_cap);
  bool has_dss = false;
  std::uint64_t dss = 0;
  if (!unlimited_data_ || !pending_.empty()) {
    PendingChunk& chunk = pending_.front();
    len = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(len, chunk.bytes));
    has_dss = chunk.has_dss;
    dss = chunk.dss_seq;
    chunk.bytes -= len;
    if (chunk.has_dss) chunk.dss_seq += len;
    pending_bytes_ -= len;
    if (chunk.bytes == 0) pending_.pop_front();
  }

  TxSegment seg;
  seg.seq = snd_nxt_;
  seg.len = len;
  seg.tdn = ActiveTdn();
  seg.first_sent = seg.last_sent = sim_.now();
  seg.has_dss = has_dss;
  seg.dss_seq = dss;

  if (tdn_pointer_pending_) {
    tdn_change_.Advance(seg.seq, seg.tdn);
    tdn_pointer_pending_ = false;
  }

  send_queue_.Append(seg);
  TdnState& st = ActiveState();
  st.packets_out++;
  st.segments_sent++;
  if (st.ca_state == CaState::kRecovery || st.ca_state == CaState::kCwr) {
    st.prr_out++;
  }
  snd_nxt_ += len;

  TransmitSegment(send_queue_.segments().back(), /*is_retransmission=*/false);
  if (!rto_entry_.armed()) ArmRto();
}

void TcpConnection::MaybeSendFin() {
  if (!fin_pending_ || fin_sent_) return;
  if (pending_bytes_ > 0) return;  // FIN is the last byte of the stream
  // kClosing belongs here too: a simultaneous close can move FIN-WAIT-1 to
  // CLOSING while queued data still delays our FIN. The ACK of a FIN sent
  // from CLOSING advances to TIME-WAIT as usual (MaybeAdvanceCloseStates);
  // without this the FIN would never go out and both ends would hang.
  if (state_ != State::kFinWait1 && state_ != State::kLastAck &&
      state_ != State::kClosing) {
    return;
  }
  // Like the SYN, the FIN occupies one virtual sequence byte and rides the
  // normal scoreboard — SACKed, RACK-marked, RTO-retransmitted like data. It
  // is sent regardless of cwnd/rwnd (zero wire payload), so a zero-window
  // stall can never wedge the close.
  TxSegment seg;
  seg.seq = snd_nxt_;
  seg.len = 1;
  seg.fin = true;
  seg.tdn = ActiveTdn();
  seg.first_sent = seg.last_sent = sim_.now();
  if (tdn_pointer_pending_) {
    tdn_change_.Advance(seg.seq, seg.tdn);
    tdn_pointer_pending_ = false;
  }
  send_queue_.Append(seg);
  TdnState& st = ActiveState();
  st.packets_out++;
  st.segments_sent++;
  if (st.ca_state == CaState::kRecovery || st.ca_state == CaState::kCwr) {
    st.prr_out++;
  }
  fin_seq_ = seg.seq;
  fin_sent_ = true;
  fin_pending_ = false;
  snd_nxt_ += 1;
  ++stats_.fins_sent;
  TransmitSegment(send_queue_.segments().back(), /*is_retransmission=*/false);
  if (!rto_entry_.armed()) ArmRto();
}

bool TcpConnection::RetransmitOneLost() {
  for (auto& seg : send_queue_.segments()) {
    if (!seg.lost || seg.retrans) continue;
    TdnState& origin = tdns_.state(seg.tdn);
    TdnState& active = ActiveState();

    // Re-tag: the retransmission rides the currently active TDN, so its
    // accounting moves entirely to that TDN (keeping per-TDN sums exact).
    // The segment stays marked lost (Linux SACKED_RETRANS): the original is
    // still presumed gone; only the retransmission is in the pipe.
    origin.packets_out--;
    origin.lost_out--;
    // Undo bookkeeping belongs to the recovery *episode*, pinned at the
    // first retransmission. Re-retransmissions after a TDN switch must not
    // re-point undo_tdn at the new TDN, or the eventual DSACK would credit —
    // and MaybeUndo would restore — the wrong TDN's window.
    if (!seg.ever_retrans) seg.undo_tdn = seg.tdn;
    TdnState& episode = tdns_.state(seg.undo_tdn);
    episode.undo_retrans++;
    episode.any_rtx_since_entry = true;
    episode.rtx_this_episode++;
    seg.tdn = ActiveTdn();
    active.packets_out++;
    active.lost_out++;
    active.retrans_out++;
    if (active.ca_state == CaState::kRecovery ||
        active.ca_state == CaState::kCwr) {
      active.prr_out++;
    }
    seg.retrans = true;
    seg.ever_retrans = true;
    seg.last_sent = sim_.now();
    seg.transmissions++;

    ++stats_.retransmissions;
    TransmitSegment(seg, /*is_retransmission=*/true);
    return true;
  }
  return false;
}

void TcpConnection::TransmitSegment(TxSegment& seg, bool is_retransmission) {
  const std::uint32_t payload = (seg.syn || seg.fin) ? 0 : seg.len;
  Packet p = NewPacket(PacketType::kData, payload + kHeaderBytes);
  p.seq = seg.seq;
  p.payload = payload;
  p.syn = seg.syn;
  // A SYN segment retransmitted from any state past kSynSent is our SYN-ACK
  // (the active opener's SYN is retired before it leaves kSynSent): carry the
  // ACK flag so an established peer recognizes it and re-ACKs, retiring the
  // virtual byte an implicit handshake completion left on the scoreboard.
  if (seg.syn && state_ != State::kSynSent) p.ack = 1;
  p.fin = seg.fin;
  if (config_->ecn_enabled || ActiveState().cc->WantsEcn()) p.ecn = Ecn::kEct0;
  if (tdtcp_active_) p.data_tdn = seg.tdn;  // TD_DATA_ACK, D bit
  if (seg.has_dss) {
    p.has_dss = true;
    p.dss_seq = seg.dss_seq;
  }
  if (!is_retransmission) ++stats_.segments_sent;
  if (is_retransmission) {
    Trace(TracePoint::kTcpSackEdit,
          static_cast<std::uint64_t>(TraceSackEdit::kRetrans), seg.seq,
          seg.len, seg.tdn);
  }
  NotePacedTransmission(p.size_bytes);
  Emit(std::move(p));
}

Packet TcpConnection::NewPacket(PacketType type, std::uint32_t size_bytes) {
  Packet p;
  p.id = sim_.NextPacketId();
  p.type = type;
  p.flow = flow_;
  p.dst = peer_;
  p.size_bytes = size_bytes;
  if (owner_ != nullptr) {
    p.pinned_path = static_cast<std::int8_t>(subflow_);
    p.subflow = subflow_;
    p.is_mptcp = true;
  }
  return p;
}

void TcpConnection::Emit(Packet&& p) {
  p.sent_time = sim_.now();
  if (has_tap_) tap_(TapDirection::kTx, p);
  host_->Send(std::move(p));
}

// ---------------------------------------------------------------------------
// Timers
// ---------------------------------------------------------------------------

SimTime TcpConnection::RtoForSegment(const TxSegment& seg) const {
  // §4.4: TDTCP cannot predict which TDN the ACK will return on, so it
  // pessimistically assumes the slowest.
  return tdns_.RtoFor(seg.tdn, tdtcp_active_ && config_->synthesized_rto);
}

void TcpConnection::ArmRto() {
  host_->wheel().Disarm(rto_entry_);
  if (send_queue_.Empty()) return;
  const TxSegment& head = send_queue_.front();
  SimTime deadline =
      head.last_sent + RtoForSegment(head) * (std::int64_t{1} << rto_backoff_);
  if (deadline <= sim_.now()) deadline = sim_.now() + SimTime::Nanos(1);
  // The wheel quantizes deadlines up to its tick; trace the actual fire time
  // so trace-replay sees the time the callback really runs at.
  deadline = host_->wheel().Arm(rto_entry_, deadline);
  Trace(TracePoint::kTcpTimerArm,
        static_cast<std::uint64_t>(TraceTimer::kRto),
        static_cast<std::uint64_t>(deadline.picos()));
}

void TcpConnection::OnRtoFire() {
  if (send_queue_.Empty()) return;
  TxSegment& head = send_queue_.front();
  const SimTime deadline =
      head.last_sent + RtoForSegment(head) * (std::int64_t{1} << rto_backoff_);
  if (deadline > sim_.now()) {
    // Head was (re)transmitted since the timer was set; re-arm.
    ArmRto();
    return;
  }
  ++stats_.timeouts;
  Trace(TracePoint::kTcpTimerFire,
        static_cast<std::uint64_t>(TraceTimer::kRto));

  // The timeout supersedes any pending tail-loss probe: recovery now belongs
  // to the RTO machinery. A TLP left armed here would fire mid-Loss and
  // inject a stray retransmission into the carefully reduced pipe.
  if (tlp_entry_.armed()) {
    host_->wheel().Disarm(tlp_entry_);
    Trace(TracePoint::kTcpTimerCancel,
          static_cast<std::uint64_t>(TraceTimer::kTlp));
  }
  tlp_in_flight_ = false;

  // Handshake retransmission: resend the SYN / SYN-ACK itself — up to the
  // cap, beyond which the peer is presumed dead. transmissions starts at 1,
  // so the cap counts *re*transmissions. Only the two genuine handshake
  // states qualify: an implicit handshake completion (first data segment)
  // leaves the SYN-ACK byte unacked on the scoreboard, and an RTO on it
  // from kEstablished or a closing state must use the normal data path —
  // ResetToListen on a connection that has consumed stream data would
  // rewind rcv_nxt and strand the teardown.
  if (head.syn &&
      (state_ == State::kSynSent || state_ == State::kSynReceived)) {
    const std::uint32_t cap = state_ == State::kSynSent
                                  ? config_->max_syn_retries
                                  : config_->max_synack_retries;
    if (head.transmissions > cap) {
      if (state_ == State::kSynSent) {
        ToClosed(CloseReason::kConnectTimeout);
      } else {
        ++stats_.synack_give_ups;
        ResetToListen();
      }
      return;
    }
    head.last_sent = sim_.now();
    head.transmissions++;
    head.ever_retrans = true;
    rto_backoff_ = std::min(rto_backoff_ + 1, 8u);
    ResendSynPacket();
    ArmRto();
    return;
  }

  // Established-family give-up: consecutive RTOs without a single cumulative
  // advance mean the peer (or its path) is gone. Abort with an RST on the
  // off-chance the peer is half-alive. When what's timing out is a zero-
  // window probe, the stall is a persist give-up: it gets the persist retry
  // budget and is reported as kPersistTimeout.
  ++rto_retries_;
  const std::uint32_t retry_cap = persist_probing_
                                      ? config_->max_persist_retries
                                      : config_->max_rto_retries;
  if (rto_retries_ > retry_cap) {
    Abort(persist_probing_ ? CloseReason::kPersistTimeout
                           : CloseReason::kRetryLimit);
    return;
  }

  TdnState& st = tdns_.state(head.tdn);
  const CaState prev_ca = st.ca_state;
  const std::uint32_t prev_cwnd = st.cwnd;
  const std::uint32_t prev_ssthresh = st.ssthresh;
  if (st.ca_state != CaState::kLoss) {
    EnterLoss(st);
  } else {
    // Repeated timeout: the in-flight retransmissions are presumed lost
    // too. A segment whose original was SACKed meanwhile needs no further
    // retransmission — just retire its rtx.
    for (auto& seg : send_queue_.segments()) {
      if (seg.tdn != st.id || !seg.retrans) continue;
      seg.retrans = false;
      st.retrans_out--;
      if (!seg.lost && !seg.sacked) {
        seg.lost = true;
        st.lost_out++;
      }
    }
  }
  rto_backoff_ = std::min(rto_backoff_ + 1, 8u);
  if (has_trace_) {
    if (st.ca_state != prev_ca) {
      Trace(TracePoint::kTcpCaStateChange, st.id,
            static_cast<std::uint64_t>(prev_ca),
            static_cast<std::uint64_t>(st.ca_state));
    }
    if (st.cwnd != prev_cwnd || st.ssthresh != prev_ssthresh) {
      Trace(TracePoint::kTcpCwndUpdate, st.id, st.cwnd, st.ssthresh);
    }
  }
  RunChecker(TcpInvariantChecker::Event::kRto);
  // Like Linux tcp_retransmit_timer: the timeout itself retransmits the head
  // segment unconditionally, outside the cwnd-limited transmit loop. Under
  // TDTCP the active TDN may be pipe-full with its own (healthy) flight while
  // the timed-out TDN's losses starve; recovery must not wait on it.
  RetransmitOneLost();
  MaybeSend();
  ArmRto();
}

void TcpConnection::ArmTlp() {
  host_->wheel().Disarm(tlp_entry_);
  if (!config_->tlp_enabled || tlp_in_flight_) return;
  if (send_queue_.Empty()) return;
  if (tdns_.AnyRetransmitPending()) return;  // RTO/recovery owns the clock
  const RttEstimator& rtt = tdns_.active().rtt;
  SimTime pto = rtt.has_sample() ? rtt.srtt() * 2 : config_->rtt.initial_rto;
  pto = std::max(pto, SimTime::Micros(300));
  const SimTime deadline = host_->wheel().Arm(tlp_entry_, sim_.now() + pto);
  Trace(TracePoint::kTcpTimerArm,
        static_cast<std::uint64_t>(TraceTimer::kTlp),
        static_cast<std::uint64_t>(deadline.picos()));
}

void TcpConnection::OnTlpFire() {
  if (send_queue_.Empty() || tlp_in_flight_) return;
  if (!CanTransmit()) return;
  Trace(TracePoint::kTcpTimerFire,
        static_cast<std::uint64_t>(TraceTimer::kTlp));
  ++stats_.tlp_probes;
  tlp_in_flight_ = true;
  if (CanSendNewSegment()) {
    SendNewSegment();
    return;
  }
  // Probe with the highest unSACKed segment.
  const auto segs = send_queue_.segments();
  for (auto it = segs.rbegin(); it != segs.rend(); ++it) {
    TxSegment& seg = *it;
    if (seg.sacked || seg.lost) continue;
    TdnState& origin = tdns_.state(seg.tdn);
    TdnState& active = ActiveState();
    origin.packets_out--;
    if (seg.retrans) { origin.retrans_out--; seg.retrans = false; }
    // Same episode-pinning rule as RetransmitOneLost: only the first
    // retransmission establishes which TDN's undo bookkeeping owns this
    // segment.
    if (!seg.ever_retrans) seg.undo_tdn = seg.tdn;
    seg.tdn = ActiveTdn();
    active.packets_out++;
    active.retrans_out++;
    seg.retrans = true;
    seg.ever_retrans = true;
    seg.last_sent = sim_.now();
    seg.transmissions++;
    ++stats_.retransmissions;
    TransmitSegment(seg, /*is_retransmission=*/true);
    ArmRto();
    return;
  }
}

void TcpConnection::ArmPersist() {
  if (state_ != State::kEstablished && state_ != State::kCloseWait) return;
  if (persist_entry_.armed()) return;
  // Exponential backoff from the active TDN's RTO, capped like the RTO
  // itself (RFC 9293 recommends the same clamped doubling). Only the shift
  // is capped: persist_backoff_ keeps counting toward the give-up limit.
  SimTime interval =
      tdns_.RtoFor(ActiveTdn(), tdtcp_active_ && config_->synthesized_rto) *
      (std::int64_t{1} << std::min(persist_backoff_, 8u));
  interval = std::min(interval, config_->rtt.max_rto);
  const SimTime deadline =
      host_->wheel().Arm(persist_entry_, sim_.now() + interval);
  Trace(TracePoint::kTcpTimerArm,
        static_cast<std::uint64_t>(TraceTimer::kPersist),
        static_cast<std::uint64_t>(deadline.picos()));
}

void TcpConnection::CancelPersist() {
  persist_backoff_ = 0;
  persist_probing_ = false;
  if (!persist_entry_.armed()) return;
  host_->wheel().Disarm(persist_entry_);
  Trace(TracePoint::kTcpTimerCancel,
        static_cast<std::uint64_t>(TraceTimer::kPersist));
}

void TcpConnection::OnPersistFire() {
  if (state_ != State::kEstablished && state_ != State::kCloseWait) return;
  const bool have_data = unlimited_data_ || pending_bytes_ > 0;
  // Window reopened or data drained since arming: persist mode is over.
  if (!have_data || outstanding_bytes() > 0 || CanSendNewSegment()) {
    MaybeSend();
    return;
  }
  Trace(TracePoint::kTcpTimerFire,
        static_cast<std::uint64_t>(TraceTimer::kPersist));
  // Defense in depth: a peer that keeps the connection in persist mode past
  // the probe budget is treated as dead. In practice a dead peer is caught
  // on the RTO side (the probe below is real data, so its retransmissions
  // run on the RTO timer and the give-up there reports kPersistTimeout while
  // persist_probing_ is set); this branch only fires if probing somehow
  // recurs without either an answer or an RTO exhaustion.
  if (persist_backoff_ >= config_->max_persist_retries) {
    Abort(CloseReason::kPersistTimeout);
    return;
  }
  // 1-byte window probe: real new data, so the peer's ACK both answers the
  // probe and carries the current window. It is retransmittable through the
  // normal machinery if lost.
  ++stats_.persist_probes;
  persist_probing_ = true;
  SendNewSegment(/*len_cap=*/1);
  ++persist_backoff_;
  ArmPersist();
}

void TcpConnection::CancelTimers() {
  // Wheel disarm is idempotent, so this is safe to repeat (double close).
  TimerWheel& wheel = host_->wheel();
  wheel.Disarm(rto_entry_);
  wheel.Disarm(tlp_entry_);
  if (pace_timer_ != kInvalidEventId) {
    sim_.Cancel(pace_timer_);
    pace_timer_ = kInvalidEventId;
  }
  wheel.Disarm(persist_entry_);
  persist_backoff_ = 0;
  persist_probing_ = false;
  wheel.Disarm(time_wait_entry_);
}

// ---------------------------------------------------------------------------
// Host recovery agent hooks
// ---------------------------------------------------------------------------

void TcpConnection::CountSpuriousForcing() {
  ++stats_.recovery_spurious;
  if (recovery_agent_ != nullptr) recovery_agent_->NoteSpurious();
}

bool TcpConnection::RecoveryOutstanding() const {
  // Only synchronized, transmit-capable states qualify: the handshake has
  // its own retry ladder and TimeWait/Closed have nothing to rescue.
  if (!CanTransmit()) return false;
  // A zero-window stall is flow control, not loss; the persist machinery
  // owns that clock and a forced retransmit would just burn a probe.
  if (persist_probing_) return false;
  return !send_queue_.Empty() && snd_nxt_ > snd_una_;
}

SimTime TcpConnection::RecoveryRttHint() const {
  // Pessimistic like the synthesized RTO (§4.4): the agent cannot know which
  // TDN the rescue's ACK will return on, so the quiet threshold scales with
  // the slowest measured path.
  SimTime hint = SimTime::Zero();
  for (std::size_t i = 0; i < tdns_.num_tdns(); ++i) {
    const RttEstimator& rtt = tdns_.state(static_cast<TdnId>(i)).rtt;
    if (rtt.has_sample() && rtt.srtt() > hint) hint = rtt.srtt();
  }
  if (hint == SimTime::Zero()) hint = config_->rtt.initial_rto;
  return hint;
}

bool TcpConnection::ForceRecoveryRetransmit(SimTime quiet, SimTime threshold) {
  if (!RecoveryOutstanding()) return false;
  // The oldest unacked segment is the queue head. A SYN keeps its own retry
  // ladder (forcing would bypass the handshake caps); a SACKed head was
  // delivered and its cumulative ACK is presumably in flight; a head with a
  // retransmission outstanding already has its rescue in the pipe.
  TxSegment& head = send_queue_.front();
  if (head.syn || head.sacked || head.retrans) return false;

  // The forcing is a loss signal for the head's TDN: arm that TDN's undo
  // bookkeeping (undo_marker/undo_retrans) by entering Recovery, so a later
  // DSACK proving the forcing spurious undoes cwnd on the right TDN.
  TdnState& st = tdns_.state(head.tdn);
  const CaState prev_ca = st.ca_state;
  const std::uint32_t prev_cwnd = st.cwnd;
  const std::uint32_t prev_ssthresh = st.ssthresh;
  if (st.ca_state == CaState::kOpen || st.ca_state == CaState::kDisorder) {
    EnterRecovery(st);
  }
  if (!head.lost) MarkSegmentLost(head);
  if (has_trace_) {
    if (st.ca_state != prev_ca) {
      Trace(TracePoint::kTcpCaStateChange, st.id,
            static_cast<std::uint64_t>(prev_ca),
            static_cast<std::uint64_t>(st.ca_state));
    }
    if (st.cwnd != prev_cwnd || st.ssthresh != prev_ssthresh) {
      Trace(TracePoint::kTcpCwndUpdate, st.id, st.cwnd, st.ssthresh);
    }
  }
  // The head is now the first lost-without-rtx segment, so RetransmitOneLost
  // sends exactly it — through the normal episode pinning (undo_tdn,
  // ever_retrans for Karn) and per-TDN accounting, outside the cwnd-limited
  // transmit loop like an RTO's unconditional head retransmission.
  if (!RetransmitOneLost()) return false;
  head.forced_rtx = true;
  ++stats_.recovery_forced;
  Trace(TracePoint::kRecoveryForced, head.seq,
        static_cast<std::uint64_t>(head.undo_tdn),
        static_cast<std::uint64_t>(quiet.picos()),
        static_cast<std::uint64_t>(threshold.picos()));
  // Re-arm from the fresh transmission WITHOUT bumping rto_backoff_: the
  // agent, not the exponential ladder, paces recovery for quiet flows.
  ArmRto();
  RunChecker(TcpInvariantChecker::Event::kLoss);
  return true;
}

// ---------------------------------------------------------------------------
// reTCP circuit echo
// ---------------------------------------------------------------------------

void TcpConnection::NoteCircuitEcho(bool circuit) {
  if (circuit_echo_seen_ && circuit == last_circuit_echo_) return;
  const bool first = !circuit_echo_seen_;
  circuit_echo_seen_ = true;
  last_circuit_echo_ = circuit;
  if (first && !circuit) return;  // initial state on the packet network
  TdnState& st = ActiveState();
  st.cc->OnCircuitTransition(st, circuit, /*imminent=*/false);
}

}  // namespace tdtcp
