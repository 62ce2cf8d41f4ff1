// TdnState: the subset of TCP connection state TDTCP duplicates per
// time-division network (§3.1).
//
// The paper groups the duplicated variables into three categories; all
// three live here, one instance per TDN:
//   * "pipe" variables     — packets_out, sacked_out, lost_out, retrans_out
//   * congestion variables — cwnd, ssthresh, ca_state (+ recovery/undo
//                            bookkeeping), and the CC module's private state
//   * delay/RTT variables  — srtt/rttvar/mdev via RttEstimator
//
// A classic single-path connection is simply a connection with one TdnState.
#pragma once

#include <cstdint>
#include <memory>

#include "net/packet.hpp"
#include "tcp/rtt_estimator.hpp"
#include "tcp/types.hpp"

namespace tdtcp {

class CongestionControl;
// A plain maker function. The registry's factories are these, so a
// CcFactory holding one tells which class it builds without building it.
using CcMaker = std::unique_ptr<CongestionControl> (*)();

struct TdnState {
  TdnId id = 0;
  // Set by a schedule reconfiguration that no longer drives this TDN
  // (TdnManager::RetireAbove); its accounting drains as usual.
  bool retired = false;

  // --- "pipe" variables ---------------------------------------------------
  std::uint32_t packets_out = 0;   // segments transmitted, not yet cumACKed
  std::uint32_t sacked_out = 0;    // segments SACKed by the receiver
  std::uint32_t lost_out = 0;      // segments marked lost
  std::uint32_t retrans_out = 0;   // retransmissions in flight

  // Linux tcp_packets_in_flight(): how full this TDN's pipe is.
  std::uint32_t packets_in_flight() const {
    return packets_out - sacked_out - lost_out + retrans_out;
  }

  // --- congestion control variables ----------------------------------------
  std::uint32_t cwnd = 10;                 // segments
  std::uint32_t ssthresh = 0x7fffffff;     // segments
  CaState ca_state = CaState::kOpen;
  // Was the sender using the full window at its last send attempt?
  // (Linux tcp_is_cwnd_limited gates congestion-avoidance growth.)
  bool cwnd_limited = false;
  std::uint64_t high_seq = 0;       // recovery/CWR exit point (snd_nxt at entry)
  std::uint32_t prior_cwnd = 0;     // for undo
  std::uint32_t prior_ssthresh = 0;
  std::uint64_t undo_marker = 0;    // snd_una at recovery entry; 0 = no undo armed
  std::uint32_t undo_retrans = 0;   // retransmissions DSACK must disprove
  bool any_rtx_since_entry = false; // retransmitted at all this episode?
  std::uint32_t rtx_this_episode = 0;

  // Proportional Rate Reduction (RFC 6937, Linux tcp_cwnd_reduction):
  // during Recovery/CWR the window shrinks towards ssthresh in proportion
  // to delivery, instead of collapsing in one step.
  std::uint32_t prr_delivered = 0;
  std::uint32_t prr_out = 0;

  // Fractional congestion-avoidance growth (Linux snd_cwnd_cnt).
  std::uint32_t cwnd_cnt = 0;

  // --- delay / RTT variables ------------------------------------------------
  RttEstimator rtt;

  // --- CC module (one instance per TDN; §3.5: in principle each TDN could
  // even run a different CCA) -------------------------------------------------
  std::unique_ptr<CongestionControl> cc;
  // The plain maker function that built `cc`, or nullptr when its factory
  // was some other callable (then a fresh start always rebuilds the module).
  CcMaker maker = nullptr;

  // --- statistics -----------------------------------------------------------
  std::uint64_t bytes_acked = 0;
  std::uint64_t segments_sent = 0;
  std::uint32_t fast_recoveries = 0;
  std::uint32_t timeouts = 0;
  std::uint32_t undo_events = 0;  // spurious recoveries rolled back
};

}  // namespace tdtcp
