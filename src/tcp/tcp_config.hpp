// The engine configuration of a TcpConnection: segmentation, windows, the
// TDTCP switches, loss detection, timers, lifecycle caps and the
// congestion-control factories.
//
// A connection holds its config through a std::shared_ptr<const TcpConfig>
// and never writes to it, so every endpoint opened from one config shares
// it (ChurnGenerator per variant, role and peer rack; Workload per role;
// MptcpConnection across its subflows). The connection's TdnManager reads
// the factories, RTT parameters and initial window through a pointer to
// the same object (DESIGN.md §7, "A connection holds only its own state").
#pragma once

#include <cstdint>
#include <vector>

#include "net/packet.hpp"
#include "sim/time.hpp"
#include "tcp/rtt_estimator.hpp"
#include "tdtcp/congestion_control.hpp"

namespace tdtcp {

// --- fixed engine parameters --------------------------------------------------
// The paper's TDTCP runs with SACK and data-path TDN inference always on
// (§3.2, §4), so neither is a switch; these are their fixed parameters.
inline constexpr std::uint32_t kHeaderBytes = 60;  // wire overhead per data segment
inline constexpr std::uint32_t kAckBytes = 60;     // pure-ACK wire size
// Data-path TDN inference: when a notification is lost, converge to the
// peer's TDN from the TD_DATA_ACK tags on incoming traffic. A switch is
// inferred only after this many consecutive identically-tagged mismatches
// that persist longer than the reordering patience (1.5x the slowest sRTT),
// so in-flight stragglers from a genuine switch never trigger it.
inline constexpr std::uint32_t kTdnInferPackets = 4;
// Classic dupACK-count analogue of SACK loss marking: a hole with this many
// SACKed segments above it is lost.
inline constexpr std::uint32_t kDupAckThreshold = 3;

struct TcpConfig {
  // --- segmentation (jumbo frames per §5.1) --------------------------------
  std::uint32_t mss = 8940;          // payload bytes per segment

  // --- windows --------------------------------------------------------------
  std::uint32_t initial_cwnd = 10;   // segments (Linux default)
  std::uint64_t snd_buf_bytes = 8ull << 20;
  std::uint64_t rcv_buf_bytes = 8ull << 20;

  // --- TDTCP ----------------------------------------------------------------
  bool tdtcp_enabled = false;      // negotiate TD_CAPABLE, per-TDN state
  std::uint8_t num_tdns = 1;
  bool relaxed_reordering = true;  // §3.4 heuristic       (ablation switch)
  bool per_tdn_rtt = true;         // §4.4 sample matching (ablation switch)
  bool synthesized_rto = true;     // §4.4 pessimistic RTO (ablation switch)

  // --- multi-rack fabrics ---------------------------------------------------
  // Only react to notifications about paths toward the peer's rack
  // (kAllRacks = the paper's fabric-wide semantics).
  RackId peer_rack = kAllRacks;

  // --- robustness (§3.2: unreliable control plane) --------------------------
  // Always-on accounting validation after every ACK/loss/RTO/TDN-switch
  // event (see tcp/invariant_checker.hpp). Throws std::logic_error on the
  // first corrupted counter.
  bool invariant_checks = true;

  // --- loss detection (SACK is always on) ---------------------------------
  // Linux sack_rtt parity: take RTT samples from newly SACKed (never
  // retransmitted) segments. Disabling it starves the RTT estimator during
  // recovery — RTO stays pinned at its initial/backed-off value, which is the
  // historical ingredient of the RTO-backoff phase-locking failure mode (the
  // bench_stability canary flips this off to reproduce it).
  bool sack_rtt = true;
  bool rack_enabled = true;   // time-based marking
  bool tlp_enabled = true;    // tail-loss probes

  // --- ECN -------------------------------------------------------------------
  bool ecn_enabled = false;   // send data ECT(0); DCTCP forces this on

  // --- timers ------------------------------------------------------------------
  RttEstimator::Config rtt;

  // --- lifecycle / bounded retries (RFC 9293 teardown + dead-peer aborts) ---
  // Caps count retransmissions of the respective segment; exceeding one
  // aborts the connection (or, for the SYN-ACK, returns the endpoint to
  // kListen) with the matching CloseReason.
  std::uint32_t max_syn_retries = 6;      // active open → kConnectTimeout
  std::uint32_t max_synack_retries = 5;   // passive open → back to kListen
  // Consecutive RTO fires from a synchronized state without forward progress
  // (any cumulative-ACK advance resets the count) → kRetryLimit.
  std::uint32_t max_rto_retries = 8;
  // Consecutive unanswered transmissions of a zero-window probe before the
  // stall is declared fatal (kPersistTimeout). The probe is real 1-byte data,
  // so its retransmissions run on the RTO timer; this cap replaces
  // max_rto_retries while the probe is what's outstanding.
  std::uint32_t max_persist_retries = 10;
  // 2MSL analogue. Real stacks wait minutes; the simulated fabric's MSL is a
  // few RTTs, and churn workloads need TIME_WAIT to actually free state.
  SimTime time_wait_duration = SimTime::Millis(1);
  // Receiver convenience for request/response and churn apps: entering
  // kCloseWait immediately answers the peer's FIN with our own (Close()).
  bool close_on_peer_fin = false;

  // --- pacing -------------------------------------------------------------------
  // §5.2 suggests sender pacing to blunt the cwnd-sized burst a TDN switch
  // releases into the (possibly frozen) VOQ. When enabled, transmissions
  // are spaced at pacing_gain * cwnd * mss / srtt of the active TDN.
  bool pacing_enabled = false;
  double pacing_gain = 2.0;

  // --- congestion control --------------------------------------------------
  CcFactory cc_factory;  // defaults to CUBIC when empty
  // §3.5: "In principle, TDTCP could use multiple, different CCAs within a
  // single flow." When non-empty, TDN i uses per_tdn_cc[min(i, size-1)]
  // instead of cc_factory.
  std::vector<CcFactory> per_tdn_cc;
};

}  // namespace tdtcp
