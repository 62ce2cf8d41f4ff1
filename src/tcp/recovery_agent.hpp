// Host-level shared recovery agent (T-RACKs-style, PAPERS.md).
//
// The RTO tail is the short-flow killer in this RDCN: a tail-end drop on a
// flow too short for dupACK/SACK recovery waits out a full — often
// exponentially backed-off — RTO, and the rotation week can phase-lock those
// retries into the same congested day. Instead of tightening every
// connection's own timer, one agent per host tracks every active
// connection's last-cumulative-ACK time in a flat intrusive list and, on a
// single coarse epoch timer (a few RTT quanta, serviced by the host's
// TimerWheel), forces an early retransmit of the oldest unacked segment for
// any flow quiet past an adaptive threshold.
//
// The forced retransmit routes through the connection's ordinary scoreboard
// machinery (MarkSegmentLost + RetransmitOneLost), so:
//  - Karn's rule holds: the segment is ever_retrans, never RTT-sampled, and
//    its ACK does not reset the RTO backoff;
//  - the per-TDN recovery episode pins undo_tdn at first retransmission, so
//    a DSACK proving the forcing spurious undoes cwnd on the right TDN;
//  - the InvariantChecker recounts clean — lost_out/retrans_out move through
//    the same single entry points as RACK/RTO losses.
// Crucially the RTO is re-armed from the fresh transmission *without*
// bumping rto_backoff_: the agent, not the exponential ladder, paces
// recovery for quiet flows.
//
// Threshold adaptation: quiet > clamp(max(min_linger, kRecoverySrttMult *
// srtt) * scale, min_linger, max_linger) forces a retransmit. Every
// DSACK-detected spurious forcing multiplies `scale` up (the agent was too
// eager for this host's RTT population); each clean epoch decays it back
// toward 1.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "sim/timer_wheel.hpp"

namespace tdtcp {

class Host;
class TcpConnection;

// The recovery axis benches/experiments compare: no fast tail recovery at
// all (pure RTO), the default RACK-TLP stack, or RACK-TLP plus the agent.
enum class RecoveryMode { kOff, kRack, kAgent };

const char* RecoveryModeName(RecoveryMode m);
// "off" | "rack" | "agent"; throws std::invalid_argument otherwise.
RecoveryMode RecoveryModeFromName(const std::string& name);

// Threshold shape (see header comment).
inline constexpr double kRecoverySrttMult = 2.0;
// Adaptive scale: grows on every spurious forcing, decays per clean epoch.
inline constexpr double kRecoverySpuriousGrowth = 1.5;
inline constexpr double kRecoveryDecay = 0.999;
inline constexpr double kRecoveryMaxScale = 8.0;

struct RecoveryConfig {
  // Shared timer quantum: every connection on the host is scanned once per
  // epoch. A few RTT quanta — coarse enough to be one timer, fine enough
  // that a rescue lands well before the first backed-off RTO.
  SimTime epoch = SimTime::Micros(100);
  // Threshold clamp (see header comment).
  SimTime min_linger = SimTime::Micros(400);
  SimTime max_linger = SimTime::Millis(4);
};

struct RecoveryAgentStats {
  std::uint64_t epochs = 0;     // scan passes run
  std::uint64_t forced = 0;     // forced retransmits issued
  std::uint64_t rescued = 0;    // forced retransmits later cumulatively acked
  std::uint64_t spurious = 0;   // forcings disproved by DSACK
};

class RecoveryAgent {
 public:
  // Intrusive list entry, embedded in TcpConnection. last_progress is the
  // connection's last cumulative-ACK advance (or the moment data was first
  // outstanding); the agent owns every other field.
  struct Node {
    Node* prev = nullptr;
    Node* next = nullptr;
    TcpConnection* conn = nullptr;
    RecoveryAgent* agent = nullptr;  // non-null while registered
    SimTime last_progress;
  };

  // Registers itself on `host` (connections created afterwards find it via
  // Host::recovery_agent()) and starts the epoch timer on the host's wheel.
  RecoveryAgent(Simulator& sim, Host& host, RecoveryConfig cfg = {});
  ~RecoveryAgent();
  RecoveryAgent(const RecoveryAgent&) = delete;
  RecoveryAgent& operator=(const RecoveryAgent&) = delete;

  void Register(TcpConnection& conn, Node& node);
  void Deregister(Node& node);  // idempotent; safe on an unregistered node

  // Connection-side notifications.
  void NoteProgress(Node& node) { node.last_progress = sim_.now(); }
  void NoteRescued() { ++stats_.rescued; }
  void NoteSpurious();

  const RecoveryAgentStats& stats() const { return stats_; }
  double scale() const { return scale_; }
  std::size_t registered() const { return registered_; }
  const RecoveryConfig& config() const { return cfg_; }

 private:
  static void EpochTrampoline(void* self) {
    static_cast<RecoveryAgent*>(self)->OnEpoch();
  }
  void OnEpoch();
  SimTime ThresholdFor(const TcpConnection& conn) const;

  Simulator& sim_;
  Host& host_;
  RecoveryConfig cfg_;
  TimerWheel::Timer epoch_timer_;
  Node* head_ = nullptr;
  Node* tail_ = nullptr;
  std::size_t registered_ = 0;
  double scale_ = 1.0;
  RecoveryAgentStats stats_;
};

}  // namespace tdtcp
