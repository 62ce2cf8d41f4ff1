// The congestion-control module interface, shaped after Linux's
// tcp_congestion_ops so kernel algorithms port over directly.
//
// TDTCP instantiates one module per TDN (the module's members are the
// CC-private state the paper duplicates); single-path variants have exactly
// one. Modules mutate only the TdnState handed to them.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "sim/time.hpp"
#include "tcp/types.hpp"
#include "tdtcp/tdn_state.hpp"

namespace tdtcp {

// Extra per-ACK context beyond AckEvent that some modules need.
struct AckContext {
  AckEvent event;
  std::uint64_t snd_una = 0;  // after this ACK was applied
  std::uint64_t snd_nxt = 0;
  SimTime now;
};

class CongestionControl {
 public:
  virtual ~CongestionControl() = default;

  virtual const char* name() const = 0;

  virtual void Init(TdnState& s) { (void)s; }

  // Returns the module to the state a fresh instance of its class starts
  // in, so a reopened connection can keep it instead of building a new one.
  // Every class assigns itself a fresh instance (one line).
  virtual void Reset() = 0;

  // Slow-start threshold to adopt on a congestion event (loss or ECE).
  virtual std::uint32_t SsThresh(TdnState& s) = 0;

  // Window growth on ACKs while in Open/Disorder (slow start + congestion
  // avoidance). `acked` is segments newly acknowledged.
  virtual void CongAvoid(TdnState& s, std::uint32_t acked, SimTime now) = 0;

  // Called for every valid ACK after scoreboard updates (DCTCP fraction
  // tracking, RTT-based logic, ...).
  virtual void OnAck(TdnState& s, const AckContext& ctx) { (void)s; (void)ctx; }

  // Congestion-window to restore when a loss event is undone.
  virtual std::uint32_t UndoCwnd(TdnState& s) {
    return std::max(s.cwnd, s.prior_cwnd);
  }

  virtual void OnCwndEvent(TdnState& s, CwndEvent ev) { (void)s; (void)ev; }

  virtual void OnRetransmitTimeout(TdnState& s) { (void)s; }

  // reTCP hook: the fabric moved on/off the optical circuit (from the
  // receiver's echoed switch mark), or — with `imminent` — the ToR warned
  // that the circuit is about to come up (reTCPdyn pre-fill).
  virtual void OnCircuitTransition(TdnState& s, bool circuit_up, bool imminent) {
    (void)s; (void)circuit_up; (void)imminent;
  }

  // Whether data packets should be sent ECN-capable (ECT(0)).
  virtual bool WantsEcn() const { return false; }
};

using CcFactory = std::function<std::unique_ptr<CongestionControl>()>;

}  // namespace tdtcp
