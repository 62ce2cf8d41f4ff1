// Layer rungs: each times calls into one layer's public functions on a
// benchmark-built setup, repeating fixed-size trials until its time budget
// is spent and returning the median trial. Together with a workload's
// counts they give the attribution table (rung cost x op count / run_s).
#pragma once

#include <cstdint>

namespace perfbench {

// Median over trials, with the trial count.
struct Rung {
  double value = 0;
  int samples = 0;
};

// sim: Simulator::ScheduleAt/RunUntil driven with a workload's measured
// events per timestamp, cancel share (cancelled entries per executed event)
// and pending-queue size. Nanoseconds per executed event.
Rung SimNsPerEvent(double events_per_batch, double cancel_share,
                   double pending, double budget_s);

// sim: re-arming a live TimerWheel timer, as the RTO is re-armed on every
// ACK. Nanoseconds per Arm().
Rung WheelNsPerRearm(double budget_s);

// net: Link::Enqueue -> ToRSwitch -> FabricPort -> ToRSwitch -> Link ->
// Host::HandlePacket into a benchmark sink, on a benchmark-built two-rack
// Topology whose destination host has `endpoints` registered endpoints.
struct HopRung {
  Rung ns_per_pkt;
  double events_per_pkt = 0;  // simulator events one packet's trip costs
};
HopRung HopNs(std::uint32_t endpoints, double budget_s);

// tcp: one TDTCP sender/receiver pair on a two-rack Topology with no
// controller, its flight capped by the receive window at the workload's
// measured segments in flight (the scoreboard size sets the per-ACK cost).
// The clean trial has VOQs deep enough that nothing is lost, so every ACK is
// an in-order cumulative ACK; the lossy trial drops every 50th data segment
// on the fabric, so ACKs carry SACK blocks that open and extend holes. Times
// come from endpoint shims around HandlePacket.
struct AckRung {
  Rung ack_ns;   // per pure ACK at the sender (SACK ACKs in the lossy trial)
  Rung data_ns;  // per data segment at the receiver
};
AckRung AckNs(bool lossy, bool invariant_checks, double window_segments,
              double budget_s);

// app: one Connect -> AddAppData(one segment) -> Close -> both ends closed
// pair, including constructing and destroying both connections.
struct LifecycleRung {
  Rung us;
  double events = 0;   // simulator events per lifecycle
  double packets = 0;  // packets crossing the fabric per lifecycle
};
LifecycleRung LifecycleUs(double budget_s);

}  // namespace perfbench
