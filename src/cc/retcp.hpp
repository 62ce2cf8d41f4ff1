// reTCP (Mukerjee et al., NSDI 2020): single-path TCP with explicit switch
// support for RDCNs. ToRs mark packets with the network that carried them;
// the receiver echoes the mark, and the sender multiplicatively scales its
// window when the flow moves on/off the optical circuit. The "dyn" variant
// additionally reacts to the ToR's circuit-imminent advance notice (sent
// when the switch enlarges its VOQ) by pre-ramping, so the enlarged queue is
// pre-filled and the flow bursts at circuit rate the moment the circuit
// activates (§5.2's "retcpdyn").
#pragma once

#include <memory>

#include "cc/cubic.hpp"

namespace tdtcp {

class RetcpCc : public CubicCc {
 public:
  struct Params {
    // cwnd multiplier on circuit-up: roughly the BDP ratio between the
    // optical and packet TDNs (100G*40us / 10G*100us = 4).
    double ramp_factor = 4.0;
    bool react_to_imminent = false;  // the "dyn" behaviour
  };

  RetcpCc() = default;
  explicit RetcpCc(Params params) : params_(params) {}

  const char* name() const override {
    return params_.react_to_imminent ? "retcpdyn" : "retcp";
  }
  void Reset() override { *this = RetcpCc(params_); }

  void OnCircuitTransition(TdnState& s, bool circuit_up, bool imminent) override;

 private:
  void RampUp(TdnState& s);
  void RampDown(TdnState& s);

  Params params_;
  bool ramped_ = false;
  std::uint32_t pre_ramp_cwnd_ = 0;
  std::uint32_t pre_ramp_ssthresh_ = 0;
};

std::unique_ptr<CongestionControl> MakeRetcp();
std::unique_ptr<CongestionControl> MakeRetcpDyn();

}  // namespace tdtcp
