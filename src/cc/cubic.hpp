// CUBIC congestion control (Ha, Rhee, Xu 2008), ported from the Linux
// tcp_cubic.c essentials: cubic window growth around the last-max origin
// point, fast convergence, TCP-friendliness (Reno-equivalent floor), and
// epoch-shift compensation for idle/inactive periods so a TDTCP TDN resumes
// its growth curve from the checkpoint instead of fast-forwarding through
// the time it was inactive. HyStart is intentionally omitted (documented in
// DESIGN.md); at data-center RTTs slow start exits via ssthresh/loss.
#pragma once

#include <memory>

#include "tdtcp/congestion_control.hpp"

namespace tdtcp {

class CubicCc : public CongestionControl {
 public:
  const char* name() const override { return "cubic"; }
  void Reset() override { *this = CubicCc(); }
  void Init(TdnState& s) override;
  std::uint32_t SsThresh(TdnState& s) override;
  void CongAvoid(TdnState& s, std::uint32_t acked, SimTime now) override;
  void OnAck(TdnState& s, const AckContext& ctx) override;
  void OnCwndEvent(TdnState& s, CwndEvent ev) override;
  void OnRetransmitTimeout(TdnState& s) override;

  double last_max_cwnd() const { return last_max_cwnd_; }

 protected:
  void ResetEpoch();
  // Computes the per-ACK increment divisor `cnt` (Linux bictcp_update).
  std::uint32_t Update(TdnState& s, std::uint32_t acked, SimTime now);

  // CUBIC constants (Linux defaults).
  static constexpr double kBeta = 717.0 / 1024.0;  // multiplicative decrease
  static constexpr double kC = 0.4;                // scaling constant

  double last_max_cwnd_ = 0;
  double origin_point_ = 0;
  double k_seconds_ = 0;
  SimTime epoch_start_ = SimTime::Zero();
  SimTime last_ack_ = SimTime::Zero();
  double delay_min_s_ = 0;  // min RTT seen, seconds (0 = none)
  double tcp_cwnd_ = 0;     // Reno-friendliness estimator
  double ack_cnt_ = 0;
  bool pending_idle_shift_ = false;  // shift epoch by idle time at next Update
};

std::unique_ptr<CongestionControl> MakeCubic();

}  // namespace tdtcp
