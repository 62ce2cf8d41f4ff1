// DCTCP (Alizadeh et al., SIGCOMM 2010 / RFC 8257): ECN-fraction-scaled
// window reduction. The switch CE-marks above a shallow threshold K; the
// receiver echoes marks per packet; the sender maintains an EWMA `alpha` of
// the marked-byte fraction per window and cuts cwnd by alpha/2 once per
// window (via the engine's CWR state, whose magnitude comes from SsThresh).
#pragma once

#include <memory>

#include "tdtcp/congestion_control.hpp"

namespace tdtcp {

class DctcpCc : public CongestionControl {
 public:
  struct Params {
    double g = 1.0 / 16.0;  // alpha EWMA gain
  };

  DctcpCc() = default;
  explicit DctcpCc(Params params) : params_(params) {}

  const char* name() const override { return "dctcp"; }
  void Reset() override { *this = DctcpCc(params_); }
  void Init(TdnState& s) override;
  std::uint32_t SsThresh(TdnState& s) override;
  void CongAvoid(TdnState& s, std::uint32_t acked, SimTime now) override;
  void OnAck(TdnState& s, const AckContext& ctx) override;
  bool WantsEcn() const override { return true; }

  double alpha() const { return alpha_; }

 private:
  Params params_;
  double alpha_ = 1.0;  // start conservative, as RFC 8257 recommends
  std::uint64_t window_end_seq_ = 0;
  std::uint64_t acked_bytes_total_ = 0;
  std::uint64_t acked_bytes_ecn_ = 0;
};

std::unique_ptr<CongestionControl> MakeDctcp();

}  // namespace tdtcp
