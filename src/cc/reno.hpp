// TCP NewReno congestion control: the RFC 5681 baseline (slow start, AIMD
// congestion avoidance, half-window ssthresh).
#pragma once

#include <memory>

#include "tdtcp/congestion_control.hpp"

namespace tdtcp {

class RenoCc : public CongestionControl {
 public:
  const char* name() const override { return "reno"; }
  void Reset() override { *this = RenoCc(); }
  std::uint32_t SsThresh(TdnState& s) override;
  void CongAvoid(TdnState& s, std::uint32_t acked, SimTime now) override;
};

std::unique_ptr<CongestionControl> MakeReno();

}  // namespace tdtcp
