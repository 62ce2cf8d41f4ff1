// The paper's two-rack fabric on the shared week clock (FabricScheduler):
// at each boundary it switches the rack pair's fabric ports between packet
// and circuit mode, blacks them out during reconfiguration, emits the
// ToR-generated TDN-change notifications (§3.2), and implements reTCPdyn's
// switch cooperation (VOQ enlargement + advance ramp notice, §5.2). On top
// of the clock's shared ScheduleChange fields it applies circuit_day.
#pragma once

#include <cstdint>
#include <vector>

#include "net/fabric_port.hpp"
#include "net/tor_switch.hpp"
#include "rdcn/fabric_scheduler.hpp"
#include "rdcn/schedule.hpp"
#include "sim/simulator.hpp"
#include "trace/tracepoints.hpp"

namespace tdtcp {

class RdcnController : public FabricScheduler {
 public:
  struct Config : CommonConfig {
    ScheduleConfig schedule;
    // reTCPdyn switch support: enlarge the VOQ kResizeAdvance before each
    // circuit day and send a circuit-imminent notification so senders
    // pre-fill the queue; restore at circuit teardown.
    bool dynamic_voq = false;
  };

  static constexpr SimTime kResizeAdvance = SimTime::Micros(150);
  static constexpr std::uint32_t kEnlargedVoqPackets = 50;

  // `ports` are the fabric ports of the observed rack pair (both
  // directions); `tors` the switches whose hosts should be notified.
  // Throws std::invalid_argument when `ports` is empty (was an NDEBUG-silent
  // assert) or the perturbation config is malformed.
  RdcnController(Simulator& sim, Config config, std::vector<FabricPort*> ports,
                 std::vector<ToRSwitch*> tors);

  // Schedule queries relative to the start time. Under an active
  // perturbation these describe the *nominal* schedule; the perturbed
  // boundary times live only in the event stream (and the tracepoints).
  TdnId ActiveTdn(SimTime t) const { return schedule_.TdnAt(Elapsed(t)); }
  bool BlackoutAt(SimTime t) const { return schedule_.BlackoutAt(Elapsed(t)); }

  std::uint32_t reconfigurations() const { return reconfigurations_; }

 private:
  // Day/night boundaries also emit kRdcnDayStart (a0=tdn, a1=day index,
  // a2=circuit day) and kRdcnNightStart (a0=day index, a1=was circuit day).
  void BeginDay(std::uint32_t day, SimTime length) override;
  void BeginNight(std::uint32_t day) override;
  void ApplyFabricChange(const ScheduleChange& change) override;
  void NotifyAll(TdnId tdn, bool imminent = false);
  void ResizeVoqs(std::uint32_t packets);

  Schedule schedule_;  // nominal; circuit_day_ follows ScheduleChanges
  std::uint32_t circuit_day_;
  bool dynamic_voq_;
  std::uint32_t reconfigurations_ = 0;
  std::vector<FabricPort*> ports_;
  std::vector<ToRSwitch*> tors_;
  std::uint32_t normal_voq_packets_ = 16;
  TdnId last_notified_tdn_ = 0;
  // Notification generation number: stamped into every ICMP so hosts can
  // discard duplicated/reordered/stale deliveries (Packet::notify_seq).
  std::uint64_t notify_seq_ = 0;
};

}  // namespace tdtcp
