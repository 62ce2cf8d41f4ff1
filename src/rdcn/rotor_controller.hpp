// Multi-rack demand-oblivious rotation (RotorNet-style, §6) on the shared
// week clock (FabricScheduler): each day the OCS realizes one perfect
// matching over the racks; cycling through all N-1 matchings provides
// full-mesh connectivity once per week.
//
// This extends the paper's two-rack evaluation fabric: ToRs issue
// per-destination TDN notifications (the ICMP additionally scopes the
// change to one remote rack), so a host's flows to different racks keep
// independent, correctly-sequenced TDN views. On top of the clock's shared
// ScheduleChange fields it applies reshuffle_matchings.
#pragma once

#include <cstdint>
#include <vector>

#include "net/topology.hpp"
#include "rdcn/fabric_scheduler.hpp"
#include "sim/simulator.hpp"

namespace tdtcp {

class RotorController : public FabricScheduler {
 public:
  struct Config : CommonConfig {
    SimTime day_length = SimTime::Micros(180);
    SimTime night_length = SimTime::Micros(20);
  };

  // Drives every fabric port of `topo` (requires an even rack count >= 2).
  RotorController(Simulator& sim, Config config, Topology* topo);

  std::uint32_t num_matchings() const {
    return static_cast<std::uint32_t>(matchings_.size());
  }

  // The rack matched with `rack` on matching `day` (round-robin tournament).
  RackId PartnerOf(std::uint32_t day, RackId rack) const {
    return matchings_[day][rack];
  }

 private:
  void BuildMatchings();
  void ReshuffleMatchings();
  void BeginDay(std::uint32_t day, SimTime length) override;
  void BeginNight(std::uint32_t day) override;
  void ApplyFabricChange(const ScheduleChange& change) override;

  Topology* topo_;
  // matchings_[day][rack] = partner rack.
  std::vector<std::vector<RackId>> matchings_;
  // Per-peer-scope sequencing happens at the hosts; one shared generation
  // counter is enough for monotonicity within each scope.
  std::uint64_t notify_seq_ = 0;
};

}  // namespace tdtcp
