// RDCN schedule and controller: day/night slots, TDN mapping, analytic
// capacity, fabric driving, notifications, reTCPdyn switch cooperation.
#include <gtest/gtest.h>

#include "net/topology.hpp"
#include "rdcn/controller.hpp"
#include "rdcn/schedule.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"

namespace tdtcp {
namespace {

using test::TdnCallback;

Schedule DefaultSchedule() { return Schedule(ScheduleConfig{}); }

TEST(Schedule, Lengths) {
  Schedule s = DefaultSchedule();
  EXPECT_EQ(s.slot_length(), SimTime::Micros(200));
  EXPECT_EQ(s.week_length(), SimTime::Micros(1400));
}

TEST(Schedule, SlotAtDayAndNight) {
  Schedule s = DefaultSchedule();
  auto day0 = s.SlotAt(SimTime::Micros(10));
  EXPECT_EQ(day0.day_index, 0u);
  EXPECT_FALSE(day0.night);
  EXPECT_FALSE(day0.circuit);
  EXPECT_EQ(day0.start, SimTime::Zero());
  EXPECT_EQ(day0.end, SimTime::Micros(180));

  auto night0 = s.SlotAt(SimTime::Micros(190));
  EXPECT_TRUE(night0.night);
  EXPECT_EQ(night0.start, SimTime::Micros(180));
  EXPECT_EQ(night0.end, SimTime::Micros(200));
}

TEST(Schedule, CircuitDaySlot) {
  Schedule s = DefaultSchedule();
  auto slot = s.SlotAt(SimTime::Micros(6 * 200 + 90));
  EXPECT_EQ(slot.day_index, 6u);
  EXPECT_TRUE(slot.circuit);
  EXPECT_FALSE(slot.night);
}

TEST(Schedule, WeeksRepeat) {
  Schedule s = DefaultSchedule();
  for (int w = 0; w < 5; ++w) {
    const SimTime base = s.week_length() * w;
    EXPECT_EQ(s.TdnAt(base + SimTime::Micros(100)), 0);
    EXPECT_EQ(s.TdnAt(base + SimTime::Micros(1250)), 1);
  }
}

TEST(Schedule, NightsAreTdnZeroEvenAroundCircuit) {
  Schedule s = DefaultSchedule();
  // Night after the circuit day.
  EXPECT_EQ(s.TdnAt(SimTime::Micros(1390)), 0);
  EXPECT_TRUE(s.BlackoutAt(SimTime::Micros(1390)));
  // Night before the circuit day.
  EXPECT_EQ(s.TdnAt(SimTime::Micros(1190)), 0);
}

TEST(Schedule, BoundariesExact) {
  Schedule s = DefaultSchedule();
  EXPECT_EQ(s.TdnAt(SimTime::Micros(1200)), 1);      // circuit day start
  EXPECT_EQ(s.TdnAt(SimTime::Micros(1379)), 1);      // last us of circuit day
  EXPECT_EQ(s.TdnAt(SimTime::Micros(1380)), 0);      // night begins
  EXPECT_FALSE(s.BlackoutAt(SimTime::Micros(1379)));
  EXPECT_TRUE(s.BlackoutAt(SimTime::Micros(1380)));
}

TEST(Schedule, OptimalBitsOneWeek) {
  Schedule s = DefaultSchedule();
  const double bits = s.OptimalBits(s.week_length(), 10e9, 100e9);
  // 6 packet days * 180us * 10G + 1 circuit day * 180us * 100G.
  const double expected = 6 * 180e-6 * 10e9 + 180e-6 * 100e9;
  EXPECT_NEAR(bits, expected, expected * 1e-9);
}

TEST(Schedule, OptimalBitsPartialWeek) {
  Schedule s = DefaultSchedule();
  // Half of day 0 only.
  EXPECT_NEAR(s.OptimalBits(SimTime::Micros(90), 10e9, 100e9), 90e-6 * 10e9, 1);
  // Day 0 + its night: night adds nothing.
  EXPECT_NEAR(s.OptimalBits(SimTime::Micros(200), 10e9, 100e9), 180e-6 * 10e9, 1);
  // Into the circuit day.
  const double into_circuit = s.OptimalBits(SimTime::Micros(1300), 10e9, 100e9);
  EXPECT_NEAR(into_circuit, 6 * 180e-6 * 10e9 + 100e-6 * 100e9, 10);
}

TEST(Schedule, OptimalBitsMonotone) {
  Schedule s = DefaultSchedule();
  double prev = -1;
  for (int us = 0; us <= 3000; us += 17) {
    const double bits = s.OptimalBits(SimTime::Micros(us), 10e9, 100e9);
    EXPECT_GE(bits, prev);
    prev = bits;
  }
}

TEST(Schedule, PacketOnlyIgnoresBlackouts) {
  Schedule s = DefaultSchedule();
  EXPECT_NEAR(s.PacketOnlyBits(s.week_length(), 10e9), 1400e-6 * 10e9, 1);
}

TEST(Schedule, CustomRatio) {
  ScheduleConfig sc;
  sc.num_days = 3;
  sc.circuit_day = 0;
  Schedule s(sc);
  EXPECT_EQ(s.week_length(), SimTime::Micros(600));
  EXPECT_EQ(s.TdnAt(SimTime::Micros(10)), 1);
  EXPECT_EQ(s.TdnAt(SimTime::Micros(210)), 0);
}

// ---------------------------------------------------------------------------
// Controller (driving a real topology)
// ---------------------------------------------------------------------------

struct ControllerFixture {
  ControllerFixture(bool dynamic_voq = false) : rng(1), topo(sim, rng, TopoCfg()) {
    RdcnController::Config rc;
    rc.packet_mode = topo.config().packet_mode;
    rc.circuit_mode = topo.config().circuit_mode;
    rc.dynamic_voq = dynamic_voq;
    controller = std::make_unique<RdcnController>(
        sim, rc,
        std::vector<FabricPort*>{topo.port(0, 1), topo.port(1, 0)},
        std::vector<ToRSwitch*>{topo.tor(0), topo.tor(1)});
  }

  static TopologyConfig TopoCfg() {
    TopologyConfig tc;
    tc.hosts_per_rack = 2;
    return tc;
  }

  Simulator sim;
  Random rng;
  Topology topo;
  std::unique_ptr<RdcnController> controller;
};

TEST(Controller, DrivesModesThroughWeek) {
  ControllerFixture f;
  f.controller->Start();
  f.sim.RunUntil(SimTime::Micros(100));  // packet day 0
  EXPECT_FALSE(f.topo.port(0, 1)->mode().circuit);
  EXPECT_FALSE(f.topo.port(0, 1)->blackout());

  f.sim.RunUntil(SimTime::Micros(190));  // night 0
  EXPECT_TRUE(f.topo.port(0, 1)->blackout());

  f.sim.RunUntil(SimTime::Micros(1250));  // circuit day
  EXPECT_TRUE(f.topo.port(0, 1)->mode().circuit);
  EXPECT_TRUE(f.topo.port(1, 0)->mode().circuit);
  EXPECT_FALSE(f.topo.port(0, 1)->blackout());

  f.sim.RunUntil(SimTime::Micros(1390));  // night after circuit
  EXPECT_TRUE(f.topo.port(0, 1)->blackout());

  f.sim.RunUntil(SimTime::Micros(1450));  // next week's day 0
  EXPECT_FALSE(f.topo.port(0, 1)->mode().circuit);
  EXPECT_FALSE(f.topo.port(0, 1)->blackout());
}

TEST(Controller, NotifiesOnlyOnTdnChanges) {
  ControllerFixture f;
  std::vector<std::pair<SimTime, TdnId>> notifications;
  TdnCallback listener([&](TdnId t, bool imm) {
    if (!imm) notifications.push_back({f.sim.now(), t});
  });
  f.topo.host(0, 0)->AddTdnListener(&listener);
  f.controller->Start();
  f.sim.RunUntil(SimTime::Micros(2800));  // two weeks
  // Exactly 2 changes per week: ->1 at circuit start, ->0 at circuit end.
  ASSERT_EQ(notifications.size(), 4u);
  EXPECT_EQ(notifications[0].second, 1);
  EXPECT_EQ(notifications[1].second, 0);
  // Timing: TDN 1 shortly after 1200us, TDN 0 shortly after 1380us.
  EXPECT_GE(notifications[0].first, SimTime::Micros(1200));
  EXPECT_LT(notifications[0].first, SimTime::Micros(1205));
  EXPECT_GE(notifications[1].first, SimTime::Micros(1380));
  EXPECT_LT(notifications[1].first, SimTime::Micros(1385));
}

TEST(Controller, ActiveTdnQueryMatchesSchedule) {
  ControllerFixture f;
  f.controller->Start();
  f.sim.RunUntil(SimTime::Micros(10));
  EXPECT_EQ(f.controller->ActiveTdn(SimTime::Micros(1250)), 1);
  EXPECT_EQ(f.controller->ActiveTdn(SimTime::Micros(100)), 0);
  EXPECT_TRUE(f.controller->BlackoutAt(SimTime::Micros(190)));
}

TEST(Controller, DynamicVoqResizesAhead) {
  ControllerFixture f(/*dynamic_voq=*/true);
  f.controller->Start();
  // Before the advance point the VOQ is at its configured size.
  f.sim.RunUntil(SimTime::Micros(1040));
  EXPECT_EQ(f.topo.port(0, 1)->voq().capacity(), 16u);
  // 150us ahead of the circuit day (1200), i.e., from 1050 on: enlarged.
  f.sim.RunUntil(SimTime::Micros(1060));
  EXPECT_EQ(f.topo.port(0, 1)->voq().capacity(), 50u);
  // Restored at circuit teardown.
  f.sim.RunUntil(SimTime::Micros(1390));
  EXPECT_EQ(f.topo.port(0, 1)->voq().capacity(), 16u);
}

TEST(Controller, DynamicVoqSendsImminentNotice) {
  ControllerFixture f(/*dynamic_voq=*/true);
  std::vector<SimTime> imminents;
  TdnCallback listener([&](TdnId, bool imm) {
    if (imm) imminents.push_back(f.sim.now());
  });
  f.topo.host(0, 0)->AddTdnListener(&listener);
  f.controller->Start();
  f.sim.RunUntil(SimTime::Micros(2800));
  ASSERT_EQ(imminents.size(), 2u);
  EXPECT_GE(imminents[0], SimTime::Micros(1050));
  EXPECT_LT(imminents[0], SimTime::Micros(1055));
}

TEST(Controller, CountsReconfigurations) {
  ControllerFixture f;
  f.controller->Start();
  f.sim.RunUntil(SimTime::Micros(1400));
  EXPECT_EQ(f.controller->reconfigurations(), 8u);  // days 0..6 + next day 0
}

}  // namespace
}  // namespace tdtcp
