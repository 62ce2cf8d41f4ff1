// Simulator core: time arithmetic, event ordering, cancellation, clock
// correctness (callbacks must observe their own event's time), determinism.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace tdtcp {
namespace {

TEST(SimTime, UnitConversions) {
  EXPECT_EQ(SimTime::Nanos(1).picos(), 1'000);
  EXPECT_EQ(SimTime::Micros(1).nanos(), 1'000);
  EXPECT_EQ(SimTime::Millis(1).micros(), 1'000);
  EXPECT_EQ(SimTime::Seconds(1).millis(), 1'000);
  EXPECT_DOUBLE_EQ(SimTime::Micros(2).seconds(), 2e-6);
  EXPECT_DOUBLE_EQ(SimTime::MicrosF(1.5).micros_f(), 1.5);
}

TEST(SimTime, Arithmetic) {
  const SimTime a = SimTime::Micros(10);
  const SimTime b = SimTime::Micros(4);
  EXPECT_EQ((a + b).micros(), 14);
  EXPECT_EQ((a - b).micros(), 6);
  EXPECT_EQ((a * 3).micros(), 30);
  EXPECT_EQ((a / 2).micros(), 5);
  EXPECT_EQ(a / b, 2);
  EXPECT_EQ((a % b).micros(), 2);
  EXPECT_LT(b, a);
  EXPECT_TRUE(SimTime::Zero().IsZero());
}

TEST(SimTime, TransmissionTimeExact) {
  // 1500 bytes at 100 Gbps = 120 ns exactly.
  EXPECT_EQ(TransmissionTime(1500, 100'000'000'000).nanos(), 120);
  // 9000 bytes at 10 Gbps = 7.2 us.
  EXPECT_EQ(TransmissionTime(9000, 10'000'000'000).nanos(), 7200);
  // One byte at 1 bps = 8 seconds.
  EXPECT_EQ(TransmissionTime(1, 1).picos(), 8'000'000'000'000);
}

TEST(SimTime, ToStringPicksUnit) {
  EXPECT_EQ(SimTime::Micros(3).ToString(), "3us");
  EXPECT_EQ(SimTime::Nanos(5).ToString(), "5ns");
  EXPECT_EQ(SimTime::Picos(7).ToString(), "7ps");
}

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(SimTime::Micros(3), [&] { order.push_back(3); });
  q.Schedule(SimTime::Micros(1), [&] { order.push_back(1); });
  q.Schedule(SimTime::Micros(2), [&] { order.push_back(2); });
  SimTime now = SimTime::Zero();
  std::vector<SimTime> times;
  while (!q.Empty()) {
    q.RunNext(now);
    times.push_back(now);
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(times, (std::vector<SimTime>{SimTime::Micros(1), SimTime::Micros(2),
                                         SimTime::Micros(3)}));
}

TEST(EventQueue, SameTimeIsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.Schedule(SimTime::Micros(5), [&order, i] { order.push_back(i); });
  }
  SimTime now = SimTime::Zero();
  while (!q.Empty()) q.RunNext(now);
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CancelSkipsEvent) {
  EventQueue q;
  bool ran = false;
  EventId id = q.Schedule(SimTime::Micros(1), [&] { ran = true; });
  EXPECT_EQ(q.size(), 1u);
  q.Cancel(id);
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(q.NextTime(), SimTime::Max());
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelFiredIdIsNoOp) {
  EventQueue q;
  EventId id = q.Schedule(SimTime::Micros(1), [] {});
  SimTime now = SimTime::Zero();
  q.RunNext(now);
  q.Cancel(id);  // already fired
  q.Cancel(kInvalidEventId);
  q.Cancel(9999);  // never existed
  q.Schedule(SimTime::Micros(2), [] {});
  EXPECT_EQ(q.size(), 1u);  // count not corrupted
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  EventId early = q.Schedule(SimTime::Micros(1), [] {});
  q.Schedule(SimTime::Micros(5), [] {});
  q.Cancel(early);
  EXPECT_EQ(q.NextTime(), SimTime::Micros(5));
}

TEST(Simulator, CallbackSeesItsOwnEventTime) {
  // Regression: callbacks must observe the event's time, not the previous
  // event's — otherwise every relative schedule drifts early.
  Simulator sim;
  SimTime observed = SimTime::Zero();
  sim.Schedule(SimTime::Micros(1), [] {});  // an earlier event
  sim.Schedule(SimTime::Micros(10), [&] { observed = sim.now(); });
  sim.Run();
  EXPECT_EQ(observed, SimTime::Micros(10));
}

TEST(Simulator, RelativeScheduleChainsExactly) {
  // A self-rescheduling 200 us cycle must not drift over many iterations.
  Simulator sim;
  int fires = 0;
  std::function<void()> tick = [&] {
    ++fires;
    if (fires < 1000) sim.Schedule(SimTime::Micros(200), tick);
  };
  sim.Schedule(SimTime::Micros(200), tick);
  sim.Run();
  EXPECT_EQ(fires, 1000);
  EXPECT_EQ(sim.now(), SimTime::Micros(200'000));
}

TEST(Simulator, RunUntilAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(SimTime::Micros(5), [&] { ++fired; });
  sim.Schedule(SimTime::Micros(15), [&] { ++fired; });
  sim.RunUntil(SimTime::Micros(10));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), SimTime::Micros(10));
  sim.RunUntil(SimTime::Micros(20));
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, StopHaltsRun) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(SimTime::Micros(1), [&] {
    ++fired;
    sim.Stop();
  });
  sim.Schedule(SimTime::Micros(2), [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulator, ZeroDelayRunsAfterCurrentEvent) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(SimTime::Micros(1), [&] {
    order.push_back(1);
    sim.Schedule(SimTime::Zero(), [&] { order.push_back(2); });
    order.push_back(3);
  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(Simulator, ScheduleInThePastThrows) {
  // A past-time schedule is always a caller bug (an event that could never
  // fire in real time); it must fail loudly, not silently warp the clock or
  // assert only in debug builds.
  Simulator sim;
  sim.Schedule(SimTime::Micros(10), [] {});
  sim.RunUntil(SimTime::Micros(20));
  EXPECT_THROW(sim.ScheduleAt(SimTime::Micros(5), [] {}), std::logic_error);
  // The diagnostic names both times so the offending callsite is findable.
  try {
    sim.ScheduleAt(SimTime::Micros(5), [] {});
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("past"), std::string::npos);
    EXPECT_NE(what.find("at="), std::string::npos);
    EXPECT_NE(what.find("now="), std::string::npos);
  }
  // Scheduling exactly at `now` remains legal (zero-delay events).
  EXPECT_NO_THROW(sim.ScheduleAt(sim.now(), [] {}));
}

TEST(Simulator, CancelPendingTimer) {
  Simulator sim;
  bool fired = false;
  EventId id = sim.Schedule(SimTime::Micros(10), [&] { fired = true; });
  sim.Schedule(SimTime::Micros(5), [&] { sim.Cancel(id); });
  sim.Run();
  EXPECT_FALSE(fired);
}

}  // namespace
}  // namespace tdtcp
