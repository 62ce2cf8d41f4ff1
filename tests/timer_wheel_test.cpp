// The per-host hierarchical timer wheel (sim/timer_wheel.hpp), asserted
// against its determinism contract: Arm returns the exact quantized fire
// time, entries parked at coarse levels cascade down and still fire on the
// exact tick, timers sharing a tick fire in FIFO arm order — the same order
// the Simulator's event heap gives same-time events — rearm replaces the
// pending deadline without ghost fires, disarm is idempotent, and a
// 10k-timer arm/rearm/disarm soak allocates nothing after warmup.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <new>
#include <numeric>
#include <utility>
#include <vector>

#include "alloc_harness.hpp"
#include "sim/simulator.hpp"
#include "sim/timer_wheel.hpp"

namespace tdtcp {
namespace {

using test::AllocDelta;
using test::CountAllocations;

constexpr std::int64_t kTickPs = std::int64_t{1} << TimerWheel::kTickShift;

SimTime Ticks(std::int64_t n) { return SimTime::Picos(n * kTickPs); }

// A probe timer that logs (id, fire time) into a shared journal.
struct Probe {
  Simulator* sim = nullptr;
  std::vector<std::pair<int, SimTime>>* log = nullptr;
  int id = 0;
  TimerWheel::Timer timer;

  void Wire(Simulator& s, std::vector<std::pair<int, SimTime>>& l, int i) {
    sim = &s;
    log = &l;
    id = i;
    timer.Init(this, &Fire);
  }
  static void Fire(void* self) {
    auto* p = static_cast<Probe*>(self);
    p->log->emplace_back(p->id, p->sim->now());
  }
};

// ---------------------------------------------------------------------------
// Quantization: Arm's return value IS the fire time
// ---------------------------------------------------------------------------

TEST(WheelQuantize, ArmRoundsUpAndFiresExactlyAtReturnedTime) {
  Simulator sim;
  TimerWheel wheel(sim);
  std::vector<std::pair<int, SimTime>> log;
  Probe p;
  p.Wire(sim, log, 0);

  // Mid-tick deadline rounds UP to the next boundary.
  const SimTime ret = wheel.Arm(p.timer, Ticks(3) + SimTime::Picos(7));
  EXPECT_EQ(ret, Ticks(4));
  EXPECT_EQ(p.timer.deadline(), ret);
  sim.Run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].second, ret);
  EXPECT_EQ(wheel.fired(), 1u);
}

TEST(WheelQuantize, ExactBoundaryDeadlineIsNotPushed) {
  Simulator sim;
  TimerWheel wheel(sim);
  std::vector<std::pair<int, SimTime>> log;
  Probe p;
  p.Wire(sim, log, 0);
  const SimTime ret = wheel.Arm(p.timer, Ticks(5));
  EXPECT_EQ(ret, Ticks(5));
  sim.Run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].second, Ticks(5));
}

TEST(WheelQuantize, PastDeadlineFiresAtNextTickBoundary) {
  Simulator sim;
  TimerWheel wheel(sim);
  std::vector<std::pair<int, SimTime>> log;
  Probe p;
  p.Wire(sim, log, 0);
  // "Now" (and anything earlier) cannot fire this tick from outside the
  // driver; the wheel pushes it to the next boundary and says so.
  const SimTime ret = wheel.Arm(p.timer, SimTime::Zero());
  EXPECT_EQ(ret, Ticks(1));
  sim.Run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].second, Ticks(1));
}

// ---------------------------------------------------------------------------
// Disarm / rearm semantics
// ---------------------------------------------------------------------------

TEST(WheelDisarm, IsIdempotentAndSuppressesTheFire) {
  Simulator sim;
  TimerWheel wheel(sim);
  std::vector<std::pair<int, SimTime>> log;
  Probe p;
  p.Wire(sim, log, 0);

  wheel.Disarm(p.timer);  // never armed: no-op
  EXPECT_EQ(wheel.armed_count(), 0u);

  wheel.Arm(p.timer, Ticks(10));
  EXPECT_TRUE(p.timer.armed());
  EXPECT_EQ(wheel.armed_count(), 1u);
  wheel.Disarm(p.timer);
  wheel.Disarm(p.timer);  // teardown paths disarm unconditionally
  EXPECT_FALSE(p.timer.armed());
  EXPECT_EQ(wheel.armed_count(), 0u);

  sim.Run();
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(wheel.fired(), 0u);
}

TEST(WheelRearm, ReplacesPendingDeadlineBothDirections) {
  Simulator sim;
  TimerWheel wheel(sim);
  std::vector<std::pair<int, SimTime>> log;
  Probe p;
  p.Wire(sim, log, 0);

  // Push out: the original deadline must not fire.
  wheel.Arm(p.timer, Ticks(10));
  const SimTime later = wheel.Arm(p.timer, Ticks(20));
  EXPECT_EQ(wheel.armed_count(), 1u);
  sim.Run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].second, later);

  // Pull in: rearm to an earlier tick fires early, once.
  log.clear();
  wheel.Arm(p.timer, sim.now() + Ticks(50));
  const SimTime sooner = wheel.Arm(p.timer, sim.now() + Ticks(5));
  sim.Run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].second, sooner);
  EXPECT_LT(sooner, sim.now() + Ticks(50));
}

TEST(WheelRearm, FromInsideCallbackKeepsRunning) {
  // The production shape: RTO re-arms itself from its own fire path.
  struct Periodic {
    Simulator* sim;
    TimerWheel* wheel;
    int fires = 0;
    TimerWheel::Timer timer{};
    static void Fire(void* self) {
      auto* p = static_cast<Periodic*>(self);
      if (++p->fires < 5) {
        p->wheel->Arm(p->timer, p->sim->now() + Ticks(3));
      }
    }
  };
  Simulator sim;
  TimerWheel wheel(sim);
  Periodic p{&sim, &wheel};
  p.timer.Init(&p, &Periodic::Fire);
  wheel.Arm(p.timer, Ticks(3));
  sim.Run();
  EXPECT_EQ(p.fires, 5);
  EXPECT_EQ(wheel.fired(), 5u);
  EXPECT_EQ(wheel.armed_count(), 0u);
}

// ---------------------------------------------------------------------------
// Cascading across levels
// ---------------------------------------------------------------------------

TEST(WheelCascade, CoarseEntriesCascadeDownAndFireOnTheExactTick) {
  Simulator sim;
  TimerWheel wheel(sim);
  std::vector<std::pair<int, SimTime>> log;
  // Level 0 holds deltas < 64 ticks, level 1 < 64^2, level 2 < 64^3; park
  // one entry in each and a far one at level 2 with a non-zero low digit so
  // the cascade has real re-placement to do.
  const std::int64_t deltas[] = {7, 100, 64 * 64 * 3 + 64 * 5 + 9};
  std::vector<Probe> probes(3);
  std::vector<SimTime> expect;
  for (int i = 0; i < 3; ++i) {
    probes[i].Wire(sim, log, i);
    expect.push_back(wheel.Arm(probes[i].timer, Ticks(deltas[i])));
    EXPECT_EQ(expect.back(), Ticks(deltas[i]));
  }
  sim.Run();
  ASSERT_EQ(log.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(log[i].first, i) << "fired out of deadline order";
    EXPECT_EQ(log[i].second, expect[i]) << "cascade shifted the fire time";
  }
  // The far entry descended level 2 -> 1 -> 0: at least two cascade hops.
  EXPECT_GE(wheel.cascades(), 2u);
  EXPECT_EQ(wheel.fired(), 3u);
  EXPECT_EQ(wheel.armed_count(), 0u);
}

TEST(WheelCascade, DisarmReachesEntriesParkedAtCoarseLevels) {
  Simulator sim;
  TimerWheel wheel(sim);
  std::vector<std::pair<int, SimTime>> log;
  Probe far, near;
  far.Wire(sim, log, 0);
  near.Wire(sim, log, 1);
  wheel.Arm(far.timer, Ticks(64 * 64 * 2));  // parks at level 2
  wheel.Arm(near.timer, Ticks(3));
  wheel.Disarm(far.timer);
  sim.Run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].first, 1);
}

// ---------------------------------------------------------------------------
// Intra-slot ordering: FIFO, matching the event-heap reference
// ---------------------------------------------------------------------------

TEST(WheelOrder, SameTickFiresInArmOrderMatchingEventHeap) {
  // 32 wheel timers and 32 reference heap events, created in the same
  // interleaved loop, all due at the same quantized instant. Both worlds
  // promise same-time FIFO; the wheel must agree with the heap exactly,
  // so swapping one for the other cannot reorder a trace.
  Simulator sim;
  TimerWheel wheel(sim);
  std::vector<std::pair<int, SimTime>> log;
  std::vector<int> heap_order;
  std::vector<Probe> probes(32);
  for (int i = 0; i < 32; ++i) {
    probes[i].Wire(sim, log, i);
    const SimTime at = wheel.Arm(probes[i].timer, Ticks(40));
    sim.ScheduleAt(at, [&heap_order, i] { heap_order.push_back(i); });
  }
  sim.Run();
  std::vector<int> want(32);
  std::iota(want.begin(), want.end(), 0);
  std::vector<int> wheel_order;
  for (const auto& [id, t] : log) {
    EXPECT_EQ(t, Ticks(40));
    wheel_order.push_back(id);
  }
  EXPECT_EQ(wheel_order, want);
  EXPECT_EQ(heap_order, wheel_order);
}

TEST(WheelOrder, RearmMovesToTailOfItsSlot) {
  Simulator sim;
  TimerWheel wheel(sim);
  std::vector<std::pair<int, SimTime>> log;
  std::vector<Probe> probes(3);
  for (int i = 0; i < 3; ++i) {
    probes[i].Wire(sim, log, i);
    wheel.Arm(probes[i].timer, Ticks(10));
  }
  // Rearming to the same deadline is still "newest arm": FIFO position is
  // by last arm, which is what makes replay independent of prior history.
  wheel.Arm(probes[1].timer, Ticks(10));
  sim.Run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0].first, 0);
  EXPECT_EQ(log[1].first, 2);
  EXPECT_EQ(log[2].first, 1);
}

TEST(WheelOrder, ScatteredDeadlinesMatchEventHeapSequence) {
  // 200 timers at LCG-scattered deadlines (some colliding, some cascading)
  // against the same 200 deadlines on the Simulator heap: the two complete
  // firing sequences must be identical, and every wheel fire must land on
  // its Arm-returned instant.
  Simulator sim;
  TimerWheel wheel(sim);
  std::vector<std::pair<int, SimTime>> log;
  std::vector<int> heap_order;
  std::vector<Probe> probes(200);
  std::vector<SimTime> expect(200);
  std::uint64_t lcg = 12345;
  for (int i = 0; i < 200; ++i) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    // Deltas spanning level 0 through level 2, deliberately non-aligned.
    const std::int64_t delta = 1 + static_cast<std::int64_t>(
                                       (lcg >> 33) % (64 * 64 * 4));
    probes[i].Wire(sim, log, i);
    expect[i] = wheel.Arm(probes[i].timer, Ticks(delta) - SimTime::Picos(1));
    sim.ScheduleAt(expect[i], [&heap_order, i] { heap_order.push_back(i); });
  }
  sim.Run();
  ASSERT_EQ(log.size(), 200u);
  std::vector<int> wheel_order;
  for (const auto& [id, t] : log) {
    EXPECT_EQ(t, expect[id]) << "timer " << id << " missed its quantized slot";
    wheel_order.push_back(id);
  }
  EXPECT_EQ(heap_order, wheel_order);
  // Fire times are non-decreasing and tick-aligned.
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log[i].second.picos() % kTickPs, 0);
    if (i > 0) {
      EXPECT_GE(log[i].second, log[i - 1].second);
    }
  }
}

// ---------------------------------------------------------------------------
// Lifetime safety
// ---------------------------------------------------------------------------

TEST(WheelLifetime, TimerDestructorDisarmsItself) {
  Simulator sim;
  TimerWheel wheel(sim);
  std::vector<std::pair<int, SimTime>> log;
  {
    Probe p;
    p.Wire(sim, log, 0);
    wheel.Arm(p.timer, Ticks(10));
    EXPECT_EQ(wheel.armed_count(), 1u);
  }
  EXPECT_EQ(wheel.armed_count(), 0u);
  sim.Run();
  EXPECT_TRUE(log.empty());
}

TEST(WheelLifetime, WheelDestructorOrphansArmedTimers) {
  Simulator sim;
  std::vector<std::pair<int, SimTime>> log;
  Probe p;
  {
    TimerWheel wheel(sim);
    p.Wire(sim, log, 0);
    wheel.Arm(p.timer, Ticks(64 * 64));
    EXPECT_TRUE(p.timer.armed());
  }
  // The wheel died first: the entry is orphaned, not dangling, and the
  // probe's own destructor later finds an unarmed timer.
  EXPECT_FALSE(p.timer.armed());
  sim.Run();
  EXPECT_TRUE(log.empty());
}

// The wheel never writes its slot table up front: a slot's pointers are read
// only while its occupancy bit is set. Two wheels built over storage filled
// with different bytes must therefore run the same script identically, and a
// read of a never-written slot (a 0xA5 pattern is not a valid pointer) would
// crash the second one.
struct ScriptTimer {
  Simulator* sim = nullptr;
  TimerWheel* wheel = nullptr;
  std::vector<std::pair<SimTime, int>>* log = nullptr;
  int id = 0;
  ScriptTimer* arm_now = nullptr;  // armed for this very tick from Fire
  TimerWheel::Timer timer;

  static void Fire(void* self) {
    auto* t = static_cast<ScriptTimer*>(self);
    t->log->emplace_back(t->sim->now(), t->id);
    if (t->arm_now != nullptr) t->wheel->Arm(t->arm_now->timer, t->sim->now());
  }
};

std::vector<std::pair<SimTime, int>> RunScriptOverStorage(unsigned char fill) {
  alignas(TimerWheel) unsigned char storage[sizeof(TimerWheel)];
  // Volatile stores, so the fill cannot be dropped as dead before the
  // constructor runs.
  volatile unsigned char* bytes = storage;
  for (std::size_t i = 0; i < sizeof(storage); ++i) bytes[i] = fill;

  Simulator sim;
  std::vector<std::pair<SimTime, int>> log;
  std::vector<ScriptTimer> timers(13);
  TimerWheel* wheel = new (storage) TimerWheel(sim);
  for (int i = 0; i < static_cast<int>(timers.size()); ++i) {
    ScriptTimer& t = timers[i];
    t.sim = &sim;
    t.wheel = wheel;
    t.log = &log;
    t.id = i;
    t.timer.Init(&t, &ScriptTimer::Fire);
  }
  constexpr std::int64_t kL1 = 64, kL2 = 64 * 64, kL3 = 64 * 64 * 64;
  wheel->Arm(timers[0].timer, Ticks(5));                // level 0
  wheel->Arm(timers[1].timer, Ticks(100));              // level 1
  wheel->Arm(timers[2].timer, Ticks(2 * kL2 + 70));     // level 2
  wheel->Arm(timers[3].timer, Ticks(2 * kL3 + 5));      // level 3
  wheel->Arm(timers[4].timer, Ticks(40));               // rearmed outward
  wheel->Arm(timers[4].timer, Ticks(kL2 + 3));
  wheel->Arm(timers[5].timer, Ticks(7 * kL1));          // disarmed
  wheel->Disarm(timers[5].timer);
  wheel->Arm(timers[6].timer, Ticks(5 * kL2));          // rearmed inward
  wheel->Arm(timers[6].timer, Ticks(20));
  timers[7].arm_now = &timers[8];                       // 8 joins 7's tick
  wheel->Arm(timers[7].timer, Ticks(30));
  wheel->Arm(timers[9].timer, Ticks(3 * kL3 * 64));     // parked, level 4
  wheel->Arm(timers[10].timer, Ticks(40 * kL3));        // parked, level 3
  sim.RunUntil(Ticks(3 * kL3));
  EXPECT_GE(wheel->cascades(), 3u);
  wheel->Arm(timers[11].timer, sim.now() + Ticks(10 * kL2));       // level 2
  wheel->Arm(timers[12].timer, sim.now() + Ticks(kL3 * 64 * 64));  // level 5
  EXPECT_EQ(wheel->armed_count(), 4u);

  wheel->~TimerWheel();
  for (const ScriptTimer& t : timers) {
    EXPECT_FALSE(t.timer.armed()) << "timer " << t.id;
  }
  return log;
}

TEST(WheelLifetime, UninitialisedSlotStorageIsNeverRead) {
  const auto zeroed = RunScriptOverStorage(0x00);
  const auto patterned = RunScriptOverStorage(0xA5);
  EXPECT_EQ(zeroed, patterned);
  const std::vector<std::pair<SimTime, int>> expect = {
      {Ticks(5), 0},   {Ticks(20), 6},  {Ticks(30), 7},
      {Ticks(30), 8},  {Ticks(100), 1}, {Ticks(64 * 64 + 3), 4},
      {Ticks(2 * 64 * 64 + 70), 2},     {Ticks(2 * 64 * 64 * 64 + 5), 3}};
  EXPECT_EQ(zeroed, expect);
}

// ---------------------------------------------------------------------------
// Zero steady-state allocation (tentpole acceptance)
// ---------------------------------------------------------------------------

// Self-rearming soak timer: counts fires, rearms with its own period until
// its budget runs out. Periods are scattered so the soak exercises level-0
// slots, cascades, and the driver's cancel/reschedule churn together.
struct SoakTimer {
  Simulator* sim = nullptr;
  TimerWheel* wheel = nullptr;
  std::uint64_t* fires = nullptr;
  int rearms_left = 0;
  std::int64_t period_ticks = 1;
  TimerWheel::Timer timer;

  static void Fire(void* self) {
    auto* t = static_cast<SoakTimer*>(self);
    ++*t->fires;
    if (t->rearms_left-- > 0) {
      t->wheel->Arm(t->timer, t->sim->now() + Ticks(t->period_ticks));
    }
  }
};

TEST(WheelAlloc, TenThousandTimerSoakAllocatesNothingAfterWarmup) {
  Simulator sim;
  TimerWheel wheel(sim);
  constexpr int kTimers = 10'000;
  std::uint64_t fires = 0;
  std::vector<SoakTimer> timers(kTimers);
  for (int i = 0; i < kTimers; ++i) {
    SoakTimer& t = timers[i];
    t.sim = &sim;
    t.wheel = &wheel;
    t.fires = &fires;
    // 1..97-tick periods plus a sprinkle of multi-level laggards.
    t.period_ticks = 1 + i % 97 + (i % 13 == 0 ? 64 * 64 : 0);
    t.timer.Init(&t, &SoakTimer::Fire);
  }

  auto round = [&] {
    for (SoakTimer& t : timers) {
      t.rearms_left = 3;
      wheel.Arm(t.timer, sim.now() + Ticks(t.period_ticks));
    }
    // Mid-round churn: disarm a stripe, rearm it (the hot RTO path is
    // exactly this disarm/rearm cycle on every ACK).
    for (int i = 0; i < kTimers; i += 4) {
      wheel.Disarm(timers[i].timer);
      wheel.Arm(timers[i].timer, sim.now() + Ticks(timers[i].period_ticks));
    }
    sim.Run();  // drains: with every budget spent the wheel goes idle
  };

  round();  // warmup grows the simulator's event slab
  ASSERT_GT(fires, static_cast<std::uint64_t>(kTimers));
  ASSERT_EQ(wheel.armed_count(), 0u);

  fires = 0;
  const AllocDelta d = CountAllocations(round);
  EXPECT_EQ(fires, static_cast<std::uint64_t>(kTimers) * 4);
  EXPECT_EQ(d.news, 0u) << "wheel steady state allocated";
  EXPECT_EQ(d.deletes, 0u);
}

}  // namespace
}  // namespace tdtcp
