// Queue-discipline conformance suite (net/queue_disc).
//
// Every discipline must honor the same structural contract the paper's VOQ
// relies on — capacity bound, drain-then-shrink deferral, FIFO delivery of
// survivors, ECN capability respected, zero steady-state allocation — and
// the time-based disciplines (CoDel, delay-mark) and the shared-pool DT
// admission each get behavioral tests of their own. The suite closes with
// the sweep-level guarantees: the qdisc axis stays bit-identical across
// job counts (FNV trace hashes compared bitwise) and CoDel keeps the p99
// VOQ sojourn below drop-tail's under the same incast-style overload.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "alloc_harness.hpp"
#include "app/sweep.hpp"
#include "net/queue_disc.hpp"

namespace tdtcp {
namespace {

const QdiscKind kAllKinds[] = {QdiscKind::kDropTail, QdiscKind::kCodel,
                               QdiscKind::kDelayMark, QdiscKind::kSharedPool};

Packet MakePkt(std::uint64_t id, Ecn ecn = Ecn::kEct0,
               SimTime enq = SimTime::Zero()) {
  Packet p;
  p.id = id;
  p.type = PacketType::kData;
  p.size_bytes = 9000;
  p.payload = 8940;
  p.ecn = ecn;
  p.enqueue_time = enq;
  return p;
}

// Serves one packet: copies it out of its pooled handle and returns the
// handle to the pool, as a link's arrival event would.
std::optional<Packet> Take(Simulator& sim, QueueDisc& q, SimTime now) {
  Packet* h = q.Dequeue(now);
  if (h == nullptr) return std::nullopt;
  Packet p = *h;
  sim.ReleasePacket(h);
  return p;
}

// ---------------------------------------------------------------------------
// Name mapping
// ---------------------------------------------------------------------------

TEST(QdiscNames, RoundTripAndReject) {
  for (QdiscKind k : kAllKinds) {
    EXPECT_EQ(QdiscKindFromName(QdiscKindName(k)), k);
  }
  EXPECT_THROW(QdiscKindFromName("red"), std::invalid_argument);
  EXPECT_THROW(QdiscKindFromName(""), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Conformance: the contract every discipline must keep
// ---------------------------------------------------------------------------

TEST(QdiscConformance, CapacityBoundNeverExceeded) {
  for (QdiscKind k : kAllKinds) {
    Simulator sim;
    QueueDisc q(sim, QueueDisc::Config{.kind = k, .capacity_packets = 4});
    for (std::uint64_t i = 0; i < 10; ++i) {
      q.Enqueue(MakePkt(i));
      EXPECT_LE(q.occupancy(), 4u) << QdiscKindName(k);
      EXPECT_TRUE(q.WithinBound()) << QdiscKindName(k);
    }
    EXPECT_EQ(q.occupancy(), 4u) << QdiscKindName(k);
    EXPECT_EQ(q.stats().dropped, 6u) << QdiscKindName(k);
    EXPECT_FALSE(q.CanEnqueue()) << QdiscKindName(k);
  }
}

TEST(QdiscConformance, DrainThenShrinkDefersExcess) {
  for (QdiscKind k : kAllKinds) {
    Simulator sim;
    QueueDisc q(sim, QueueDisc::Config{.kind = k, .capacity_packets = 12});
    for (std::uint64_t i = 0; i < 12; ++i) {
      ASSERT_TRUE(q.Enqueue(MakePkt(i))) << QdiscKindName(k);
    }
    q.set_capacity(4);
    // The 8 excess packets were admitted under the larger promise: they are
    // retained (counted), admissions stop, and the bound becomes the
    // pre-shrink watermark until the queue drains below the new capacity.
    EXPECT_EQ(q.occupancy(), 12u) << QdiscKindName(k);
    EXPECT_EQ(q.stats().shrink_deferred, 8u) << QdiscKindName(k);
    EXPECT_TRUE(q.WithinBound()) << QdiscKindName(k);
    EXPECT_FALSE(q.Enqueue(MakePkt(99))) << QdiscKindName(k);
    while (q.occupancy() >= 4) {
      ASSERT_TRUE(Take(sim, q, SimTime::Zero()).has_value()) << QdiscKindName(k);
      EXPECT_TRUE(q.WithinBound()) << QdiscKindName(k);
    }
    // Back under the new capacity: normal admission resumes and the bound
    // is the plain capacity again.
    EXPECT_TRUE(q.Enqueue(MakePkt(100))) << QdiscKindName(k);
    EXPECT_LE(q.occupancy(), 4u) << QdiscKindName(k);
  }
}

TEST(QdiscConformance, PoolHandlesBalanceOnEveryPath) {
  // A rejected by-value packet is never copied into the pool, a rejected
  // handle goes back to it, and every admitted handle leaves through
  // Dequeue (delivered or dropped by the AQM) or DrainRawInto.
  for (QdiscKind k : kAllKinds) {
    Simulator sim;
    QueueDisc q(sim, QueueDisc::Config{.kind = k,
                                       .capacity_packets = 6,
                                       .codel_target = SimTime::Micros(1),
                                       .codel_interval = SimTime::Micros(2)});
    for (std::uint64_t i = 0; i < 5; ++i) ASSERT_TRUE(q.Enqueue(MakePkt(i)));
    EXPECT_EQ(sim.stashed_packets(), 5u) << QdiscKindName(k);
    EXPECT_TRUE(q.Enqueue(sim.StashPacket(MakePkt(5)))) << QdiscKindName(k);
    EXPECT_FALSE(q.Enqueue(MakePkt(6))) << QdiscKindName(k);
    EXPECT_FALSE(q.Enqueue(sim.StashPacket(MakePkt(7)))) << QdiscKindName(k);
    EXPECT_EQ(sim.stashed_packets(), 6u) << QdiscKindName(k);
    std::vector<Packet*> drained;
    q.DrainRawInto(drained);
    ASSERT_EQ(drained.size(), 6u) << QdiscKindName(k);
    for (Packet* p : drained) q.Restore(p);
    // Late service: CoDel consumes some as drops, the rest are delivered.
    SimTime now = SimTime::Millis(1);
    while (!q.Empty()) {
      Take(sim, q, now);
      now = now + SimTime::Micros(10);
    }
    EXPECT_EQ(sim.stashed_packets(), 0u) << QdiscKindName(k);
  }
}

TEST(QdiscConformance, SurvivorsLeaveInFifoOrder) {
  // Zero sojourn (dequeue at the enqueue timestamp) keeps every time-based
  // discipline quiescent, so all four must behave as pure FIFO.
  for (QdiscKind k : kAllKinds) {
    Simulator sim;
    QueueDisc q(sim, QueueDisc::Config{.kind = k, .capacity_packets = 8});
    for (std::uint64_t i = 0; i < 8; ++i) q.Enqueue(MakePkt(i));
    for (std::uint64_t i = 0; i < 8; ++i) {
      std::optional<Packet> p = Take(sim, q, SimTime::Zero());
      ASSERT_TRUE(p.has_value()) << QdiscKindName(k);
      EXPECT_EQ(p->id, i) << QdiscKindName(k);
    }
    EXPECT_TRUE(q.Empty()) << QdiscKindName(k);
  }
}

TEST(QdiscConformance, NotEctPacketsAreNeverMarked) {
  // Aggressive marking configs under every discipline: a packet that did
  // not negotiate ECN must come out unmarked (CoDel drops it instead; the
  // others deliver it untouched).
  for (QdiscKind k : kAllKinds) {
    Simulator sim;
    QueueDisc q(sim, QueueDisc::Config{.kind = k,
                                  .capacity_packets = 32,
                                  .ecn_threshold_packets = 0,
                                  .codel_target = SimTime::Micros(1),
                                  .codel_interval = SimTime::Micros(2),
                                  .codel_ecn = true,
                                  .delay_mark_threshold = SimTime::Micros(1)});
    for (std::uint64_t i = 0; i < 16; ++i) q.Enqueue(MakePkt(i, Ecn::kNotEct));
    SimTime now = SimTime::Millis(1);  // huge sojourn: everything is "late"
    while (!q.Empty()) {
      std::optional<Packet> p = Take(sim, q, now);
      now = now + SimTime::Micros(50);
      if (p) {
        EXPECT_NE(p->ecn, Ecn::kCe) << QdiscKindName(k);
      }
    }
    EXPECT_EQ(q.stats().ce_marked, 0u) << QdiscKindName(k);
  }
}

TEST(QdiscConformance, OccupancyEcnMarkingComposesWithEveryKind) {
  // DCTCP's occupancy-threshold marker runs under every discipline.
  for (QdiscKind k : kAllKinds) {
    Simulator sim;
    QueueDisc q(sim, QueueDisc::Config{
        .kind = k, .capacity_packets = 10, .ecn_threshold_packets = 2});
    for (std::uint64_t i = 0; i < 5; ++i) q.Enqueue(MakePkt(i));
    // Packets 0,1 admitted below K; 2,3,4 at/above K are CE-marked.
    EXPECT_EQ(q.stats().ce_marked, 3u) << QdiscKindName(k);
  }
}

TEST(QdiscConformance, SteadyStateNeverAllocates) {
  for (QdiscKind k : kAllKinds) {
    SharedBufferPool pool{64, 0};
    Simulator sim;
    QueueDisc q(sim, QueueDisc::Config{.kind = k,
                                  .capacity_packets = 32,
                                  .codel_target = SimTime::Micros(10),
                                  .codel_interval = SimTime::Micros(100)});
    if (k == QdiscKind::kSharedPool) q.AttachSharedPool(&pool);
    // Warm-up: reach the high-water mark once so the ring is fully grown.
    for (std::uint64_t i = 0; i < 32; ++i) q.Enqueue(MakePkt(i));
    while (!q.Empty()) Take(sim, q, SimTime::Micros(200));
    // Steady state: overload churn (enqueues, drops, CoDel state, marks,
    // resizes within the watermark) must not touch the allocator.
    const auto delta = test::CountAllocations([&] {
      SimTime now = SimTime::Zero();
      for (std::uint64_t i = 0; i < 2000; ++i) {
        q.Enqueue(MakePkt(i, i % 2 ? Ecn::kEct0 : Ecn::kNotEct, now));
        if (i % 3 == 0) Take(sim, q, now + SimTime::Micros(120));
        if (i % 512 == 0) {
          q.set_capacity(16);
          q.set_capacity(32);
        }
        now = now + SimTime::Micros(1);
      }
      while (!q.Empty()) Take(sim, q, SimTime::Millis(10));
    });
    EXPECT_EQ(delta.news, 0u) << QdiscKindName(k);
  }
}

// ---------------------------------------------------------------------------
// CoDel
// ---------------------------------------------------------------------------

// Feeds an overloaded queue: arrivals at 2/us, service at 1/us, so a
// standing queue forms immediately and only the discipline limits sojourn.
struct OverloadResult {
  std::uint64_t delivered = 0;
  std::uint32_t final_occupancy = 0;
  QueueDisc::Stats stats;
};

OverloadResult RunOverload(QueueDisc::Config cfg, int service_ticks = 4000) {
  Simulator sim;
  QueueDisc q(sim, cfg);
  OverloadResult r;
  std::uint64_t id = 0;
  SimTime now = SimTime::Zero();
  for (int t = 0; t < service_ticks; ++t) {
    q.Enqueue(MakePkt(id++, Ecn::kEct0, now));
    q.Enqueue(MakePkt(id++, Ecn::kEct0, now));
    if (Take(sim, q, now).has_value()) ++r.delivered;
    now = now + SimTime::Micros(1);
  }
  r.final_occupancy = q.occupancy();
  r.stats = q.stats();
  return r;
}

// Deep buffer + CoDel knobs tight enough that the control law converges
// within a few-ms test (target ~ a packet service time, interval ~ 10x).
QueueDisc::Config OverloadCodel() {
  return {.kind = QdiscKind::kCodel,
          .capacity_packets = 256,
          .codel_target = SimTime::Micros(10),
          .codel_interval = SimTime::Micros(100)};
}

// Histogram difference `after - warmup`: the steady-state sojourn
// distribution, excluding the transient while CoDel's control law is still
// ramping up against an already-standing queue.
QueueDisc::Stats SteadyState(const QueueDisc::Stats& warmup,
                             const QueueDisc::Stats& after) {
  QueueDisc::Stats d = after;
  d.sojourn_count -= warmup.sojourn_count;
  for (std::size_t b = 0; b < QueueDisc::Stats::kSojournBuckets; ++b) {
    d.sojourn_hist[b] -= warmup.sojourn_hist[b];
  }
  return d;
}

TEST(Codel, DropsDissolveAStandingQueue) {
  // Tighter interval than OverloadCodel(): dissolving a 2:1 overload needs
  // the drop rate (sqrt(count)/interval) to exceed the arrival excess, and
  // the test should get there in well under a millisecond.
  auto run = [](QdiscKind k) {
    Simulator sim;
    QueueDisc q(sim, QueueDisc::Config{.kind = k,
                                  .capacity_packets = 256,
                                  .codel_target = SimTime::Micros(5),
                                  .codel_interval = SimTime::Micros(20)});
    std::uint64_t id = 0;
    SimTime now = SimTime::Zero();
    QueueDisc::Stats warmup;
    for (int t = 0; t < 8000; ++t) {
      q.Enqueue(MakePkt(id++, Ecn::kEct0, now));
      q.Enqueue(MakePkt(id++, Ecn::kEct0, now));
      Take(sim, q, now);
      now = now + SimTime::Micros(1);
      if (t == 3999) warmup = q.stats();
    }
    return SteadyState(warmup, q.stats());
  };
  const QueueDisc::Stats codel = run(QdiscKind::kCodel);
  const QueueDisc::Stats droptail = run(QdiscKind::kDropTail);
  EXPECT_GT(codel.codel_drops, 0u);
  EXPECT_EQ(droptail.codel_drops, 0u);
  // The point of CoDel: the standing queue is held near the target, so the
  // steady-state sojourn sits far below drop-tail's full-buffer delay.
  EXPECT_LT(codel.SojournPercentileUs(99), droptail.SojournPercentileUs(99));
}

TEST(Codel, ControlLawAcceleratesWhileAboveTarget) {
  // Under persistent overload the drop count must grow faster than
  // linearly in time: successive drops at interval/sqrt(count) spacing.
  const OverloadResult half = RunOverload(OverloadCodel(), 2000);
  const OverloadResult full = RunOverload(OverloadCodel(), 4000);
  ASSERT_GT(half.stats.codel_drops, 0u);
  EXPECT_GT(full.stats.codel_drops, 2 * half.stats.codel_drops);
}

TEST(Codel, EcnModeMarksInsteadOfDropping) {
  QueueDisc::Config ecn = OverloadCodel();
  ecn.codel_ecn = true;
  const OverloadResult marked = RunOverload(ecn);
  EXPECT_EQ(marked.stats.codel_drops, 0u);
  EXPECT_GT(marked.stats.codel_marks, 0u);
  // Marks advance the same state machine the drops would have (the queue
  // stays saturated under this overload, so the timing is identical).
  const OverloadResult dropped = RunOverload(OverloadCodel());
  EXPECT_EQ(marked.stats.codel_marks, dropped.stats.codel_drops);
  // Marks land on delivered packets (counted in the CE total), and marking
  // sheds nothing: every admitted packet was delivered or is still queued.
  EXPECT_GE(marked.stats.ce_marked, marked.stats.codel_marks);
  EXPECT_EQ(marked.stats.enqueued,
            marked.stats.sojourn_count + marked.final_occupancy);
  // Drop mode consumes from the backlog instead.
  EXPECT_EQ(dropped.stats.enqueued,
            dropped.stats.sojourn_count + dropped.stats.codel_drops +
                dropped.final_occupancy);
}

TEST(Codel, ExitsDroppingStateWhenSojournRecovers) {
  Simulator sim;
  QueueDisc q(sim, QueueDisc::Config{.kind = QdiscKind::kCodel,
                                .capacity_packets = 64});
  // Phase 1: standing queue long enough to enter the dropping state.
  SimTime now = SimTime::Zero();
  std::uint64_t id = 0;
  for (int t = 0; t < 2000; ++t) {
    q.Enqueue(MakePkt(id++, Ecn::kEct0, now));
    q.Enqueue(MakePkt(id++, Ecn::kEct0, now));
    Take(sim, q, now);
    now = now + SimTime::Micros(1);
  }
  ASSERT_GT(q.stats().codel_drops, 0u);
  while (!q.Empty()) Take(sim, q, now);
  const std::uint64_t drops_after_phase1 = q.stats().codel_drops;
  // Phase 2: light load, sojourn always zero — no further drops ever.
  for (int t = 0; t < 1000; ++t) {
    q.Enqueue(MakePkt(id++, Ecn::kEct0, now));
    EXPECT_TRUE(Take(sim, q, now).has_value());
    now = now + SimTime::Micros(1);
  }
  EXPECT_EQ(q.stats().codel_drops, drops_after_phase1);
}

// ---------------------------------------------------------------------------
// Delay-mark
// ---------------------------------------------------------------------------

TEST(DelayMark, MarksOnlyAboveThreshold) {
  Simulator sim;
  QueueDisc q(sim, QueueDisc::Config{.kind = QdiscKind::kDelayMark,
                                .capacity_packets = 8,
                                .delay_mark_threshold = SimTime::Micros(50)});
  q.Enqueue(MakePkt(0, Ecn::kEct0, SimTime::Zero()));
  q.Enqueue(MakePkt(1, Ecn::kEct0, SimTime::Zero()));
  // Sojourn 10us < 50us: delivered clean.
  std::optional<Packet> fast = Take(sim, q, SimTime::Micros(10));
  ASSERT_TRUE(fast.has_value());
  EXPECT_EQ(fast->ecn, Ecn::kEct0);
  // Sojourn 80us >= 50us: CE-marked, counted in both breakdowns.
  std::optional<Packet> slow = Take(sim, q, SimTime::Micros(80));
  ASSERT_TRUE(slow.has_value());
  EXPECT_EQ(slow->ecn, Ecn::kCe);
  EXPECT_EQ(q.stats().delay_marked, 1u);
  EXPECT_EQ(q.stats().ce_marked, 1u);
  // Delay-marking never drops.
  EXPECT_EQ(q.stats().dropped, 0u);
}

// ---------------------------------------------------------------------------
// Shared-pool dynamic threshold
// ---------------------------------------------------------------------------

TEST(SharedPool, QueuesCompeteForOnePool) {
  SharedBufferPool pool{8, 0};
  Simulator sim;
  QueueDisc a(sim, QueueDisc::Config{.kind = QdiscKind::kSharedPool,
                                .capacity_packets = 8,
                                .shared_alpha = 1.0});
  QueueDisc b(sim, a.config());
  a.AttachSharedPool(&pool);
  b.AttachSharedPool(&pool);
  // A hogs the pool: DT admits while occupancy < alpha * free. With
  // alpha=1 and an 8-packet pool, A stops once occupancy >= free.
  std::uint64_t id = 0;
  while (a.CanEnqueue()) ASSERT_TRUE(a.Enqueue(MakePkt(id++)));
  EXPECT_EQ(a.occupancy(), 4u);  // occ 4, free 4: 4 < 4 fails
  EXPECT_EQ(pool.used, 4u);
  // B sees the depleted pool: its own threshold is alpha * free = 4, but
  // every admission shrinks free, so it stops earlier than A did.
  while (b.CanEnqueue()) ASSERT_TRUE(b.Enqueue(MakePkt(id++)));
  EXPECT_LT(b.occupancy(), a.occupancy());
  EXPECT_FALSE(b.Enqueue(MakePkt(id++)));
  EXPECT_EQ(b.stats().shared_rejected, 1u);
  EXPECT_GT(b.stats().dropped, 0u);
  // Draining A releases pool space and reopens B's admission.
  const std::uint32_t before = pool.used;
  for (int i = 0; i < 3; ++i) Take(sim, a, SimTime::Zero());
  EXPECT_EQ(pool.used, before - 3);
  EXPECT_TRUE(b.CanEnqueue());
  EXPECT_TRUE(b.Enqueue(MakePkt(id++)));
}

TEST(SharedPool, AlphaScalesTheThreshold) {
  SharedBufferPool pool{16, 0};
  Simulator sim;
  QueueDisc strict(sim, QueueDisc::Config{.kind = QdiscKind::kSharedPool,
                                     .capacity_packets = 16,
                                     .shared_alpha = 0.25});
  strict.AttachSharedPool(&pool);
  std::uint64_t id = 0;
  while (strict.CanEnqueue()) ASSERT_TRUE(strict.Enqueue(MakePkt(id++)));
  // occ < 0.25 * free: admits 0,1,2 (free 16,15,14 -> thresholds 4,3.75,3.5)
  // and stops at occ 3 vs 0.25*13 = 3.25... admit; occ 4 vs 0.25*12 = 3: stop.
  EXPECT_LT(strict.occupancy(), 8u);
  EXPECT_GT(strict.occupancy(), 0u);
}

TEST(SharedPool, NoPoolDegradesToDropTail) {
  Simulator sim;
  QueueDisc q(sim, QueueDisc::Config{.kind = QdiscKind::kSharedPool,
                                .capacity_packets = 4});
  for (std::uint64_t i = 0; i < 6; ++i) q.Enqueue(MakePkt(i));
  EXPECT_EQ(q.occupancy(), 4u);
  EXPECT_EQ(q.stats().dropped, 2u);
  EXPECT_EQ(q.stats().shared_rejected, 0u);
}

TEST(SharedPool, DrainRawAndRestoreKeepPoolAccounting) {
  SharedBufferPool pool{8, 0};
  Simulator sim;
  QueueDisc q(sim, QueueDisc::Config{.kind = QdiscKind::kSharedPool,
                                .capacity_packets = 8});
  q.AttachSharedPool(&pool);
  for (std::uint64_t i = 0; i < 3; ++i) q.Enqueue(MakePkt(i));
  EXPECT_EQ(pool.used, 3u);
  // FabricPort's mode-flip repack: drain everything, restore it in order.
  std::vector<Packet*> drained;
  q.DrainRawInto(drained);
  ASSERT_EQ(drained.size(), 3u);
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(pool.used, 0u);
  for (Packet* p : drained) q.Restore(p);
  EXPECT_EQ(q.occupancy(), 3u);
  EXPECT_EQ(pool.used, 3u);
  // Structural ops left the sojourn stats untouched.
  EXPECT_EQ(q.stats().sojourn_count, 0u);
  // Service order survives the repack.
  for (std::uint64_t i = 0; i < 3; ++i) {
    std::optional<Packet> p = Take(sim, q, SimTime::Zero());
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->id, i);
  }
}

// ---------------------------------------------------------------------------
// Sojourn histogram
// ---------------------------------------------------------------------------

TEST(SojournStats, HistogramPercentilesBracketTheSamples) {
  Simulator sim;
  QueueDisc q(sim, QueueDisc::Config{.capacity_packets = 128});
  // 90 sojourns of ~3us, 10 of ~300us.
  for (std::uint64_t i = 0; i < 90; ++i) q.Enqueue(MakePkt(i));
  for (std::uint64_t i = 0; i < 90; ++i) Take(sim, q, SimTime::Micros(3));
  for (std::uint64_t i = 0; i < 10; ++i) {
    q.Enqueue(MakePkt(100 + i, Ecn::kEct0, SimTime::Zero()));
  }
  for (std::uint64_t i = 0; i < 10; ++i) Take(sim, q, SimTime::Micros(300));
  EXPECT_EQ(q.stats().sojourn_count, 100u);
  // p50 lands in the [2,4)us bucket (upper edge 4); p99 in [256,512).
  EXPECT_EQ(q.stats().SojournPercentileUs(50), 4.0);
  EXPECT_EQ(q.stats().SojournPercentileUs(99), 512.0);
  EXPECT_EQ(q.stats().max_sojourn, SimTime::Micros(300));
  EXPECT_NEAR(q.stats().mean_sojourn_us(), 0.9 * 3 + 0.1 * 300, 1.0);
}

// ---------------------------------------------------------------------------
// Sweep integration: qdisc axis determinism across job counts
// ---------------------------------------------------------------------------

ExperimentConfig TinyConfig(Variant v = Variant::kTdtcp) {
  return PaperConfig(v)
      .WithFlows(2)
      .WithDuration(SimTime::Micros(2800))
      .WithWarmup(SimTime::Micros(1400))
      .WithSampling(false, false)
      .WithPlotWeeks(1);
}

TEST(QdiscSweep, AxisIsBitIdenticalAcrossJobCounts) {
  SweepSpec spec;
  spec.base = TinyConfig();
  spec.variants = {Variant::kTdtcp};
  spec.seeds = {1, 2};
  spec.qdiscs = {{"droptail", {.kind = QdiscKind::kDropTail}},
                 {"codel", {.kind = QdiscKind::kCodel}},
                 {"delaymark", {.kind = QdiscKind::kDelayMark}},
                 {"sharedpool", {.kind = QdiscKind::kSharedPool}}};
  spec.jobs = 1;
  const SweepResult serial = RunSweep(spec);
  spec.jobs = 4;
  const SweepResult parallel = RunSweep(spec);
  ASSERT_EQ(serial.cells.size(), 4u);
  ASSERT_EQ(parallel.cells.size(), 4u);
  for (std::size_t c = 0; c < serial.cells.size(); ++c) {
    const SweepCell& sc = serial.cells[c];
    const SweepCell& pc = parallel.cells[c];
    EXPECT_EQ(sc.qdisc_label, spec.qdiscs[c].label);
    EXPECT_EQ(sc.qdisc_label, pc.qdisc_label);
    for (std::size_t r = 0; r < sc.runs.size(); ++r) {
      // FNV-1a over the full event trace: one hash mismatch means any
      // divergence anywhere in the run. Bitwise, not approximate.
      EXPECT_EQ(sc.runs[r].result.trace_hash, pc.runs[r].result.trace_hash);
      const auto sm = ScalarMetrics(sc.runs[r].result);
      const auto pm = ScalarMetrics(pc.runs[r].result);
      ASSERT_EQ(sm.size(), pm.size());
      for (std::size_t m = 0; m < sm.size(); ++m) {
        EXPECT_EQ(sm[m].first, pm[m].first);
        EXPECT_EQ(sm[m].second, pm[m].second) << sm[m].first;
      }
    }
  }
}

TEST(QdiscSweep, DisciplinesProduceDistinctProfiles) {
  // The axis must actually change behavior: under the same config and seed,
  // at least the per-discipline counters must differ from drop-tail's.
  // DCTCP negotiates ECN, so its data packets are ECT(0) — the marking
  // disciplines have something to mark.
  ExperimentConfig base = TinyConfig(Variant::kDctcp).WithFlows(4);
  base.topology.voq.ecn_threshold_packets = 8;
  const ExperimentResult dt = RunExperiment(base);
  ExperimentConfig codel = base;
  codel.WithQdisc(QdiscKind::kCodel);
  codel.topology.voq.codel_ecn = true;
  // The default 500us interval is ~a third of this tiny run's measured
  // window; tighten so the control law can establish itself.
  codel.topology.voq.codel_target = SimTime::Micros(5);
  codel.topology.voq.codel_interval = SimTime::Micros(50);
  const ExperimentResult cd = RunExperiment(codel);
  ExperimentConfig dm = base;
  dm.WithQdisc(QdiscKind::kDelayMark);
  dm.topology.voq.delay_mark_threshold = SimTime::Micros(1);
  const ExperimentResult dmr = RunExperiment(dm);
  EXPECT_EQ(dt.voq_codel_marks, 0u);
  EXPECT_EQ(dt.voq_delay_marked, 0u);
  EXPECT_EQ(cd.voq_delay_marked, 0u);
  EXPECT_EQ(dmr.voq_codel_marks, 0u);
  // Each non-default discipline leaves its fingerprint under load.
  EXPECT_GT(cd.voq_codel_marks + cd.voq_codel_drops, 0u);
  EXPECT_GT(dmr.voq_delay_marked, 0u);
}

// ---------------------------------------------------------------------------
// Incast regression: CoDel vs drop-tail sojourn under the same load
// ---------------------------------------------------------------------------

TEST(IncastRegression, CodelKeepsP99SojournBelowDropTail) {
  // Incast-shaped arrival: synchronized bursts of 32 packets into one VOQ
  // serviced at 1 packet/us — the N-to-1 pattern bench_incast times at
  // full scale. Same arrivals, same service, only the discipline differs.
  auto run = [](QdiscKind k) {
    Simulator sim;
    QueueDisc q(sim, QueueDisc::Config{.kind = k,
                                  .capacity_packets = 256,
                                  .codel_target = SimTime::Micros(5),
                                  .codel_interval = SimTime::Micros(20)});
    std::uint64_t id = 0;
    SimTime now = SimTime::Zero();
    QueueDisc::Stats warmup;
    for (int burst = 0; burst < 80; ++burst) {
      for (int i = 0; i < 80; ++i) q.Enqueue(MakePkt(id++, Ecn::kEct0, now));
      for (int t = 0; t < 40; ++t) {  // 40us of service between bursts
        Take(sim, q, now);
        now = now + SimTime::Micros(1);
      }
      // The first half covers CoDel's ramp against the initial pile-up;
      // measure the steady incast pattern after it.
      if (burst == 39) warmup = q.stats();
    }
    return SteadyState(warmup, q.stats());
  };
  const QueueDisc::Stats codel = run(QdiscKind::kCodel);
  const QueueDisc::Stats droptail = run(QdiscKind::kDropTail);
  ASSERT_GT(codel.sojourn_count, 0u);
  ASSERT_GT(droptail.sojourn_count, 0u);
  EXPECT_LT(codel.SojournPercentileUs(99), droptail.SojournPercentileUs(99));
  // The price is drops; the gain is bounded delay.
  EXPECT_GT(codel.codel_drops, 0u);
}

}  // namespace
}  // namespace tdtcp
