// Network substrate: queues, links, fabric ports, hosts, ToR switches.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "net/fabric_port.hpp"
#include "net/flow_table.hpp"
#include "net/host.hpp"
#include "net/link.hpp"
#include "net/queue_disc.hpp"
#include "net/topology.hpp"
#include "net/tor_switch.hpp"
#include "sim/hash.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"

namespace tdtcp {
namespace {

using test::CaptureSink;
using test::TdnCallback;

// Packet ids now come from the owning Simulator (Simulator::NextPacketId);
// these standalone queue/link tests just need distinct ids.
std::uint64_t NextTestPacketId() {
  static std::uint64_t next = 1;
  return next++;
}

Packet MakeData(std::uint32_t size = 9000, NodeId dst = 1) {
  Packet p;
  p.id = NextTestPacketId();
  p.type = PacketType::kData;
  p.size_bytes = size;
  p.payload = size - 60;
  p.dst = dst;
  return p;
}

// ---------------------------------------------------------------------------
// Queue
// ---------------------------------------------------------------------------

TEST(Queue, DropsWhenFull) {
  Simulator sim;
  QueueDisc q(sim, QueueDisc::Config{.capacity_packets = 2});
  EXPECT_TRUE(q.Enqueue(MakeData()));
  EXPECT_TRUE(q.Enqueue(MakeData()));
  EXPECT_FALSE(q.Enqueue(MakeData()));
  EXPECT_EQ(q.stats().dropped, 1u);
  EXPECT_EQ(q.occupancy(), 2u);
}

TEST(Queue, FifoOrder) {
  Simulator sim;
  QueueDisc q(sim, QueueDisc::Config{.capacity_packets = 10});
  Packet a = MakeData();
  Packet b = MakeData();
  const auto ida = a.id, idb = b.id;
  q.Enqueue(std::move(a));
  q.Enqueue(std::move(b));
  EXPECT_EQ(q.Dequeue(SimTime::Zero())->id, ida);
  EXPECT_EQ(q.Dequeue(SimTime::Zero())->id, idb);
  EXPECT_EQ(q.Dequeue(SimTime::Zero()), nullptr);
}

TEST(Queue, EcnMarksAboveThreshold) {
  Simulator sim;
  QueueDisc q(sim, QueueDisc::Config{.capacity_packets = 10, .ecn_threshold_packets = 2});
  for (int i = 0; i < 4; ++i) {
    Packet p = MakeData();
    p.ecn = Ecn::kEct0;
    q.Enqueue(std::move(p));
  }
  // First two admitted below threshold, last two marked.
  EXPECT_EQ(q.Dequeue(SimTime::Zero())->ecn, Ecn::kEct0);
  EXPECT_EQ(q.Dequeue(SimTime::Zero())->ecn, Ecn::kEct0);
  EXPECT_EQ(q.Dequeue(SimTime::Zero())->ecn, Ecn::kCe);
  EXPECT_EQ(q.Dequeue(SimTime::Zero())->ecn, Ecn::kCe);
  EXPECT_EQ(q.stats().ce_marked, 2u);
}

TEST(Queue, EcnIgnoresNotEct) {
  Simulator sim;
  QueueDisc q(sim, QueueDisc::Config{.capacity_packets = 10, .ecn_threshold_packets = 0});
  q.Enqueue(MakeData());  // NotEct by default
  EXPECT_EQ(q.Dequeue(SimTime::Zero())->ecn, Ecn::kNotEct);
  EXPECT_EQ(q.stats().ce_marked, 0u);
}

TEST(Queue, RuntimeResizeKeepsPackets) {
  Simulator sim;
  QueueDisc q(sim, QueueDisc::Config{.capacity_packets = 4});
  for (int i = 0; i < 4; ++i) q.Enqueue(MakeData());
  q.set_capacity(2);  // shrink below occupancy
  EXPECT_EQ(q.occupancy(), 4u);
  EXPECT_FALSE(q.Enqueue(MakeData()));
  q.set_capacity(50);
  EXPECT_TRUE(q.Enqueue(MakeData()));
}

TEST(Queue, TracksMaxOccupancy) {
  Simulator sim;
  QueueDisc q(sim, QueueDisc::Config{.capacity_packets = 8});
  for (int i = 0; i < 5; ++i) q.Enqueue(MakeData());
  q.Dequeue(SimTime::Zero());
  q.Dequeue(SimTime::Zero());
  EXPECT_EQ(q.stats().max_occupancy, 5u);
}

// ---------------------------------------------------------------------------
// Link
// ---------------------------------------------------------------------------

TEST(Link, SerializationPlusPropagation) {
  Simulator sim;
  CaptureSink sink;
  Link::Config lc;
  lc.rate_bps = 10'000'000'000;          // 9000B -> 7.2 us
  lc.propagation = SimTime::Micros(50);
  Link link(sim, lc, &sink);
  link.Enqueue(MakeData(9000));
  sim.Run();
  EXPECT_EQ(sink.packets.size(), 1u);
  EXPECT_EQ(sim.now(), SimTime::Nanos(7200) + SimTime::Micros(50));
}

TEST(Link, BackToBackSerialization) {
  Simulator sim;
  CaptureSink sink;
  Link::Config lc;
  lc.rate_bps = 10'000'000'000;
  lc.propagation = SimTime::Zero();
  Link link(sim, lc, &sink);
  for (int i = 0; i < 3; ++i) link.Enqueue(MakeData(9000));
  sim.Run();
  EXPECT_EQ(sink.packets.size(), 3u);
  EXPECT_EQ(sim.now(), SimTime::Nanos(3 * 7200));
}

TEST(Link, DisabledHoldsQueue) {
  Simulator sim;
  CaptureSink sink;
  Link::Config lc;
  lc.rate_bps = 10'000'000'000;
  lc.propagation = SimTime::Zero();
  Link link(sim, lc, &sink);
  link.set_enabled(false);
  link.Enqueue(MakeData());
  sim.RunUntil(SimTime::Millis(1));
  EXPECT_TRUE(sink.packets.empty());
  link.set_enabled(true);
  sim.Run();
  EXPECT_EQ(sink.packets.size(), 1u);
}

TEST(Link, DropsBeyondQueueCapacity) {
  Simulator sim;
  CaptureSink sink;
  Link::Config lc;
  lc.rate_bps = 1'000'000;  // slow: everything queues
  lc.queue.capacity_packets = 3;
  Link link(sim, lc, &sink);
  for (int i = 0; i < 10; ++i) link.Enqueue(MakeData(1000));
  // 1 in flight + 3 queued; 6 dropped.
  EXPECT_EQ(link.queue().stats().dropped, 6u);
  sim.Run();
  EXPECT_EQ(sink.packets.size(), 4u);
}

TEST(Link, ReorderJitterCanReorder) {
  Simulator sim;
  Random rng(9);
  CaptureSink sink;
  Link::Config lc;
  lc.rate_bps = 100'000'000'000;
  lc.propagation = SimTime::Micros(1);
  lc.reorder_jitter = SimTime::Micros(50);
  lc.queue.capacity_packets = 100;
  Link jlink(sim, lc, &sink, &rng);
  for (int i = 0; i < 50; ++i) {
    jlink.Enqueue(MakeData(1500));
  }
  sim.Run();
  ASSERT_EQ(sink.packets.size(), 50u);
  bool reordered = false;
  for (std::size_t i = 1; i < sink.packets.size(); ++i) {
    if (sink.packets[i].id < sink.packets[i - 1].id) reordered = true;
  }
  EXPECT_TRUE(reordered);
}

// Stage contract: a stage acts on a packet once, when it starts serializing.
// A packet that finds the transmitter idle costs one event (its arrival); a
// packet queued behind the wire costs one more (the start event).

Link::Config StageLink() {
  Link::Config lc;
  lc.rate_bps = 10'000'000'000;  // 9000B -> 7.2 us
  lc.propagation = SimTime::Micros(1);
  return lc;
}

TEST(Link, LonePacketCostsOneEvent) {
  Simulator sim;
  CaptureSink sink;
  Link link(sim, StageLink(), &sink);
  link.Enqueue(MakeData(9000));
  sim.Run();
  EXPECT_EQ(sink.packets.size(), 1u);
  EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(Link, SameTimeBurstCostsTwoNMinusOneEvents) {
  constexpr std::uint64_t kBurst = 7;
  Simulator sim;
  CaptureSink sink;
  Link link(sim, StageLink(), &sink);
  for (std::uint64_t i = 0; i < kBurst; ++i) link.Enqueue(MakeData(9000));
  sim.Run();
  EXPECT_EQ(sink.packets.size(), kBurst);
  EXPECT_EQ(sim.events_executed(), 2 * kBurst - 1);
  EXPECT_EQ(sim.now(), SimTime::Nanos(kBurst * 7200) + SimTime::Micros(1));
}

TEST(Link, DisableMidSerializationDeliversThatPacketAndHoldsTheRest) {
  Simulator sim;
  CaptureSink sink;
  Link link(sim, StageLink(), &sink);
  for (int i = 0; i < 3; ++i) link.Enqueue(MakeData(9000));
  sim.RunUntil(SimTime::Micros(3));  // first packet mid-serialization
  link.set_enabled(false);
  sim.RunUntil(SimTime::Millis(1));
  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_EQ(link.queue().occupancy(), 2u);
  link.set_enabled(true);
  sim.Run();
  EXPECT_EQ(sink.packets.size(), 3u);
  EXPECT_EQ(sim.now(),
            SimTime::Millis(1) + SimTime::Nanos(2 * 7200) + SimTime::Micros(1));
}

TEST(Link, FaultDroppedPacketStillOccupiesTheWire) {
  Simulator sim;
  CaptureSink sink;
  Link link(sim, StageLink(), &sink);
  bool first = true;
  link.SetFaultFilter(
      [&](const Packet&) { return std::exchange(first, false); });
  link.Enqueue(MakeData(9000));
  link.Enqueue(MakeData(9000));
  sim.Run();
  EXPECT_EQ(link.fault_dropped(), 1u);
  ASSERT_EQ(sink.packets.size(), 1u);
  // The survivor waited out the dropped packet's 7.2 us on the wire.
  EXPECT_EQ(sim.now(), SimTime::Nanos(2 * 7200) + SimTime::Micros(1));
}

TEST(Link, EnqueuesWhileBusyKeepOneStartEvent) {
  Simulator sim;
  CaptureSink sink;
  Link::Config lc = StageLink();
  lc.queue.capacity_packets = 1000;
  Link link(sim, lc, &sink);
  // One heap entry for the arrival stream, one for the start event, however
  // many packets queue behind the wire.
  for (int i = 0; i < 50; ++i) {
    link.Enqueue(MakeData(9000));
    EXPECT_LE(sim.heap_storage_for_test(), 2u);
  }
  for (int step = 1; step <= 20; ++step) {
    sim.RunUntil(SimTime::Nanos(step * 5000));
    for (int i = 0; i < 3; ++i) link.Enqueue(MakeData(1500));
    EXPECT_LE(sim.heap_storage_for_test(), 2u);
  }
  sim.Run();
  EXPECT_EQ(sink.packets.size(), 110u);
}

// Only a circuit-mode port stamps the circuit mark (FabricPort.
// CircuitMarkStamped): a host link passes it through untouched.
TEST(Link, DeliversACircuitMarkUntouched) {
  Simulator sim;
  CaptureSink sink;
  Link link(sim, StageLink(), &sink);
  Packet marked = MakeData();
  marked.circuit_mark = true;
  link.Enqueue(std::move(marked));
  link.Enqueue(MakeData());
  sim.Run();
  ASSERT_EQ(sink.packets.size(), 2u);
  EXPECT_TRUE(sink.packets[0].circuit_mark);
  EXPECT_FALSE(sink.packets[1].circuit_mark);
}

TEST(Link, RejectsZeroRateAndNullSink) {
  Simulator sim;
  CaptureSink sink;
  Link::Config lc;
  lc.rate_bps = 0;
  EXPECT_THROW((Link{sim, lc, &sink}), std::invalid_argument);
  EXPECT_THROW((Link{sim, Link::Config{}, nullptr}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// FabricPort
// ---------------------------------------------------------------------------

FabricPort::Config PortConfig() {
  FabricPort::Config fc;
  fc.voq.capacity_packets = 16;
  fc.initial_mode = NetworkMode{0, 10'000'000'000, SimTime::Micros(48), false};
  return fc;
}

NetworkMode CircuitMode() {
  return NetworkMode{1, 100'000'000'000, SimTime::Micros(18), true};
}

TEST(FabricPort, PacketModeTiming) {
  Simulator sim;
  CaptureSink sink;
  FabricPort port(sim, PortConfig(), &sink);
  port.Enqueue(MakeData(9000));
  sim.Run();
  EXPECT_EQ(sim.now(), SimTime::Nanos(7200) + SimTime::Micros(48));
}

TEST(FabricPort, ModeSwitchSpeedsUpLeftovers) {
  Simulator sim;
  CaptureSink sink;
  FabricPort port(sim, PortConfig(), &sink);
  port.SetBlackout(true);
  for (int i = 0; i < 10; ++i) port.Enqueue(MakeData(9000));
  port.SetMode(CircuitMode());
  port.SetBlackout(false);
  sim.Run();
  // 10 packets at 100G (720ns each) + 18us propagation: far faster than 10G.
  EXPECT_EQ(sink.packets.size(), 10u);
  EXPECT_LT(sim.now(), SimTime::Micros(30));
}

TEST(FabricPort, BlackoutPausesService) {
  Simulator sim;
  CaptureSink sink;
  FabricPort port(sim, PortConfig(), &sink);
  port.SetBlackout(true);
  port.Enqueue(MakeData());
  sim.RunUntil(SimTime::Millis(1));
  EXPECT_TRUE(sink.packets.empty());
  port.SetBlackout(false);
  sim.Run();
  EXPECT_EQ(sink.packets.size(), 1u);
}

TEST(FabricPort, CircuitMarkStamped) {
  Simulator sim;
  CaptureSink sink;
  FabricPort port(sim, PortConfig(), &sink);
  port.Enqueue(MakeData());
  sim.Run();
  EXPECT_FALSE(sink.Pop().circuit_mark);
  port.SetMode(CircuitMode());
  port.Enqueue(MakeData());
  sim.Run();
  EXPECT_TRUE(sink.Pop().circuit_mark);
}

TEST(FabricPort, PinnedPacketWaitsForItsNetwork) {
  Simulator sim;
  CaptureSink sink;
  FabricPort port(sim, PortConfig(), &sink);  // packet mode (path 0)
  Packet p = MakeData();
  p.pinned_path = 1;  // circuit
  port.Enqueue(std::move(p));
  sim.RunUntil(SimTime::Millis(1));
  EXPECT_TRUE(sink.packets.empty());
  EXPECT_EQ(port.pinned_waiting(), 1u);
  port.SetMode(CircuitMode());
  sim.Run();
  EXPECT_EQ(sink.packets.size(), 1u);
  EXPECT_EQ(port.pinned_waiting(), 0u);
}

TEST(FabricPort, ModeChangeRestashesMismatchedPinned) {
  Simulator sim;
  CaptureSink sink;
  FabricPort::Config fc = PortConfig();
  fc.initial_mode = CircuitMode();
  FabricPort port(sim, fc, &sink);
  port.SetBlackout(true);  // hold everything in the VOQ
  Packet pinned = MakeData();
  pinned.pinned_path = 1;  // admitted: matches circuit mode
  port.Enqueue(std::move(pinned));
  Packet plain = MakeData();
  port.Enqueue(std::move(plain));
  // Circuit goes away: the pinned packet must go back to the stash, the
  // unpinned one stays in the VOQ and rides the packet network.
  port.SetMode(PortConfig().initial_mode);
  port.SetBlackout(false);
  sim.Run();
  EXPECT_EQ(sink.packets.size(), 1u);
  EXPECT_EQ(port.pinned_waiting(), 1u);
}

TEST(FabricPort, PinnedStashCapacityDrops) {
  Simulator sim;
  CaptureSink sink;
  FabricPort::Config fc = PortConfig();
  fc.pinned_stash_capacity = 2;
  FabricPort port(sim, fc, &sink);
  for (int i = 0; i < 5; ++i) {
    Packet p = MakeData();
    p.pinned_path = 1;
    port.Enqueue(std::move(p));
  }
  EXPECT_EQ(port.pinned_waiting(), 2u);
  EXPECT_EQ(port.pinned_dropped(), 3u);
}

TEST(FabricPort, LonePacketAndBurstEventCounts) {
  {
    Simulator sim;
    CaptureSink sink;
    FabricPort port(sim, PortConfig(), &sink);
    port.Enqueue(MakeData(9000));
    sim.Run();
    EXPECT_EQ(sink.packets.size(), 1u);
    EXPECT_EQ(sim.events_executed(), 1u);
  }
  {
    constexpr std::uint64_t kBurst = 9;
    Simulator sim;
    CaptureSink sink;
    FabricPort port(sim, PortConfig(), &sink);
    for (std::uint64_t i = 0; i < kBurst; ++i) port.Enqueue(MakeData(9000));
    sim.Run();
    EXPECT_EQ(sink.packets.size(), kBurst);
    EXPECT_EQ(sim.events_executed(), 2 * kBurst - 1);
  }
}

TEST(FabricPort, BlackoutMidSerializationDeliversThatPacketAndHoldsTheRest) {
  Simulator sim;
  CaptureSink sink;
  FabricPort port(sim, PortConfig(), &sink);
  for (int i = 0; i < 3; ++i) port.Enqueue(MakeData(9000));
  sim.RunUntil(SimTime::Micros(3));
  port.SetBlackout(true);
  sim.RunUntil(SimTime::Millis(1));
  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_EQ(port.voq().occupancy(), 2u);
  port.SetBlackout(false);
  sim.Run();
  EXPECT_EQ(sink.packets.size(), 3u);
}

TEST(FabricPort, ModeSwitchMidSerializationKeepsOldPropagation) {
  Simulator sim;
  CaptureSink sink;
  FabricPort port(sim, PortConfig(), &sink);  // 10G, 48 us
  port.Enqueue(MakeData(9000));
  sim.RunUntil(SimTime::Micros(3));
  port.SetMode(CircuitMode());  // 100G, 18 us
  sim.Run();
  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_FALSE(sink.packets[0].circuit_mark);
  EXPECT_EQ(sim.now(), SimTime::Nanos(7200) + SimTime::Micros(48));
}

TEST(FabricPort, FaultDroppedPacketStillOccupiesTheWire) {
  Simulator sim;
  CaptureSink sink;
  FabricPort port(sim, PortConfig(), &sink);
  bool first = true;
  port.SetFaultFilter(
      [&](const Packet&) { return std::exchange(first, false); });
  port.Enqueue(MakeData(9000));
  port.Enqueue(MakeData(9000));
  sim.Run();
  EXPECT_EQ(port.fault_dropped(), 1u);
  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_EQ(sim.now(), SimTime::Nanos(2 * 7200) + SimTime::Micros(48));
}

TEST(FabricPort, EnqueuesWhileBusyKeepOneStartEvent) {
  Simulator sim;
  CaptureSink sink;
  FabricPort::Config fc = PortConfig();
  fc.voq.capacity_packets = 1000;
  FabricPort port(sim, fc, &sink);
  for (int i = 0; i < 50; ++i) {
    port.Enqueue(MakeData(9000));
    EXPECT_LE(sim.heap_storage_for_test(), 2u);
  }
  sim.Run();
  EXPECT_EQ(sink.packets.size(), 50u);
}

TEST(FabricPort, RejectsNullRemoteAndZeroRateModes) {
  Simulator sim;
  CaptureSink sink;
  EXPECT_THROW((FabricPort{sim, PortConfig(), nullptr}), std::invalid_argument);
  FabricPort::Config fc = PortConfig();
  fc.initial_mode.rate_bps = 0;
  EXPECT_THROW((FabricPort{sim, fc, &sink}), std::invalid_argument);
  FabricPort port(sim, PortConfig(), &sink);
  NetworkMode dead = CircuitMode();
  dead.rate_bps = 0;
  EXPECT_THROW(port.SetMode(dead), std::invalid_argument);
  EXPECT_EQ(port.mode().rate_bps, PortConfig().initial_mode.rate_bps);
}

// A shared pool another queue has filled keeps the VOQ empty while circuit-
// pinned packets wait in the stash. The wire is busy, so the one start event
// must still be armed for them: once the pool frees, they leave through it.
TEST(FabricPort, FullSharedPoolLeavesStashBehindBusyWireUntilTheStartEvent) {
  Simulator sim;
  CaptureSink sink;
  SharedBufferPool pool{8, 0};
  FabricPort::Config fc = PortConfig();
  fc.voq.kind = QdiscKind::kSharedPool;
  FabricPort port(sim, fc, &sink);  // packet mode (path 0)
  port.voq().AttachSharedPool(&pool);
  for (int i = 0; i < 3; ++i) {
    Packet p = MakeData(9000);
    p.pinned_path = 1;  // circuit
    port.Enqueue(std::move(p));
  }
  port.Enqueue(MakeData(9000));  // serializes at once: wire busy to 7.2 us
  ASSERT_TRUE(port.voq().Empty());
  // A hog with a large DT factor takes the whole pool.
  QueueDisc hog(sim, QueueDisc::Config{.kind = QdiscKind::kSharedPool,
                                       .capacity_packets = 8,
                                       .shared_alpha = 100.0});
  hog.AttachSharedPool(&pool);
  while (hog.CanEnqueue()) ASSERT_TRUE(hog.Enqueue(MakeData(1500)));
  ASSERT_EQ(pool.free_packets(), 0u);

  port.SetMode(CircuitMode());  // the stash cannot top up: pool is full
  EXPECT_TRUE(port.voq().Empty());
  EXPECT_EQ(port.pinned_waiting(), 3u);

  // The pool frees before the wire does.
  sim.Schedule(SimTime::Micros(5), [&] {
    while (Packet* p = hog.Dequeue(sim.now())) sim.ReleasePacket(p);
  });
  // The start event at 7.2 us tops the VOQ up; three circuit packets (0.72 us
  // each) then arrive 18 us later, well before the first packet's 48 us.
  sim.RunUntil(SimTime::Micros(30));
  EXPECT_EQ(port.pinned_waiting(), 0u);
  ASSERT_EQ(sink.packets.size(), 3u);
  for (const Packet& p : sink.packets) EXPECT_TRUE(p.circuit_mark);
  sim.Run();
  EXPECT_EQ(sink.packets.size(), 4u);
  EXPECT_EQ(pool.used, 0u);
}

// The same full pool with an idle wire: no start event is armed, so the
// stash waits on the pool itself, and the next release of space by another
// queue wakes the port (through a scheduled event) to top up and send.
TEST(FabricPort, FullSharedPoolWakesIdleWireWhenSpaceFrees) {
  Simulator sim;
  CaptureSink sink;
  SharedBufferPool pool{8, 0};
  FabricPort::Config fc = PortConfig();
  fc.voq.kind = QdiscKind::kSharedPool;
  FabricPort port(sim, fc, &sink);  // packet mode (path 0)
  port.voq().AttachSharedPool(&pool);
  for (int i = 0; i < 3; ++i) {
    Packet p = MakeData(9000);
    p.pinned_path = 1;  // circuit
    port.Enqueue(std::move(p));
  }
  QueueDisc hog(sim, QueueDisc::Config{.kind = QdiscKind::kSharedPool,
                                       .capacity_packets = 8,
                                       .shared_alpha = 100.0});
  hog.AttachSharedPool(&pool);
  while (hog.CanEnqueue()) ASSERT_TRUE(hog.Enqueue(MakeData(1500)));
  ASSERT_EQ(pool.free_packets(), 0u);

  port.SetMode(CircuitMode());  // idle wire, but the pool is full
  EXPECT_TRUE(port.voq().Empty());
  EXPECT_EQ(port.pinned_waiting(), 3u);

  sim.Schedule(SimTime::Micros(5), [&] {
    // Releasing space must not re-enter the port from inside Dequeue.
    while (Packet* p = hog.Dequeue(sim.now())) {
      sim.ReleasePacket(p);
      EXPECT_EQ(port.pinned_waiting(), 3u);
    }
  });
  sim.Run();
  EXPECT_EQ(port.pinned_waiting(), 0u);
  ASSERT_EQ(sink.packets.size(), 3u);
  for (const Packet& p : sink.packets) EXPECT_TRUE(p.circuit_mark);
  EXPECT_EQ(pool.used, 0u);
}

TEST(FabricPort, ModeSwitchDuringBlackoutTopsTheVoqUpAtOnce) {
  Simulator sim;
  CaptureSink sink;
  FabricPort port(sim, PortConfig(), &sink);  // packet mode (path 0)
  for (int i = 0; i < 4; ++i) {
    Packet p = MakeData();
    p.pinned_path = 1;  // circuit
    port.Enqueue(std::move(p));
  }
  port.SetBlackout(true);
  port.SetMode(CircuitMode());
  // The stash joined the VOQ at the switch, not when service resumes.
  EXPECT_EQ(port.pinned_waiting(), 0u);
  EXPECT_EQ(port.voq().occupancy(), 4u);
  sim.RunUntil(SimTime::Millis(1));
  EXPECT_TRUE(sink.packets.empty());
  port.SetBlackout(false);
  sim.Run();
  ASSERT_EQ(sink.packets.size(), 4u);
  for (const Packet& p : sink.packets) EXPECT_TRUE(p.circuit_mark);
}

TEST(FabricPort, LiftingAnAbsentBlackoutAddsNoEvent) {
  constexpr std::uint64_t kBurst = 5;
  Simulator sim;
  CaptureSink sink;
  FabricPort port(sim, PortConfig(), &sink);
  port.SetBlackout(false);  // idle, open port
  EXPECT_EQ(sim.heap_storage_for_test(), 0u);
  for (std::uint64_t i = 0; i < kBurst; ++i) {
    port.Enqueue(MakeData(9000));
    port.SetBlackout(false);  // busy, open port
  }
  sim.Run();
  EXPECT_EQ(sink.packets.size(), kBurst);
  EXPECT_EQ(sim.events_executed(), 2 * kBurst - 1);
}

// ---------------------------------------------------------------------------
// Host
// ---------------------------------------------------------------------------

TEST(Host, DispatchesByFlow) {
  Simulator sim;
  Host host(sim, 7);
  CaptureSink ep1, ep2;
  host.RegisterEndpoint(1, &ep1);
  host.RegisterEndpoint(2, &ep2);
  Packet p = MakeData();
  p.flow = 2;
  p.dst = 7;
  host.HandlePacket(std::move(p));
  EXPECT_TRUE(ep1.packets.empty());
  EXPECT_EQ(ep2.packets.size(), 1u);
}

TEST(Host, UnknownFlowCounted) {
  Simulator sim;
  Host host(sim, 7);
  Packet p = MakeData();
  p.flow = 99;
  host.HandlePacket(std::move(p));
  EXPECT_EQ(host.dropped_no_endpoint(), 1u);
}

TEST(Host, CollidingFlowIdsSurviveBackwardShiftDeletion) {
  // Five flows that share one home slot in the demux table's initial 16
  // slots form a single probe run; deleting from its head and its middle
  // must shift the survivors back without losing any of them.
  Simulator sim;
  Host host(sim, 7);
  constexpr unsigned kInitialShift = 64 - 4;  // 16 slots
  std::vector<FlowId> ids;
  for (FlowId f = 1; ids.size() < 5; ++f) {
    if (FlowTable::Home(f, kInitialShift) == FlowTable::Home(1, kInitialShift)) {
      ids.push_back(f);
    }
  }
  std::vector<CaptureSink> eps(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    host.RegisterEndpoint(ids[i], &eps[i]);
  }
  auto deliver = [&host](FlowId flow) {
    Packet p = MakeData();
    p.flow = flow;
    host.HandlePacket(std::move(p));
  };
  auto received = [&eps] {
    std::vector<std::size_t> n;
    for (const CaptureSink& ep : eps) n.push_back(ep.packets.size());
    return n;
  };
  for (FlowId f : ids) deliver(f);
  EXPECT_EQ(received(), (std::vector<std::size_t>{1, 1, 1, 1, 1}));

  host.UnregisterEndpoint(ids[0]);  // head of the run
  host.UnregisterEndpoint(ids[2]);  // middle of the run
  EXPECT_EQ(host.num_endpoints(), 3u);
  for (FlowId f : ids) deliver(f);
  EXPECT_EQ(received(), (std::vector<std::size_t>{1, 2, 1, 2, 2}));
  EXPECT_EQ(host.dropped_no_endpoint(), 2u);

  // Re-registering a deleted id lands it back in the run.
  host.RegisterEndpoint(ids[0], &eps[0]);
  deliver(ids[0]);
  EXPECT_EQ(eps[0].packets.size(), 2u);
}

TEST(Host, UnregisterIsOwnerGuardedAcrossFlowIdReuse) {
  Simulator sim;
  Host host(sim, 7);
  CaptureSink old_conn, new_conn;
  host.RegisterEndpoint(5, &old_conn);
  // Churn reuses FlowId 5 before the old connection's deferred teardown.
  host.RegisterEndpoint(5, &new_conn);
  EXPECT_EQ(host.num_endpoints(), 1u);
  host.UnregisterEndpoint(5, &old_conn);  // not the owner: no effect
  Packet p = MakeData();
  p.flow = 5;
  host.HandlePacket(std::move(p));
  EXPECT_TRUE(old_conn.packets.empty());
  EXPECT_EQ(new_conn.packets.size(), 1u);
  host.UnregisterEndpoint(5, &new_conn);
  EXPECT_EQ(host.num_endpoints(), 0u);
  host.UnregisterEndpoint(5);  // already gone: no-op
  host.UnregisterEndpoint(6, &new_conn);
  EXPECT_EQ(host.num_endpoints(), 0u);
  EXPECT_THROW(host.RegisterEndpoint(8, nullptr), std::invalid_argument);
}

TEST(Host, DemuxMatchesMapModelUnderChurn) {
  // Seeded register/unregister churn over a few thousand ids, growing the
  // table several times and deleting from every position of many probe
  // runs; after each step every touched id must resolve as a std::map says.
  FlowTable table;
  std::map<FlowId, PacketSink*> model;
  std::vector<CaptureSink> sinks(4);
  Random rng(77);
  for (int op = 0; op < 60000; ++op) {
    const FlowId flow = static_cast<FlowId>(rng.UniformInt(0, 4095));
    PacketSink* sink = &sinks[static_cast<std::size_t>(rng.UniformInt(0, 3))];
    const std::int64_t kind = rng.UniformInt(0, 2);
    if (kind == 0) {
      table.Insert(flow, sink);
      model[flow] = sink;
    } else {
      // Half the erases name an owner, which may not match.
      const PacketSink* owner = rng.UniformInt(0, 1) ? sink : nullptr;
      const bool erased = table.Erase(flow, owner);
      auto it = model.find(flow);
      const bool want = it != model.end() &&
                        (owner == nullptr || it->second == owner);
      ASSERT_EQ(erased, want) << "op " << op;
      if (want) model.erase(it);
    }
    ASSERT_EQ(table.size(), model.size()) << "op " << op;
    for (FlowId probe : {flow, flow + 1, flow ^ 0x55u}) {
      auto it = model.find(probe);
      ASSERT_EQ(table.Find(probe), it == model.end() ? nullptr : it->second)
          << "op " << op << " flow " << probe;
    }
  }
  for (FlowId f = 0; f < 4096; ++f) {
    auto it = model.find(f);
    ASSERT_EQ(table.Find(f), it == model.end() ? nullptr : it->second);
  }
}

TEST(Host, PullModelNotifiesAllAtOnce) {
  Simulator sim;
  Host host(sim, 0);
  int calls = 0;
  TdnCallback l1([&](TdnId t, bool) { calls += t == 1 ? 1 : 0; });
  TdnCallback l2([&](TdnId t, bool) { calls += t == 1 ? 1 : 0; });
  host.AddTdnListener(&l1);
  host.AddTdnListener(&l2);
  Packet icmp;
  icmp.type = PacketType::kTdnNotify;
  icmp.notify_tdn = 1;
  host.HandlePacket(std::move(icmp));
  EXPECT_EQ(calls, 2);  // immediate, no events needed
}

TEST(Host, PushModelStaggersListeners) {
  Simulator sim;
  Host host(sim, 0);
  host.set_notify_distribution(NotifyDistribution{false, SimTime::Micros(2)});
  std::vector<SimTime> when(2);
  TdnCallback l1([&](TdnId, bool) { when[0] = sim.now(); });
  TdnCallback l2([&](TdnId, bool) { when[1] = sim.now(); });
  host.AddTdnListener(&l1);
  host.AddTdnListener(&l2);
  Packet icmp;
  icmp.type = PacketType::kTdnNotify;
  icmp.notify_tdn = 1;
  host.HandlePacket(std::move(icmp));
  sim.Run();
  EXPECT_EQ(when[0], SimTime::Zero());
  EXPECT_EQ(when[1], SimTime::Micros(2));
}

TEST(Host, RemoveTdnListener) {
  Simulator sim;
  Host host(sim, 0);
  int calls = 0;
  TdnCallback listener([&](TdnId, bool) { ++calls; });
  host.AddTdnListener(&listener);
  host.RemoveTdnListener(&listener);
  Packet icmp;
  icmp.type = PacketType::kTdnNotify;
  icmp.notify_tdn = 1;
  host.HandlePacket(std::move(icmp));
  EXPECT_EQ(calls, 0);
}

TEST(Host, PushModelSkipsListenerRemovedBeforeItsSlot) {
  Simulator sim;
  Host host(sim, 0);
  host.set_notify_distribution(NotifyDistribution{false, SimTime::Micros(2)});
  std::vector<SimTime> when(3, SimTime::Max());
  TdnCallback first([&](TdnId, bool) { when[0] = sim.now(); });
  auto doomed = std::make_unique<TdnCallback>(
      [&](TdnId, bool) { when[1] = sim.now(); });
  TdnCallback last([&](TdnId, bool) { when[2] = sim.now(); });
  host.AddTdnListener(&first);
  host.AddTdnListener(doomed.get());
  host.AddTdnListener(&last);
  Packet icmp;
  icmp.type = PacketType::kTdnNotify;
  icmp.notify_tdn = 1;
  host.HandlePacket(std::move(icmp));
  // Slots are already scheduled; the middle flow closes and is freed
  // before its slot fires (ASan would flag a call into it).
  host.RemoveTdnListener(doomed.get());
  doomed.reset();
  sim.Run();
  EXPECT_EQ(when[0], SimTime::Zero());
  EXPECT_EQ(when[1], SimTime::Max());
  EXPECT_EQ(when[2], SimTime::Micros(4));  // keeps its flow-order slot
  EXPECT_EQ(host.num_tdn_listeners(), 2u);
}

// Logs which listener heard each reconfig.
struct ReconfigLog : Host::TdnListener {
  ReconfigLog(std::vector<int>& log, int id) : log(log), id(id) {}
  void OnTdnChange(TdnId, bool) override {}
  void OnTdnReconfig(std::uint32_t live_tdns) override {
    log.push_back(id * 100 + static_cast<int>(live_tdns));
  }
  std::vector<int>& log;
  int id;
};

TEST(Host, ReconfigReachesEveryListenerOnceInRegistrationOrder) {
  Simulator sim;
  Host host(sim, 0);
  std::vector<int> log;
  ReconfigLog a(log, 1), b(log, 2), c(log, 3);
  int changes = 0;
  TdnCallback change_only([&](TdnId, bool) { ++changes; });
  host.AddTdnListener(&a, 1);  // rack filters apply to notifications only
  host.AddTdnListener(&change_only);
  host.AddTdnListener(&b);
  host.AddTdnListener(&c, 2);
  host.DistributeTdnReconfig(1);
  EXPECT_EQ(log, (std::vector<int>{101, 201, 301}));
  EXPECT_EQ(changes, 0);  // the interface's no-op default

  // The change-only listener still hears its notifications as before.
  Packet icmp;
  icmp.type = PacketType::kTdnNotify;
  icmp.notify_tdn = 0;
  host.HandlePacket(std::move(icmp));
  EXPECT_EQ(changes, 1);
  host.RemoveTdnListener(&b);
  host.DistributeTdnReconfig(2);
  EXPECT_EQ(log, (std::vector<int>{101, 201, 301, 102, 302}));
}

TEST(Host, SendWithoutUplinkThrows) {
  Simulator sim;
  Host host(sim, 3);
  EXPECT_THROW(host.Send(MakeData(9000, 1)), std::logic_error);
}

// ---------------------------------------------------------------------------
// ToRSwitch + Topology
// ---------------------------------------------------------------------------

TEST(Topology, LocalAndRemoteRouting) {
  Simulator sim;
  Random rng(1);
  TopologyConfig tc;
  tc.hosts_per_rack = 2;
  Topology topo(sim, rng, tc);

  CaptureSink ep;
  topo.host(1, 0)->RegisterEndpoint(5, &ep);
  // Send from rack 0 host 0 to rack 1 host 0 (node id 2).
  Packet p = MakeData(9000, topo.host_id(1, 0));
  p.flow = 5;
  topo.host(0, 0)->Send(std::move(p));
  sim.Run();
  ASSERT_EQ(ep.packets.size(), 1u);
  EXPECT_EQ(ep.packets[0].src, topo.host_id(0, 0));
}

TEST(Topology, IntraRackDelivery) {
  Simulator sim;
  Random rng(1);
  TopologyConfig tc;
  tc.hosts_per_rack = 2;
  Topology topo(sim, rng, tc);
  CaptureSink ep;
  topo.host(0, 1)->RegisterEndpoint(3, &ep);
  Packet p = MakeData(9000, topo.host_id(0, 1));
  p.flow = 3;
  topo.host(0, 0)->Send(std::move(p));
  sim.Run();
  EXPECT_EQ(ep.packets.size(), 1u);
}

TEST(Topology, RackResolver) {
  Simulator sim;
  Random rng(1);
  TopologyConfig tc;
  tc.hosts_per_rack = 16;
  Topology topo(sim, rng, tc);
  EXPECT_EQ(topo.rack_of(0), 0u);
  EXPECT_EQ(topo.rack_of(15), 0u);
  EXPECT_EQ(topo.rack_of(16), 1u);
  EXPECT_EQ(topo.host_id(1, 3), 19u);
}

TEST(ToRSwitch, NotifyViaControlNetworkTiming) {
  Simulator sim;
  Random rng(1);
  NotifyGenConfig nc;  // cached, control network
  ToRSwitch tor(sim, 0, 2, nc, &rng);
  Host h0(sim, 0), h1(sim, 1);
  std::vector<SimTime> when(2, SimTime::Max());
  TdnCallback l0([&](TdnId, bool) { when[0] = sim.now(); });
  TdnCallback l1([&](TdnId, bool) { when[1] = sim.now(); });
  h0.AddTdnListener(&l0);
  h1.AddTdnListener(&l1);
  tor.AttachHost(0, nullptr, &h0);
  tor.AttachHost(1, nullptr, &h1);
  tor.NotifyHosts(1);
  sim.Run();
  // Host 0: ~0.5us gen (lognormal) + 1us control; host 1 strictly later
  // (its generation waits behind host 0's).
  EXPECT_GT(when[0], SimTime::Micros(1));
  EXPECT_LT(when[0], SimTime::Micros(20));
  EXPECT_GT(when[1], when[0]);
  EXPECT_EQ(tor.notifications_sent(), 2u);
}

TEST(ToRSwitch, FreshGenerationSlowerThanCached) {
  Simulator sim;
  Random rng(1);
  NotifyGenConfig cached;
  NotifyGenConfig fresh;
  fresh.cached_packet = false;
  ToRSwitch tor_cached(sim, 0, 1, cached, &rng);
  ToRSwitch tor_fresh(sim, 1, 1, fresh, &rng);
  Host h(sim, 0);
  tor_cached.AttachHost(0, nullptr, &h);
  tor_fresh.AttachHost(0, nullptr, &h);
  double cached_sum = 0, fresh_sum = 0;
  for (int i = 0; i < 200; ++i) {
    tor_cached.NotifyHosts(0);
    cached_sum += tor_cached.last_notify_latency()[0].micros_f();
    tor_fresh.NotifyHosts(0);
    fresh_sum += tor_fresh.last_notify_latency()[0].micros_f();
  }
  EXPECT_GT(fresh_sum, cached_sum * 4);  // ~8x at the median per §5.4
}

TEST(ToRSwitch, DataPlaneDeliveryRidesDownlink) {
  Simulator sim;
  Random rng(1);
  NotifyGenConfig nc;
  nc.via_control_network = false;
  ToRSwitch tor(sim, 0, 2, nc, &rng);
  Host h(sim, 0);
  CaptureSink sink;
  Link::Config lc;
  lc.rate_bps = 1'000'000;  // slow downlink: ICMP queues behind it
  Link down(sim, lc, &h);
  bool notified = false;
  TdnCallback listener([&](TdnId, bool) { notified = true; });
  h.AddTdnListener(&listener);
  tor.AttachHost(0, &down, &h);
  // Pre-fill the downlink with a data packet; the ICMP must wait.
  down.Enqueue(MakeData(9000, 0));
  tor.NotifyHosts(1);
  sim.RunUntil(SimTime::Micros(100));
  EXPECT_FALSE(notified);  // still serializing the data packet (72ms at 1Mbps)
  sim.Run();
  EXPECT_TRUE(notified);
}

TEST(ToRSwitch, UnknownLocalHostThrows) {
  Simulator sim;
  Random rng(1);
  ToRSwitch tor(sim, 0, 4, NotifyGenConfig{}, &rng);
  Host h(sim, 0);
  CaptureSink sink;
  Link down(sim, Link::Config{}, &sink);
  tor.AttachHost(0, &down, &h);
  EXPECT_THROW(tor.HandlePacket(MakeData(9000, 2)), std::logic_error);
}

TEST(ToRSwitch, MissingFabricPortThrows) {
  Simulator sim;
  Random rng(1);
  ToRSwitch tor(sim, 0, 4, NotifyGenConfig{}, &rng);
  EXPECT_THROW(tor.HandlePacket(MakeData(9000, 9)), std::logic_error);
}

TEST(ToRSwitch, PortLookupByRack) {
  Simulator sim;
  Random rng(1);
  ToRSwitch tor(sim, 0, 4, NotifyGenConfig{}, &rng);
  CaptureSink remote;
  FabricPort* p3 = tor.AddRemoteRack(3, PortConfig(), &remote);
  EXPECT_EQ(tor.port(3), p3);
  EXPECT_THROW(tor.port(2), std::out_of_range);  // a gap below the port
  EXPECT_THROW(tor.port(9), std::out_of_range);  // past the last port
  tor.HandlePacket(MakeData(9000, 3 * 4 + 1));
  sim.Run();
  EXPECT_EQ(remote.packets.size(), 1u);
  EXPECT_THROW(tor.HandlePacket(MakeData(9000, 2 * 4)), std::logic_error);
}

// ---------------------------------------------------------------------------
// Packet pool balance: every handle a queue stage takes from the
// Simulator's pool goes back exactly once, whatever path the packet took
// (delivered, tail drop, CoDel drop, fault drop, pinned-stash drop, repack).
// ---------------------------------------------------------------------------

QueueDisc::Config TightCodel(std::uint32_t capacity) {
  return QueueDisc::Config{.kind = QdiscKind::kCodel,
                           .capacity_packets = capacity,
                           .codel_target = SimTime::Micros(1),
                           .codel_interval = SimTime::Micros(5)};
}

TEST(PacketPool, LinkReleasesEveryHandleOnEveryPath) {
  Simulator sim;
  CaptureSink sink;
  Link::Config lc;
  lc.rate_bps = 1'000'000'000;  // 72 us per jumbo: a standing queue forms
  lc.queue = TightCodel(40);
  Link link(sim, lc, &sink);
  std::uint64_t seen = 0;
  link.SetFaultFilter([&seen](const Packet&) { return ++seen % 4 == 0; });
  for (int i = 0; i < 60; ++i) link.Enqueue(MakeData(9000));
  EXPECT_GT(sim.stashed_packets(), 0u);
  sim.Run();
  const QueueDisc::Stats& st = link.queue().stats();
  EXPECT_GT(st.codel_drops, 0u);
  EXPECT_GT(st.dropped, st.codel_drops);  // tail drops too
  EXPECT_GT(link.fault_dropped(), 0u);
  EXPECT_EQ(sink.packets.size() + link.fault_dropped() + st.dropped, 60u);
  EXPECT_EQ(sim.stashed_packets(), 0u);
}

TEST(PacketPool, FabricPortReleasesEveryHandleAcrossRepacks) {
  Simulator sim;
  CaptureSink sink;
  FabricPort::Config fc = PortConfig();
  fc.voq = TightCodel(32);
  fc.pinned_stash_capacity = 3;
  FabricPort port(sim, fc, &sink);
  std::uint64_t seen = 0;
  port.SetFaultFilter([&seen](const Packet&) { return ++seen % 5 == 0; });
  port.SetBlackout(true);
  // Packet mode: unpinned and path-0 packets enter the VOQ, path-1 packets
  // wait in the stash (3 fit, the rest are dropped at once).
  for (int i = 0; i < 30; ++i) {
    Packet p = MakeData(9000);
    p.pinned_path = i % 3 == 0 ? kUnpinned : static_cast<std::int8_t>(i % 3 - 1);
    port.Enqueue(std::move(p));
  }
  EXPECT_EQ(port.pinned_waiting(), 3u);
  // Circuit up: the VOQ's path-0 packets are repacked into the (small)
  // path-0 stash, overflowing it; the path-1 stash joins the VOQ.
  port.SetMode(CircuitMode());
  EXPECT_GT(port.pinned_dropped(), 7u);
  port.SetBlackout(false);
  sim.RunUntil(SimTime::Micros(200));
  // Back to packet mode: the path-0 stash drains as well.
  port.SetMode(PortConfig().initial_mode);
  sim.Run();
  const QueueDisc::Stats& st = port.voq().stats();
  EXPECT_GT(port.fault_dropped(), 0u);
  EXPECT_EQ(port.pinned_waiting(), 0u);
  EXPECT_EQ(sink.packets.size() + port.fault_dropped() + st.dropped +
                port.pinned_dropped(),
            30u);
  EXPECT_EQ(sim.stashed_packets(), 0u);
}

TEST(PacketPool, TopologyDestroyedWithPacketsQueuedAndInFlight) {
  // Tearing a topology down mid-run leaves handles queued in links, VOQs
  // and stashes and captured by pending arrival events; that must be
  // memory-clean (checked under ASan), and the Simulator that outlives the
  // topology still owns the storage.
  Simulator sim;
  Random rng(3);
  {
    TopologyConfig tc;
    tc.hosts_per_rack = 2;
    Topology topo(sim, rng, tc);
    for (int i = 0; i < 40; ++i) {
      Packet p = MakeData(9000, topo.host_id(1, i % 2));
      p.flow = 9;
      p.pinned_path = i % 4 == 0 ? 1 : kUnpinned;
      topo.host(0, i % 2)->Send(std::move(p));
    }
    sim.RunUntil(SimTime::Micros(20));
    EXPECT_GT(sim.stashed_packets(), 0u);
  }
  // The pool still hands out and takes back handles after the teardown.
  Packet* p = sim.StashPacket(MakeData());
  sim.ReleasePacket(p);
}

// ---------------------------------------------------------------------------
// Delivery-multiset soak
// ---------------------------------------------------------------------------

// (time in ps, sink, packet id) of every delivery.
using DeliveryLog = std::vector<std::tuple<std::int64_t, int, std::uint64_t>>;

// Records every delivery, optionally forwarding the packet to the next stage.
struct SoakTap : PacketSink {
  SoakTap(Simulator& sim, DeliveryLog& log, int id)
      : sim(sim), log(log), id(id) {}
  void HandlePacket(Packet&& p) override {
    log.emplace_back(sim.now().picos(), id, p.id);
    if (link != nullptr) link->Enqueue(std::move(p));
    if (port != nullptr) port->Enqueue(std::move(p));
  }
  Simulator& sim;
  DeliveryLog& log;
  int id;
  Link* link = nullptr;
  FabricPort* port = nullptr;
};

// Two racks' uplink -> fabric port -> downlink paths under seeded random
// traffic (64-9000 B, some pinned to one network, some same-instant
// bursts), an RDCN-like schedule of blackouts and mode switches, and one
// downlink-disable window. No TCP, faults or jitter. Every night outlasts
// the longest serialization (9000 B at 10 Gbps = 7.2 us), so no mode switch
// lands mid-serialization. The deliveries, sorted by (time, sink, packet
// id) and hashed, are pinned: how a stage schedules its events may reorder
// same-time ties, but must not move any delivery's time or drop set.
TEST(Soak, DeliveryMultisetIsPinned) {
  Simulator sim;
  Random rng(20221);
  DeliveryLog log;

  Link::Config lc;
  lc.rate_bps = 40'000'000'000;
  lc.propagation = SimTime::Micros(1);
  lc.queue.capacity_packets = 48;
  FabricPort::Config fc = PortConfig();
  fc.voq.capacity_packets = 64;
  fc.pinned_stash_capacity = 32;

  std::vector<std::unique_ptr<SoakTap>> taps;
  for (int i = 0; i < 6; ++i) {
    taps.push_back(std::make_unique<SoakTap>(sim, log, i));
  }
  // Rack r: uplink[r] -> tap(3r) -> port[r] -> tap(3r+1) -> downlink[1-r]
  // -> tap(3r+2).
  std::vector<std::unique_ptr<Link>> up, down;
  std::vector<std::unique_ptr<FabricPort>> ports;
  for (int r = 0; r < 2; ++r) {
    up.push_back(std::make_unique<Link>(sim, lc, taps[3 * r].get()));
    ports.push_back(
        std::make_unique<FabricPort>(sim, fc, taps[3 * r + 1].get()));
  }
  for (int r = 0; r < 2; ++r) {
    down.push_back(
        std::make_unique<Link>(sim, lc, taps[3 * (1 - r) + 2].get()));
  }
  for (int r = 0; r < 2; ++r) {
    taps[3 * r]->port = ports[r].get();
    taps[3 * r + 1]->link = down[1 - r].get();
  }

  // Traffic: about 3000 packets per rack over 4 ms; a quarter of the
  // arrival instants carry a same-instant burst of 2-4, and one packet in
  // ten is pinned to a network.
  constexpr std::int64_t kSpanPs = 4'000'000'000;
  std::uint64_t next_id = 1;
  std::vector<std::pair<int, Packet>> sends;
  for (int r = 0; r < 2; ++r) {
    for (int n = 0; n < 3000;) {
      const SimTime at = SimTime::Picos(rng.UniformInt(0, kSpanPs));
      const int burst =
          rng.Bernoulli(0.25) ? static_cast<int>(rng.UniformInt(2, 4)) : 1;
      for (int b = 0; b < burst; ++b, ++n) {
        Packet p =
            MakeData(static_cast<std::uint32_t>(rng.UniformInt(64, 9000)));
        p.id = next_id++;
        if (rng.Bernoulli(0.1)) {
          p.pinned_path = static_cast<std::int8_t>(rng.UniformInt(0, 1));
        }
        sends.emplace_back(r, std::move(p));
        sim.ScheduleAtNoCancel(at, [&, k = sends.size() - 1] {
          up[sends[k].first]->Enqueue(std::move(sends[k].second));
        });
      }
    }
  }
  // Schedule: 180 us days alternating packet / circuit mode, 20 us nights.
  const NetworkMode modes[2] = {PortConfig().initial_mode, CircuitMode()};
  int week_slot = 0;
  for (SimTime t = SimTime::Micros(180); t < SimTime::Micros(4600);
       t += SimTime::Micros(200)) {
    const NetworkMode next = modes[++week_slot % 2];
    sim.ScheduleAtNoCancel(t, [&] {
      for (auto& port : ports) port->SetBlackout(true);
    });
    sim.ScheduleAtNoCancel(t + SimTime::Micros(20), [&, next] {
      for (auto& port : ports) {
        port->SetMode(next);
        port->SetBlackout(false);
      }
    });
  }
  // One downlink goes dark for 300 us.
  sim.ScheduleAtNoCancel(SimTime::Micros(1500),
                         [&] { down[1]->set_enabled(false); });
  sim.ScheduleAtNoCancel(SimTime::Micros(1800),
                         [&] { down[1]->set_enabled(true); });
  sim.Run();

  std::sort(log.begin(), log.end());
  Fnv1a64 h;
  h.Mix(log.size());
  for (const auto& [t, sink, id] : log) {
    h.Mix(static_cast<std::uint64_t>(t));
    h.Mix(static_cast<std::uint64_t>(sink));
    h.Mix(id);
  }
  // Enough traffic reached every stage, and enough was dropped, for the pin
  // to mean something.
  for (int i = 0; i < 6; ++i) {
    EXPECT_GT(std::count_if(log.begin(), log.end(),
                            [i](const auto& e) { return std::get<1>(e) == i; }),
              500)
        << "sink " << i;
  }
  EXPECT_GT(ports[0]->voq().stats().dropped, 0u);
  EXPECT_GT(down[1]->queue().stats().dropped, 0u);
  // Computed on the earlier two-event stage design (a serialization-complete
  // event, then the arrival); DESIGN.md §4, "One event per packet stage".
  EXPECT_EQ(log.size(), 15457u);
  EXPECT_EQ(h.value(), 11362410912502062180ull);
}

}  // namespace
}  // namespace tdtcp
