// Network substrate: queues, links, fabric ports, hosts, ToR switches.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
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
  Link jlink(sim, lc, &sink, rng);
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

// Stage contract: a stage acts on a packet once, when it starts serializing,
// and every packet costs one event, its arrival. A packet queued behind the
// wire takes no start event: the packet in flight runs its start when it
// arrives, or the next touch of the stage does (DESIGN.md §4).

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

TEST(Link, SameTimeBurstCostsNEvents) {
  constexpr std::uint64_t kBurst = 7;
  Simulator sim;
  CaptureSink sink;
  Link link(sim, StageLink(), &sink);
  for (std::uint64_t i = 0; i < kBurst; ++i) link.Enqueue(MakeData(9000));
  sim.Run();
  EXPECT_EQ(sink.packets.size(), kBurst);
  EXPECT_EQ(sim.events_executed(), kBurst);
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
    EXPECT_EQ(sim.events_executed(), kBurst);
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
  EXPECT_EQ(sim.events_executed(), kBurst);
}

// ---------------------------------------------------------------------------
// Lazy starts: an oracle for the stage contract
// ---------------------------------------------------------------------------

// One input to a stage, applied at `at` in schedule order.
struct StageInput {
  enum Kind { kEnqueue, kDisable, kEnable, kRetarget } kind;
  SimTime at;
  std::uint64_t id = 0;  // kEnqueue
  std::uint32_t size = 0;
  std::int8_t pin = kUnpinned;
  int mode = 0;  // kRetarget: index into the mode table
};

// (arrival ps, packet id, circuit mark)
using StageDelivery = std::tuple<std::int64_t, std::uint64_t, bool>;
// (packet id, serialization start ps) of every wire drop, in start order
using StageFault = std::pair<std::uint64_t, std::int64_t>;

// The stage as Lindley's recursion, with no events and no owed state: the
// k-th packet to leave the queue starts at max(when it could start, previous
// start + previous tx) and arrives tx + propagation (+ jitter) later. Inputs
// are applied in (time, schedule) order. Before each one, the starts the
// wire reaches strictly before its time run, and so does one due exactly
// then unless the input is a night or a mode flip (the tie rule); after it,
// a free wire starts at once. A disabled stage holds its starts until it is
// enabled again. Pinned packets and the repack follow FabricPort; a plain
// Link sees no pins.
class StageOracle {
 public:
  StageOracle(std::uint32_t capacity, std::uint32_t stash_capacity,
              NetworkMode mode, SimTime jitter, std::uint64_t jitter_seed,
              std::function<bool(std::uint64_t)> drops)
      : capacity_(capacity), stash_capacity_(stash_capacity), mode_(mode),
        jitter_(jitter), rng_(jitter_seed), drops_(std::move(drops)) {}

  void Apply(const StageInput& in, const std::vector<NetworkMode>& modes) {
    while (enabled_ && Waiting() && free_at_ < in.at) Start(free_at_);
    if (enabled_ && Waiting() && free_at_ == in.at) {
      ++ties;
      // A night or a mode flip acts first; anything else finds the
      // packet gone.
      if (in.kind == StageInput::kEnqueue || in.kind == StageInput::kEnable) {
        Start(free_at_);
      }
    }
    switch (in.kind) {
      case StageInput::kEnqueue: {
        const Pkt p{in.id, in.size, in.pin};
        if (p.pin != kUnpinned && p.pin != Active()) {
          if (stash_[p.pin].size() >= stash_capacity_) {
            ++pinned_drops;
          } else {
            stash_[p.pin].push_back(p);
          }
        } else if (voq_.size() >= capacity_) {
          ++voq_drops;
        } else {
          voq_.push_back(p);
        }
        break;
      }
      case StageInput::kDisable: enabled_ = false; break;
      case StageInput::kEnable: enabled_ = true; break;
      case StageInput::kRetarget: {
        mode_ = modes[static_cast<std::size_t>(in.mode)];
        std::deque<Pkt> kept;
        for (const Pkt& p : voq_) {
          if (p.pin == kUnpinned || p.pin == Active()) {
            kept.push_back(p);
          } else if (stash_[p.pin].size() >= stash_capacity_) {
            ++pinned_drops;
          } else {
            stash_[p.pin].push_back(p);
          }
        }
        voq_ = std::move(kept);
        TopUp();
        break;
      }
    }
    while (enabled_ && Waiting() && free_at_ <= in.at) Start(in.at);
  }

  void Finish() {
    while (enabled_ && Waiting()) Start(free_at_);
  }

  std::vector<StageDelivery> deliveries;
  std::vector<StageFault> faults;
  std::uint64_t voq_drops = 0;
  std::uint64_t pinned_drops = 0;
  std::uint64_t ties = 0;  // inputs landing exactly on a start

 private:
  struct Pkt {
    std::uint64_t id;
    std::uint32_t size;
    std::int8_t pin;
  };
  int Active() const { return mode_.circuit ? 1 : 0; }
  bool Waiting() const { return !voq_.empty() || !stash_[Active()].empty(); }
  void TopUp() {
    auto& stash = stash_[Active()];
    while (!stash.empty() && voq_.size() < capacity_) {
      voq_.push_back(stash.front());
      stash.pop_front();
    }
  }
  void Start(SimTime t) {
    TopUp();
    const Pkt p = voq_.front();
    voq_.pop_front();
    const SimTime tx = TransmissionTime(p.size, mode_.rate_bps);
    free_at_ = t + tx;
    if (drops_(p.id)) {
      faults.emplace_back(p.id, t.picos());
      return;
    }
    SimTime delay = tx + mode_.propagation;
    if (!jitter_.IsZero()) delay += rng_.UniformTime(SimTime::Zero(), jitter_);
    deliveries.emplace_back((t + delay).picos(), p.id, mode_.circuit);
  }

  std::uint32_t capacity_;
  std::uint32_t stash_capacity_;
  NetworkMode mode_;
  SimTime jitter_;
  Random rng_;
  std::function<bool(std::uint64_t)> drops_;
  std::deque<Pkt> voq_;
  std::deque<Pkt> stash_[2];
  bool enabled_ = true;
  SimTime free_at_ = SimTime::Zero();
};

// Random traffic on a 100 ns grid (64 B to 9000 B in 125 B steps: a whole
// number of 100 ns at 10 Gbps, so starts, inputs and frees often tie),
// same-instant bursts, pins, blackouts, and retargets that land anywhere,
// mid-serialization included.
std::vector<StageInput> RandomStageInputs(std::uint64_t seed, bool pins,
                                          int num_modes) {
  Random rng(seed);
  constexpr std::int64_t kSteps = 15'000;  // 1.5 ms
  const auto grid = [](std::int64_t step) { return SimTime::Nanos(100 * step); };
  std::vector<StageInput> in;
  std::uint64_t id = 1;
  for (int n = 0; n < 1500;) {
    const SimTime at = grid(rng.UniformInt(0, kSteps));
    const int burst =
        rng.Bernoulli(0.25) ? static_cast<int>(rng.UniformInt(2, 4)) : 1;
    for (int b = 0; b < burst; ++b, ++n) {
      StageInput e{StageInput::kEnqueue, at};
      e.id = id++;
      e.size = static_cast<std::uint32_t>(125 * rng.UniformInt(1, 72));
      if (pins && rng.Bernoulli(0.15)) {
        e.pin = static_cast<std::int8_t>(rng.UniformInt(0, 1));
      }
      in.push_back(e);
    }
  }
  for (std::int64_t step = 0; step < kSteps;) {
    step += rng.UniformInt(300, 1500);
    in.push_back({StageInput::kDisable, grid(step)});
    step += rng.UniformInt(1, 300);
    in.push_back({StageInput::kEnable, grid(step)});
  }
  for (int k = 0; k < 40; ++k) {
    StageInput e{StageInput::kRetarget, grid(rng.UniformInt(0, kSteps))};
    e.mode = static_cast<int>(rng.UniformInt(0, num_modes - 1));
    in.push_back(e);
  }
  std::stable_sort(in.begin(), in.end(),
                   [](const StageInput& a, const StageInput& b) {
                     return a.at < b.at;
                   });
  return in;
}

struct OracleCase {
  const char* name;
  bool faults;
  bool jitter;
  SimTime circuit_propagation;
};

const OracleCase kOracleCases[] = {
    {"plain", false, false, SimTime::Micros(1)},
    {"wire drops", true, false, SimTime::Micros(1)},
    {"jitter", false, true, SimTime::Micros(1)},
    {"drops and jitter", true, true, SimTime::Micros(1)},
    {"zero propagation", true, false, SimTime::Zero()},
};

// Every tenth-or-so packet is lost on the wire; a pure function of the id,
// so the stage and the oracle agree however late a start runs.
bool OracleDrops(std::uint64_t id) { return id % 11 == 3; }

// Drives a stage and the oracle with the same inputs and compares every
// delivery (time, id, circuit mark), every wire drop (id, start time) and
// the drop counts. `Stage` adapts a Link or a FabricPort.
template <typename Stage>
void CheckAgainstOracle(std::uint64_t seed, const OracleCase& c, bool pins) {
  SCOPED_TRACE(testing::Message() << c.name << ", seed " << seed);
  const std::vector<NetworkMode> modes = {
      {0, 10'000'000'000, SimTime::Micros(3), false},
      {1, 100'000'000'000, c.circuit_propagation, true},
      {0, 40'000'000'000, SimTime::Micros(2), false},
  };
  const SimTime jitter = c.jitter ? SimTime::Micros(4) : SimTime::Zero();
  constexpr std::uint32_t kCapacity = 24;
  constexpr std::uint32_t kStash = 8;
  const std::vector<StageInput> inputs =
      RandomStageInputs(seed, pins, pins ? 2 : 3);

  Simulator sim;
  CaptureSink sink;
  Stage stage(sim, modes[0], jitter, kCapacity, kStash, &sink,
              Random(seed + 1000));
  std::vector<StageFault> faults;
  if (c.faults) {
    stage.SetFaultFilter([&](const Packet& p) {
      if (!OracleDrops(p.id)) return false;
      faults.emplace_back(p.id, stage.tx_start().picos());
      return true;
    });
  }
  StageOracle oracle(kCapacity, kStash, modes[0], jitter, seed + 1000,
                     c.faults ? OracleDrops
                              : [](std::uint64_t) { return false; });
  for (const StageInput& in : inputs) {
    sim.ScheduleAtNoCancel(in.at, [&stage, &modes, e = &in] {
      switch (e->kind) {
        case StageInput::kEnqueue: {
          Packet p = MakeData(e->size);
          p.id = e->id;
          p.pinned_path = e->pin;
          stage.Enqueue(std::move(p));
          break;
        }
        case StageInput::kDisable: stage.SetEnabled(false); break;
        case StageInput::kEnable: stage.SetEnabled(true); break;
        case StageInput::kRetarget:
          stage.Retarget(modes[static_cast<std::size_t>(e->mode)]);
          break;
      }
    });
    oracle.Apply(in, modes);
  }
  oracle.Finish();
  sim.Run();

  std::vector<StageDelivery> got;
  for (const Packet& p : sink.packets) {
    got.emplace_back(p.enqueue_time.picos(), p.id, p.circuit_mark);
  }
  std::sort(got.begin(), got.end());
  std::vector<StageDelivery> want = oracle.deliveries;
  std::sort(want.begin(), want.end());
  ASSERT_GT(want.size(), 600u);
  EXPECT_EQ(got, want);
  EXPECT_EQ(faults, oracle.faults);
  EXPECT_EQ(stage.fault_dropped(), oracle.faults.size());
  EXPECT_EQ(stage.queue().stats().dropped, oracle.voq_drops);
  EXPECT_EQ(stage.pinned_dropped(), oracle.pinned_drops);
  EXPECT_GT(oracle.voq_drops, 0u);
  EXPECT_GT(oracle.ties, 0u);
  if (pins) {
    EXPECT_GT(oracle.pinned_drops, 0u);
  }
}

// Stamps each delivery's arrival time into enqueue_time (unused after the
// stage) so CheckAgainstOracle can read it off the captured packet.
struct ArrivalStamp : PacketSink {
  ArrivalStamp(Simulator& sim, PacketSink* next) : sim(sim), next(next) {}
  void HandlePacket(Packet&& p) override {
    p.enqueue_time = sim.now();
    next->HandlePacket(std::move(p));
  }
  Simulator& sim;
  PacketSink* next;
};

struct LinkStage {
  LinkStage(Simulator& sim, const NetworkMode& mode, SimTime jitter,
            std::uint32_t capacity, std::uint32_t, PacketSink* sink,
            Random rng)
      : stamp(sim, sink),
        link(sim,
             Link::Config{.rate_bps = mode.rate_bps,
                          .propagation = mode.propagation,
                          .queue = {.capacity_packets = capacity},
                          .reorder_jitter = jitter,
                          .name = "oracle link"},
             &stamp, rng) {}
  void Enqueue(Packet&& p) { link.Enqueue(std::move(p)); }
  void SetEnabled(bool on) { link.set_enabled(on); }
  void Retarget(const NetworkMode& m) {
    link.Retarget(m.rate_bps, m.propagation, m.circuit, nullptr);
  }
  void SetFaultFilter(Link::FaultFilter f) { link.SetFaultFilter(std::move(f)); }
  SimTime tx_start() const { return link.tx_start(); }
  std::uint64_t fault_dropped() const { return link.fault_dropped(); }
  const QueueDisc& queue() const { return link.queue(); }
  std::uint64_t pinned_dropped() const { return 0; }
  ArrivalStamp stamp;
  Link link;
};

struct PortStage {
  PortStage(Simulator& sim, const NetworkMode& mode, SimTime jitter,
            std::uint32_t capacity, std::uint32_t stash, PacketSink* sink,
            Random rng)
      : stamp(sim, sink),
        port(sim,
             FabricPort::Config{.voq = {.capacity_packets = capacity},
                                .initial_mode = mode,
                                .reorder_jitter = jitter,
                                .pinned_stash_capacity = stash,
                                .name = "oracle port"},
             &stamp, rng) {}
  void Enqueue(Packet&& p) { port.Enqueue(std::move(p)); }
  void SetEnabled(bool on) { port.SetBlackout(!on); }
  void Retarget(const NetworkMode& m) { port.SetMode(m); }
  void SetFaultFilter(Link::FaultFilter f) { port.SetFaultFilter(std::move(f)); }
  SimTime tx_start() const { return port.tx_start(); }
  std::uint64_t fault_dropped() const { return port.fault_dropped(); }
  const QueueDisc& queue() const { return port.voq(); }
  std::uint64_t pinned_dropped() const { return port.pinned_dropped(); }
  ArrivalStamp stamp;
  FabricPort port;
};

TEST(LazyStarts, LinkMatchesLindleyOracle) {
  for (const OracleCase& c : kOracleCases) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      CheckAgainstOracle<LinkStage>(seed, c, /*pins=*/false);
    }
  }
}

TEST(LazyStarts, FabricPortMatchesLindleyOracle) {
  for (const OracleCase& c : kOracleCases) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      CheckAgainstOracle<PortStage>(seed, c, /*pins=*/true);
    }
  }
}

// The tie rule: a night or a mode flip at exactly busy_until_ acts before
// the start owed then; anything else at that instant finds the start run.
// 9000 B at 10 Gbps frees the wire at 7.2 us.
TEST(LazyStarts, TouchAtBusyUntilActsBeforeTheOwedStart) {
  const SimTime free = SimTime::Nanos(7200);
  {  // A night at busy_until_ holds the next start until it lifts.
    Simulator sim;
    CaptureSink sink;
    Link link(sim, StageLink(), &sink);
    sim.ScheduleAtNoCancel(free, [&] { link.set_enabled(false); });
    sim.ScheduleAtNoCancel(SimTime::Micros(20), [&] { link.set_enabled(true); });
    link.Enqueue(MakeData(9000));
    link.Enqueue(MakeData(9000));
    sim.Run();
    ASSERT_EQ(sink.packets.size(), 2u);
    EXPECT_EQ(sim.now(), SimTime::Micros(20) + free + SimTime::Micros(1));
  }
  {  // A mode flip at busy_until_ sends the next packet on the new network.
    Simulator sim;
    CaptureSink sink;
    FabricPort port(sim, PortConfig(), &sink);  // 10G, 48 us
    sim.ScheduleAtNoCancel(free, [&] { port.SetMode(CircuitMode()); });
    port.Enqueue(MakeData(9000));
    port.Enqueue(MakeData(9000));
    // The second packet: 0.72 us of tx at 100 Gbps, then 18 us.
    const SimTime circuit_arrival =
        free + SimTime::Nanos(720) + SimTime::Micros(18);
    sim.RunUntil(circuit_arrival - SimTime::Picos(1));
    EXPECT_TRUE(sink.packets.empty());
    sim.RunUntil(circuit_arrival);
    ASSERT_EQ(sink.packets.size(), 1u);
    EXPECT_TRUE(sink.packets[0].circuit_mark);
    sim.Run();  // the first packet keeps its 48 us
    ASSERT_EQ(sink.packets.size(), 2u);
    EXPECT_FALSE(sink.packets[1].circuit_mark);
    EXPECT_EQ(sink.packets[0].id, sink.packets[1].id + 1);
    EXPECT_EQ(sim.now(), free + SimTime::Micros(48));
  }
  {  // Anything else at busy_until_ finds the head gone: an enqueue fits
     // into the place it left.
    Simulator sim;
    CaptureSink sink;
    Link::Config lc = StageLink();
    lc.queue.capacity_packets = 1;
    Link link(sim, lc, &sink);
    sim.ScheduleAtNoCancel(free, [&] { link.Enqueue(MakeData(9000)); });
    link.Enqueue(MakeData(9000));  // serializes at once
    link.Enqueue(MakeData(9000));  // fills the queue
    sim.Run();
    EXPECT_EQ(sink.packets.size(), 3u);
    EXPECT_EQ(link.queue().stats().dropped, 0u);
  }
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
  NotifyGenConfig nc;  // cached, control network
  ToRSwitch tor(sim, 0, 2, nc, Random(1));
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
  NotifyGenConfig cached;
  NotifyGenConfig fresh;
  fresh.cached_packet = false;
  ToRSwitch tor_cached(sim, 0, 1, cached, Random(1));
  ToRSwitch tor_fresh(sim, 1, 1, fresh, Random(1));
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
  NotifyGenConfig nc;
  nc.via_control_network = false;
  ToRSwitch tor(sim, 0, 2, nc, Random(1));
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
  ToRSwitch tor(sim, 0, 4, NotifyGenConfig{}, Random(1));
  Host h(sim, 0);
  CaptureSink sink;
  Link down(sim, Link::Config{}, &sink);
  tor.AttachHost(0, &down, &h);
  EXPECT_THROW(tor.HandlePacket(MakeData(9000, 2)), std::logic_error);
}

TEST(ToRSwitch, MissingFabricPortThrows) {
  Simulator sim;
  ToRSwitch tor(sim, 0, 4, NotifyGenConfig{}, Random(1));
  EXPECT_THROW(tor.HandlePacket(MakeData(9000, 9)), std::logic_error);
}

TEST(ToRSwitch, PortLookupByRack) {
  Simulator sim;
  ToRSwitch tor(sim, 0, 4, NotifyGenConfig{}, Random(1));
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
  // Re-pinned when Random became a counter-based stream (DESIGN.md §14):
  // the traffic drawn above changed.
  EXPECT_EQ(log.size(), 15677u);
  EXPECT_EQ(h.value(), 16049447546658169776ull);
}

}  // namespace
}  // namespace tdtcp
