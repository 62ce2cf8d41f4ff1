// The allocation-free event core's contract (see event_queue.hpp): exact
// FIFO among equal timestamps no matter how slots are recycled, O(1)
// sequence-tagged cancellation that can never alias a later event, the
// zero-delay lane's ordering against the heap, dead-entry compaction, and
// end-to-end bit-identity of a seeded RDCN run.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "app/experiment.hpp"
#include "cc/registry.hpp"
#include "net/topology.hpp"
#include "rdcn/controller.hpp"
#include "sim/event_queue.hpp"
#include "sim/hash.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "tcp/tcp_connection.hpp"

namespace tdtcp {
namespace {

// Drains the queue, appending each fired value to `order`.
void Drain(EventQueue& q) {
  SimTime now = SimTime::Zero();
  while (!q.Empty()) q.RunNext(now);
}

TEST(EventCore, FifoPreservedAcrossSlotRecycling) {
  // Slots are recycled LIFO while sequence numbers only grow; firing order
  // must follow schedule order even when a late event lands in a slot that
  // already hosted (and retired) many earlier events.
  EventQueue q;
  std::vector<int> order;
  int tag = 0;
  for (int round = 0; round < 50; ++round) {
    // Same timestamp for every event in the round: only the sequence number
    // can break the tie.
    const SimTime at = SimTime::Nanos(10);
    for (int i = 0; i < 7; ++i) {
      q.Schedule(at, [&order, t = tag++] { order.push_back(t); });
    }
    Drain(q);
  }
  ASSERT_EQ(order.size(), 350u);
  for (int i = 0; i < 350; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventCore, StaleIdNeverCancelsSlotsNewOccupant) {
  EventQueue q;
  bool first_ran = false;
  const EventId stale = q.Schedule(SimTime::Nanos(1),
                                   [&first_ran] { first_ran = true; });
  Drain(q);
  EXPECT_TRUE(first_ran);

  // The fired event's slot is recycled by the next schedule (LIFO freelist).
  bool second_ran = false;
  const EventId fresh = q.Schedule(SimTime::Nanos(2),
                                   [&second_ran] { second_ran = true; });
  ASSERT_EQ(EventQueue::SlotOf(stale), EventQueue::SlotOf(fresh))
      << "test premise: the slot must be recycled";
  ASSERT_NE(EventQueue::SeqOf(stale), EventQueue::SeqOf(fresh));

  q.Cancel(stale);  // must be a no-op against the new occupant
  EXPECT_EQ(q.size(), 1u);
  Drain(q);
  EXPECT_TRUE(second_ran);
}

TEST(EventCore, CancelAfterFireAndDoubleCancelAreNoOps) {
  EventQueue q;
  int fired = 0;
  const EventId id = q.Schedule(SimTime::Nanos(1), [&fired] { ++fired; });
  Drain(q);
  q.Cancel(id);
  q.Cancel(id);
  EXPECT_EQ(q.size(), 0u);
  q.Schedule(SimTime::Nanos(2), [&fired] { ++fired; });
  Drain(q);
  EXPECT_EQ(fired, 2);
}

TEST(EventCore, SequenceSpaceExhaustionThrowsInsteadOfWrapping) {
  // A wrapped sequence number would silently reorder events; the queue must
  // refuse instead. Jump the counter to the edge rather than scheduling
  // 2^43 events.
  EventQueue q;
  q.ForceNextSeqForTest(EventQueue::kMaxSeq);
  int fired = 0;
  const EventId last = q.Schedule(SimTime::Nanos(1), [&fired] { ++fired; });
  EXPECT_EQ(EventQueue::SeqOf(last), EventQueue::kMaxSeq);
  EXPECT_THROW(q.Schedule(SimTime::Nanos(1), [] {}), std::length_error);
  // The event that did fit still works end to end.
  q.Cancel(last);
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventCore, MaxSequenceEventStillOrdersAfterEarlierOnes) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(SimTime::Nanos(5), [&order] { order.push_back(0); });
  q.ForceNextSeqForTest(EventQueue::kMaxSeq);
  q.Schedule(SimTime::Nanos(5), [&order] { order.push_back(1); });
  Drain(q);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(EventCore, ZeroDelayLaneKeepsScheduleOrderAgainstHeap) {
  // Heap events at time T were scheduled before the lane events that a
  // callback at T spawns, so every heap event at T fires first, then the
  // lane events in FIFO order.
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(SimTime::Nanos(10), [&] {
    order.push_back(0);
    sim.Schedule(SimTime::Zero(), [&order] { order.push_back(3); });
    sim.Schedule(SimTime::Zero(), [&order] { order.push_back(4); });
  });
  sim.ScheduleAt(SimTime::Nanos(10), [&order] { order.push_back(1); });
  sim.ScheduleAt(SimTime::Nanos(10), [&order] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventCore, ZeroDelayChainsDrainBreadthFirst) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(SimTime::Zero(), [&] {
    order.push_back(0);
    sim.Schedule(SimTime::Zero(), [&] {
      order.push_back(2);
      sim.Schedule(SimTime::Zero(), [&order] { order.push_back(4); });
    });
  });
  sim.Schedule(SimTime::Zero(), [&] {
    order.push_back(1);
    sim.Schedule(SimTime::Zero(), [&order] { order.push_back(3); });
  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventCore, CancelledZeroDelayEventDoesNotFire) {
  Simulator sim;
  bool fired = false;
  int others = 0;
  sim.ScheduleAt(SimTime::Nanos(10), [&] {
    const EventId id =
        sim.Schedule(SimTime::Zero(), [&fired] { fired = true; });
    sim.Schedule(SimTime::Zero(), [&others] { ++others; });
    sim.Cancel(id);
  });
  sim.Run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(others, 1);
}

TEST(EventCore, CompactionBoundsDeadHeapEntries) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(q.Schedule(SimTime::Nanos(100 + i), [] {}));
  }
  EXPECT_EQ(q.heap_storage_for_test(), 1000u);
  // Cancel from the back so dead entries pile up in the heap's interior
  // where DropDeadHeads cannot see them.
  for (int i = 999; i >= 100; --i) q.Cancel(ids[static_cast<std::size_t>(i)]);
  EXPECT_EQ(q.size(), 100u);
  // Dead entries never exceed half the storage once compaction kicks in.
  EXPECT_LE(q.heap_storage_for_test(), 2 * q.size() + 1);
  // The survivors still fire, in order.
  std::vector<int> fired;
  SimTime now = SimTime::Zero();
  int expect = 0;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(q.NextTime(), SimTime::Nanos(100 + expect));
    q.RunNext(now);
    ++expect;
  }
  EXPECT_TRUE(q.Empty());
}

TEST(EventCore, CompactionFiltersDeadNodesInsideSameTimeChain) {
  // Every event shares one timestamp, so they hang off a single cohort
  // chain and the dead ones sit mid-chain, behind a live head.
  EventQueue q;
  std::vector<int> fired;
  std::vector<EventId> ids;
  for (int i = 0; i < 240; ++i) {
    ids.push_back(q.Schedule(SimTime::Nanos(50),
                             [&fired, i] { fired.push_back(i); }));
  }
  EXPECT_EQ(q.heap_storage_for_test(), 1u);
  // Cancel two of every three, keeping multiples of three (the head too).
  // Going from the back frees the chain's cached tail in the compaction.
  for (int i = 239; i >= 0; --i) {
    if (i % 3 != 0) q.Cancel(ids[static_cast<std::size_t>(i)]);
  }
  std::vector<int> expect;
  for (int i = 0; i < 240; i += 3) expect.push_back(i);
  EXPECT_GT(q.counters().compactions, 0u);
  EXPECT_EQ(q.size(), expect.size());
  // A same-time arrival after compaction must not chain onto the freed
  // tail: it opens a second cohort and still fires last.
  q.Schedule(SimTime::Nanos(50), [&fired] { fired.push_back(1000); });
  expect.push_back(1000);
  Drain(q);
  EXPECT_EQ(fired, expect);
}

TEST(EventCore, ScheduleNoCancelInterleavesWithCancellableEvents) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(SimTime::Nanos(5), [&order] { order.push_back(0); });
  sim.ScheduleNoCancel(SimTime::Nanos(5), [&order] { order.push_back(1); });
  sim.Schedule(SimTime::Nanos(5), [&order] { order.push_back(2); });
  sim.ScheduleAtNoCancel(SimTime::Nanos(5), [&order] { order.push_back(3); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventCore, SlabGrowsInBlocksAndRecycles) {
  EventQueue q;
  for (int i = 0; i < 100; ++i) q.Schedule(SimTime::Nanos(i + 1), [] {});
  const std::size_t grown = q.slab_size_for_test();
  EXPECT_GE(grown, 100u);
  Drain(q);
  // Steady state re-uses the recycled slots: no further slab growth.
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 100; ++i) q.Schedule(SimTime::Nanos(i + 1), [] {});
    Drain(q);
  }
  EXPECT_EQ(q.slab_size_for_test(), grown);
}

// Digest of every packet a connection sends or receives, in tap order.
std::uint64_t RunSeededRdcnAndHashPackets() {
  ExperimentConfig cfg = PaperConfig(Variant::kTdtcp);
  Simulator sim;
  Random rng(cfg.seed);
  Topology topo(sim, rng, cfg.topology);
  RdcnController::Config rc;
  rc.schedule = cfg.schedule;
  rc.packet_mode = cfg.topology.packet_mode;
  rc.circuit_mode = cfg.topology.circuit_mode;
  RdcnController controller(sim, rc, {topo.port(0, 1), topo.port(1, 0)},
                            {topo.tor(0), topo.tor(1)});
  controller.Start();

  TcpConfig tc = MakeVariantConfig(Variant::kTdtcp, cfg.workload.base);
  TcpConnection server(sim, topo.host(1, 0), 1, topo.host_id(0, 0), tc);
  TcpConnection client(sim, topo.host(0, 0), 1, topo.host_id(1, 0), tc);

  Fnv1a64 hash;
  const auto tap = [&hash, &sim](TcpConnection::TapDirection dir,
                                 const Packet& p) {
    hash.Mix(static_cast<std::uint64_t>(sim.now().picos()));
    hash.Mix(dir == TcpConnection::TapDirection::kTx ? 1 : 2);
    hash.Mix(p.id);
    hash.Mix(p.seq);
    hash.Mix(p.ack);
    hash.Mix(p.payload);
    hash.Mix(static_cast<std::uint64_t>(p.type));
  };
  server.SetPacketTap(tap);
  client.SetPacketTap(tap);

  server.Listen();
  client.Connect();
  client.SetUnlimitedData(true);
  sim.RunUntil(SimTime::Millis(5));
  // Fold in the aggregate outcome so a divergence after the tap-visible
  // fields would still flip the digest.
  hash.Mix(client.bytes_acked());
  hash.Mix(sim.events_executed());
  return hash.value();
}

TEST(EventCore, SeededRdcnRunIsBitIdentical) {
  const std::uint64_t a = RunSeededRdcnAndHashPackets();
  const std::uint64_t b = RunSeededRdcnAndHashPackets();
  EXPECT_EQ(a, b);
  EXPECT_NE(a, 0u);
}

}  // namespace
}  // namespace tdtcp
