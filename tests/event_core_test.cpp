// The allocation-free event core's contract (see event_queue.hpp): exact
// FIFO among equal timestamps no matter how slots are recycled, O(1)
// sequence-tagged cancellation that can never alias a later event,
// zero-delay events' ordering behind same-instant pending ones, monotone
// streams, dead-entry compaction, and end-to-end bit-identity of a seeded
// RDCN run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "app/experiment.hpp"
#include "cc/registry.hpp"
#include "net/fabric_port.hpp"
#include "net/link.hpp"
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
  // Events pending at time T were scheduled before the zero-delay events
  // that a callback at T spawns, so every pending event at T fires first,
  // then the zero-delay ones in FIFO order.
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

// Randomized oracle for streams. Events come from plain Schedule calls, from
// three streams (mostly at a fixed per-stream delay, sometimes at a random
// one that breaks monotonicity); random delays sit on a coarse grid that
// includes zero, so stream nodes tie with cohort chains and same-instant
// events append to the chains being drained. `zero_delay` forces that share
// of the random delays to zero on top of the grid's own 1 in 17. Callbacks
// schedule more events and cancel stream tails and arbitrary pending events
// (mid-chain nodes). Whatever the structure, the firing order
// must be the stable sort of the uncancelled events by (time, schedule
// index). Batched and sequential dispatch share the structure, so each is
// checked against the oracle rather than against the other.
class StreamOracle {
 public:
  StreamOracle(Simulator& sim, std::uint64_t seed, std::size_t budget,
               double zero_delay = 0.0)
      : sim_(sim), rng_(seed), budget_(budget), zero_delay_(zero_delay) {}

  void Start(int initial) {
    for (int i = 0; i < initial; ++i) ScheduleOne();
  }

  std::vector<std::size_t> Expected() const {
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < recs_.size(); ++i) {
      if (!recs_[i].cancelled) order.push_back(i);
    }
    std::stable_sort(order.begin(), order.end(),
                     [this](std::size_t a, std::size_t b) {
                       return recs_[a].at < recs_[b].at;
                     });
    return order;
  }
  const std::vector<std::size_t>& fired() const { return fired_; }
  std::size_t cancelled() const { return cancelled_; }

 private:
  static constexpr int kStreams = 3;
  struct Rec {
    SimTime at;
    EventId id = kInvalidEventId;
    bool fired = false;
    bool cancelled = false;
  };

  void ScheduleOne() {
    const std::size_t idx = recs_.size();
    const int kind = static_cast<int>(rng_.UniformInt(0, 2 + kStreams));
    SimTime delay = zero_delay_ > 0.0 && rng_.Bernoulli(zero_delay_)
                        ? SimTime::Zero()
                        : SimTime::Nanos(4 * rng_.UniformInt(0, 16));
    recs_.push_back(Rec{sim_.now() + delay});
    auto fn = [this, idx] { Fire(idx); };
    EventId id;
    if (kind < 3) {
      id = sim_.Schedule(delay, fn);
    } else {
      const int s = kind - 3;
      if (!rng_.Bernoulli(0.2)) {
        delay = SimTime::Nanos(8 * (s + 1));  // the stream's own fixed delay
        recs_[idx].at = sim_.now() + delay;
      }
      id = sim_.ScheduleInStream(streams_[s], delay, fn);
      tails_[s] = idx;
    }
    recs_[idx].id = id;
  }

  void CancelRec(std::size_t idx) {
    Rec& r = recs_[idx];
    if (!r.fired && !r.cancelled) {
      r.cancelled = true;
      ++cancelled_;
    }
    sim_.Cancel(r.id);  // a no-op when it already fired or was cancelled
  }

  void Fire(std::size_t idx) {
    ASSERT_FALSE(recs_[idx].cancelled) << "cancelled event " << idx << " fired";
    ASSERT_EQ(sim_.now(), recs_[idx].at);
    recs_[idx].fired = true;
    fired_.push_back(idx);
    if (recs_.size() < budget_) {
      const int more = static_cast<int>(rng_.UniformInt(0, 3));
      for (int i = 0; i < more; ++i) ScheduleOne();
    }
    if (rng_.Bernoulli(0.25)) {
      CancelRec(tails_[static_cast<std::size_t>(rng_.UniformInt(0, kStreams - 1))]);
    }
    if (rng_.Bernoulli(0.5)) {
      const std::size_t lo = recs_.size() > 256 ? recs_.size() - 256 : 0;
      CancelRec(static_cast<std::size_t>(rng_.UniformInt(
          static_cast<std::int64_t>(lo),
          static_cast<std::int64_t>(recs_.size() - 1))));
    }
    if (fired_.size() % 500 == 0) {
      // A cancellation burst: most pending events die at once, mid-chain
      // included, which pushes the dead share past half and compacts.
      for (std::size_t i = fired_.size() > 400 ? recs_.size() - 400 : 0;
           i < recs_.size(); ++i) {
        if (rng_.Bernoulli(0.8)) CancelRec(i);
      }
    }
  }

  Simulator& sim_;
  Random rng_;
  std::size_t budget_;
  double zero_delay_;
  EventQueue::Stream streams_[kStreams];
  std::size_t tails_[kStreams] = {0, 0, 0};
  std::vector<Rec> recs_;
  std::vector<std::size_t> fired_;
  std::size_t cancelled_ = 0;
};

TEST(EventCore, StreamsFireInTimeThenScheduleOrder) {
  // The second pass puts half the random delays at zero: same-instant
  // appends to the cohort or stream chain a batch is draining.
  for (const double zero_delay : {0.0, 0.5}) {
    for (const bool batched : {true, false}) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE(testing::Message() << "zero_delay=" << zero_delay
                                        << " batched=" << batched
                                        << " seed=" << seed);
        Simulator sim;
        sim.set_batched_dispatch(batched);
        StreamOracle oracle(sim, seed, 20000, zero_delay);
        oracle.Start(200);
        sim.Run();
        EXPECT_GT(oracle.cancelled(), 1000u);
        EXPECT_GT(sim.GetStats().compactions, 0u);
        EXPECT_EQ(sim.pending_events(), 0u);
        EXPECT_EQ(oracle.fired(), oracle.Expected());
      }
    }
  }
}

TEST(EventCore, StreamCompactionKeepsOrderAndReopensAfterFreedTail) {
  EventQueue q;
  EventQueue::Stream stream;
  std::vector<int> fired;
  std::vector<EventId> ids;
  for (int i = 0; i < 200; ++i) {
    ids.push_back(q.ScheduleInStream(stream, SimTime::Nanos(100 + i),
                                     [&fired, i] { fired.push_back(i); }));
  }
  EXPECT_EQ(q.heap_storage_for_test(), 1u);  // one chain for the stream
  // Cancel the tail first, then two of every three from the back: more
  // than half the nodes die, so Compact() runs and frees the tail's node.
  q.Cancel(ids[199]);
  for (int i = 198; i >= 0; --i) {
    if (i % 3 != 0) q.Cancel(ids[static_cast<std::size_t>(i)]);
  }
  EXPECT_GT(q.counters().compactions, 0u);
  EXPECT_EQ(q.heap_storage_for_test(), 1u);
  // Fire the first survivor, so the node pool's free list hands the next
  // append a different node than the stream's reclaimed tail.
  SimTime now = SimTime::Zero();
  q.RunNext(now);
  // The tail's node was reclaimed, so the next append cannot go behind it:
  // it opens a new heap entry.
  q.ScheduleInStream(stream, SimTime::Nanos(1000),
                     [&fired] { fired.push_back(1000); });
  EXPECT_EQ(q.heap_storage_for_test(), 2u);
  // The stream's tail is pending again, so a later time appends in O(1).
  q.ScheduleInStream(stream, SimTime::Nanos(1001),
                     [&fired] { fired.push_back(1001); });
  EXPECT_EQ(q.heap_storage_for_test(), 2u);
  std::vector<int> expect;
  for (int i = 0; i < 200; i += 3) expect.push_back(i);
  expect.push_back(1000);
  expect.push_back(1001);
  Drain(q);
  EXPECT_EQ(fired, expect);
}

TEST(EventCore, StreamAppendEarlierThanTailOpensNewEntry) {
  // A mode switch that shortens propagation: the later-scheduled packet
  // arrives first, so it must not be chained behind the tail.
  Simulator sim;
  EventQueue::Stream stream;
  std::vector<int> order;
  sim.ScheduleInStream(stream, SimTime::Nanos(50), [&order] { order.push_back(0); });
  sim.ScheduleInStream(stream, SimTime::Nanos(20), [&order] { order.push_back(1); });
  EXPECT_EQ(sim.heap_storage_for_test(), 2u);
  sim.ScheduleInStream(stream, SimTime::Nanos(20), [&order] { order.push_back(2); });
  EXPECT_EQ(sim.heap_storage_for_test(), 2u);
  EXPECT_THROW(sim.ScheduleInStream(stream, SimTime::Nanos(-1), [] {}),
               std::logic_error);
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 0}));
}

struct CountingSink : PacketSink {
  Simulator* sim = nullptr;
  std::uint64_t received = 0;
  std::size_t max_heap = 0;
  void HandlePacket(Packet&&) override {
    ++received;
    max_heap = std::max(max_heap, sim->heap_storage_for_test());
  }
};

TEST(EventCore, LinkPropagationPipelineHoldsOneHeapEntry) {
  // A rack NIC link as Topology builds it (500 ns, 100 Gbps) carrying
  // ACK-sized packets: each serializes in about 5 ns, so ~100 are in flight
  // at once. Through the link's stream they share one heap entry, next to
  // the serializer's own event.
  const TopologyConfig topo;
  Simulator sim;
  CountingSink sink;
  sink.sim = &sim;
  Link::Config lc;
  lc.rate_bps = topo.host_link_rate_bps;
  lc.propagation = kHostLinkDelay;
  lc.queue.capacity_packets = 1000;
  Link link(sim, lc, &sink);
  Packet p;
  p.size_bytes = 64;
  for (int i = 0; i < 1000; ++i) {
    p.id = static_cast<std::uint64_t>(i + 1);
    link.Enqueue(Packet(p));
  }
  std::size_t max_heap = sim.heap_storage_for_test();
  std::size_t max_in_flight = 0;
  while (sink.received < 1000) {
    sim.RunFor(SimTime::Nanos(10));
    max_heap = std::max(max_heap, sim.heap_storage_for_test());
    max_in_flight = std::max(max_in_flight, sim.stashed_packets());
    ASSERT_LT(sim.now(), SimTime::Micros(20));
  }
  EXPECT_GT(max_in_flight, 80u);
  EXPECT_LE(max_heap, 3u);
  EXPECT_LE(sink.max_heap, 3u);
}

TEST(EventCore, FabricPortPropagationPipelineHoldsOneHeapEntry) {
  // A circuit-mode fabric port (18 us, 100 Gbps) carrying jumbos: 0.72 us
  // of serialization keeps ~25 packets in flight, all on one heap entry.
  Simulator sim;
  CountingSink sink;
  sink.sim = &sim;
  FabricPort::Config fc;
  fc.initial_mode.rate_bps = 100'000'000'000;
  fc.initial_mode.propagation = SimTime::Micros(18);
  fc.initial_mode.circuit = true;
  fc.voq.capacity_packets = 1000;
  FabricPort port(sim, fc, &sink);
  Packet p;
  p.size_bytes = 9000;
  p.payload = 8940;
  for (int i = 0; i < 1000; ++i) {
    p.id = static_cast<std::uint64_t>(i + 1);
    port.Enqueue(Packet(p));
  }
  std::size_t max_heap = sim.heap_storage_for_test();
  std::size_t max_in_flight = 0;
  while (sink.received < 1000) {
    sim.RunFor(SimTime::Micros(1));
    max_heap = std::max(max_heap, sim.heap_storage_for_test());
    max_in_flight = std::max(max_in_flight, sim.stashed_packets());
    ASSERT_LT(sim.now(), SimTime::Millis(2));
  }
  EXPECT_GT(max_in_flight, 20u);
  EXPECT_LE(max_heap, 3u);
  EXPECT_LE(sink.max_heap, 3u);
}

TEST(EventCore, RunUntilStopsAtUntilWhenOnlyADeadEventIsInside) {
  for (const bool batched : {true, false}) {
    SCOPED_TRACE(testing::Message() << "batched=" << batched);
    Simulator sim;
    sim.set_batched_dispatch(batched);
    int ran = 0;
    const EventId inside =
        sim.ScheduleAt(SimTime::Nanos(5), [&ran] { ran += 1; });
    sim.ScheduleAt(SimTime::Nanos(20), [&ran] { ran += 10; });
    sim.Cancel(inside);
    sim.RunUntil(SimTime::Nanos(10));
    EXPECT_EQ(ran, 0);
    EXPECT_EQ(sim.now(), SimTime::Nanos(10));
    EXPECT_EQ(sim.events_executed(), 0u);
    sim.RunUntil(SimTime::Nanos(30));
    EXPECT_EQ(ran, 10);
    EXPECT_EQ(sim.now(), SimTime::Nanos(30));
  }
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
