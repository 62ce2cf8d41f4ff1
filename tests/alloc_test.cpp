// The tentpole claim of the allocation-free event core, asserted directly:
// after warmup, neither a self-rescheduling timer nor a link/queue packet
// ping-pong touches the global heap. The counting allocator lives in
// alloc_harness.hpp (shared with tracepoint_test's disabled-path check);
// any steady-state allocation is a test failure, not a perf regression to
// chase later.
#include <gtest/gtest.h>

#include <cstdint>

#include "alloc_harness.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"

namespace tdtcp {
namespace {

using test::AllocDelta;
using test::CountAllocations;

// Raw functor timer: no std::function anywhere on the path.
struct Tick {
  Simulator& sim;
  std::int64_t& fires;
  std::int64_t limit;
  void operator()() const {
    if (++fires < limit) sim.Schedule(SimTime::Nanos(100), Tick{*this});
  }
};

TEST(AllocFree, SelfReschedulingTimerSteadyState) {
  Simulator sim;
  std::int64_t fires = 0;
  // Warmup: first fires grow the slot slab, heap buffer, and lane.
  sim.Schedule(SimTime::Nanos(100), Tick{sim, fires, 1000});
  sim.Run();
  ASSERT_EQ(fires, 1000);

  fires = 0;
  const AllocDelta d = CountAllocations([&] {
    sim.Schedule(SimTime::Nanos(100), Tick{sim, fires, 100000});
    sim.Run();
  });
  EXPECT_EQ(fires, 100000);
  EXPECT_EQ(d.news, 0u) << "timer steady state allocated";
  EXPECT_EQ(d.deletes, 0u);
}

// Two links forwarding into each other through a bouncing sink: the
// Link -> Queue -> event -> deliver -> Link cycle exercises the packet
// freelist and the zero-copy handoff.
struct Bouncer : PacketSink {
  Link* out = nullptr;
  std::uint64_t received = 0;
  std::uint64_t limit = 0;
  void HandlePacket(Packet&& p) override {
    ++received;
    if (received < limit) out->Enqueue(std::move(p));
  }
};

TEST(AllocFree, LinkPacketPingPongSteadyState) {
  Simulator sim;
  Bouncer east_sink, west_sink;
  Link::Config lc;
  lc.rate_bps = 100'000'000'000;
  lc.propagation = SimTime::Micros(1);
  Link east(sim, lc, &east_sink);
  Link west(sim, lc, &west_sink);
  east_sink.out = &west;  // arrived east -> bounce back west
  west_sink.out = &east;
  east_sink.limit = west_sink.limit = 1u << 30;

  Packet p;
  p.id = 1;
  p.size_bytes = 9000;
  p.payload = 8940;

  // Warmup bounces grow every pool involved.
  east.Enqueue(Packet(p));
  sim.RunUntil(SimTime::Millis(1));
  ASSERT_GT(east_sink.received + west_sink.received, 100u);

  const AllocDelta d = CountAllocations([&] {
    sim.RunFor(SimTime::Millis(10));
  });
  EXPECT_GT(east_sink.received + west_sink.received, 1000u);
  EXPECT_EQ(d.news, 0u) << "packet path steady state allocated";
  EXPECT_EQ(d.deletes, 0u);
  EXPECT_LE(sim.stashed_packets(), 1u);  // at most the one in flight
}

// One link feeding back into itself with 16 jumbo packets circulating:
// 10 us of propagation (longer than a rack link's 500 ns, to hold the pipe
// full) against 0.72 us of serialization keeps ~14 packets in flight, so
// every delivery is appended behind a pending stream tail.
TEST(AllocFree, LinkPipelineSteadyState) {
  Simulator sim;
  Bouncer loop_sink;
  Link::Config lc;
  lc.rate_bps = 100'000'000'000;
  lc.propagation = SimTime::Micros(10);
  lc.queue.capacity_packets = 32;
  Link link(sim, lc, &loop_sink);
  loop_sink.out = &link;
  loop_sink.limit = 1u << 30;

  Packet p;
  p.size_bytes = 9000;
  p.payload = 8940;
  for (int i = 0; i < 16; ++i) {
    p.id = static_cast<std::uint64_t>(i + 1);
    link.Enqueue(Packet(p));
  }
  sim.RunUntil(SimTime::Millis(1));
  ASSERT_GT(loop_sink.received, 1000u);

  const std::uint64_t before = loop_sink.received;
  const AllocDelta d = CountAllocations([&] {
    sim.RunFor(SimTime::Millis(10));
  });
  EXPECT_GT(loop_sink.received - before, 10000u);
  EXPECT_GE(sim.stashed_packets(), 8u);  // the pipeline stayed full
  EXPECT_EQ(d.news, 0u) << "link pipeline steady state allocated";
  EXPECT_EQ(d.deletes, 0u);
}

}  // namespace
}  // namespace tdtcp
